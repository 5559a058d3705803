"""Golden outputs: the exact bytes the CLI writes for a fixed set of documents.

Each ``golden/<case>.input.json`` document goes through ``main()`` with
``--json`` for every report subcommand, and through
``render --target polygons``.  The exit code and stdout of each run are
frozen in ``golden/<case>.<command>.out`` (first line ``exit <code>``, then
stdout verbatim), and the picture in ``golden/<case>.polygons.svg``.

The cases are the README worked examples plus documents that cover
collinear non-vertex support contacts, segment hulls, negative exponents,
a 30-ray blow-up and a singular fan.  When an output change is intended,
rewrite the frozen files with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from toricbn.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name[: -len(".input.json")] for p in GOLDEN.glob("*.input.json"))
COMMANDS = ("degree", "classify", "fan-check", "verdict")
SVG_NAME = "polygons.svg"


def run(argv) -> str:
    """Exit code and stdout of one in-process CLI run, as frozen on disk."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def report(case: str, command: str) -> str:
    return run([command, str(GOLDEN / f"{case}.input.json"), "--json"])


def render(case: str, workdir: Path) -> tuple[str, str]:
    """Render the polygon pair into workdir under a fixed relative name, so
    the reported path is the same on every machine."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        text = run(["render", str(GOLDEN / f"{case}.input.json"), "--target", "polygons",
                    "--out", SVG_NAME, "--json"])
        svg = (workdir / SVG_NAME).read_text(encoding="utf-8")
    finally:
        os.chdir(here)
    return text, svg


def frozen(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_cases_are_present():
    assert len(CASES) >= 10


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_report(case, command):
    assert report(case, command) == frozen(f"{case}.{command}.out")


@pytest.mark.parametrize("case", CASES)
def test_render_polygons(case, tmp_path):
    text, svg = render(case, tmp_path)
    assert text == frozen(f"{case}.render.out")
    assert svg == frozen(f"{case}.{SVG_NAME}")


def _regenerate() -> None:
    import tempfile

    for case in CASES:
        for command in COMMANDS:
            (GOLDEN / f"{case}.{command}.out").write_text(report(case, command), encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            text, svg = render(case, Path(tmp))
        (GOLDEN / f"{case}.render.out").write_text(text, encoding="utf-8")
        (GOLDEN / f"{case}.{SVG_NAME}").write_text(svg, encoding="utf-8")
        print(f"wrote {case}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
