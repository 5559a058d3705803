"""Golden outputs: the exact bytes the CLI writes for a fixed set of documents.

Each ``golden/<case>.input.json`` document goes through ``main()`` for
every report subcommand, with and without ``--json``, and through
``render --target polygons``.  The exit code and stdout of each run are
frozen (first line ``exit <code>``, then stdout verbatim): the ``--json``
report in ``golden/<case>.<command>.out``, the human report in
``golden/<case>.<command>.txt``, and the picture in
``golden/<case>.polygons.svg``.  Each ``dims`` formula is frozen the same
way, on fixed arguments, in ``golden/dims.<formula>.out`` and ``.txt``.

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
DIMS = {
    "rho": ("4", "1", "3"),
    "maps-projective": ("2", "2", "4"),
    "maps-surface": ("3", "9"),
    "severi": ("3", "9"),
    "farkas": ("2", "3", "12"),
    "excess": ("4", "3", "4"),
}


def run(argv) -> str:
    """Exit code and stdout of one in-process CLI run, as frozen on disk."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def report(case: str, command: str) -> str:
    return run([command, str(GOLDEN / f"{case}.input.json"), "--json"])


def human(case: str, command: str) -> str:
    return run([command, str(GOLDEN / f"{case}.input.json")])


def dims(formula: str, as_json: bool) -> str:
    return run(["dims", formula, *DIMS[formula]] + (["--json"] if as_json else []))


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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_human_report(case, command):
    assert human(case, command) == frozen(f"{case}.{command}.txt")


@pytest.mark.parametrize("as_json", (True, False), ids=("json", "human"))
@pytest.mark.parametrize("formula", sorted(DIMS))
def test_dims(formula, as_json):
    assert dims(formula, as_json) == frozen(f"dims.{formula}.{'out' if as_json else 'txt'}")


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
            (GOLDEN / f"{case}.{command}.txt").write_text(human(case, command), encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            text, svg = render(case, Path(tmp))
        (GOLDEN / f"{case}.render.out").write_text(text, encoding="utf-8")
        (GOLDEN / f"{case}.{SVG_NAME}").write_text(svg, encoding="utf-8")
        print(f"wrote {case}")
    for formula in DIMS:
        for as_json, suffix in ((True, "out"), (False, "txt")):
            (GOLDEN / f"dims.{formula}.{suffix}").write_text(dims(formula, as_json), encoding="utf-8")
    print("wrote dims")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
