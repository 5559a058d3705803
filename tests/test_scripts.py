"""Smoke tests of the scripts under ``scripts/``, run in process."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["verdict_table.py", "--genus", "4"])
    load("verdict_table").main()
    rows = {}
    for line in capsys.readouterr().out.splitlines()[2:]:
        m, deg, expected, *rest = line.split()
        rows[int(m), int(deg)] = (int(expected), rest)
    # g = 2m - 2 on an image of degree 4: the family has dimension 6
    assert rows[3, 4] == (6, ["6", "boundary_special_case"])
    assert len(rows) == 4 * 5
