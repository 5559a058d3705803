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


def test_render_gallery_is_deterministic(monkeypatch, capsys, tmp_path):
    names = ["cremona_conic.svg", "nine_ray_fan.svg", "nodal_cubic.svg", "square_on_plane.svg"]
    runs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        monkeypatch.setattr(sys, "argv", ["render_gallery.py", "--out-dir", str(out)])
        load("render_gallery").main()
        assert sorted(p.name for p in out.iterdir()) == names
        runs.append({name: (out / name).read_bytes() for name in names})
    assert runs[0] == runs[1]
    assert all(svg.startswith(b"<svg") for svg in runs[0].values())
