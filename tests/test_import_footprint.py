"""What ``import toricbn`` loads in a fresh interpreter.

Every CLI call starts a new process, so each module the package pulls in
is paid on every call.  Records are plain classes, so neither
``dataclasses`` nor the ``inspect`` module it imports may be loaded, and
the SVG renderer loads only when something renders.  The checks are on
module membership, not time, so they are deterministic.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = (
    "import json, sys; before = set(sys.modules); import toricbn; "
    "print(json.dumps(sorted(set(sys.modules) - before)))"
)


def loaded_by_import():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return set(json.loads(out.stdout))


def test_import_loads_neither_dataclasses_nor_inspect_nor_svg():
    added = loaded_by_import()
    assert "toricbn.classify" in added
    assert not added & {"dataclasses", "inspect", "toricbn.svg"}


def test_svg_names_resolve_on_first_use():
    import toricbn
    from toricbn import svg

    assert toricbn.render_fan_svg is svg.render_fan_svg
    assert toricbn.render_polygons_svg is svg.render_polygons_svg
    assert {"render_fan_svg", "render_polygons_svg"} <= set(toricbn.__all__)
