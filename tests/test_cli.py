"""End to end command line behavior, exercised in process through main()."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toricbn
from toricbn import cli
from toricbn.cli import main
from toricbn.errors import InternalContradictionError

SRC = str(Path(toricbn.__file__).resolve().parents[1])

P2_SQUARE = {
    "fan": {"preset": "P2"},
    "curve": {
        "terms": [
            {"exp": [0, 0]},
            {"exp": [1, 0]},
            {"exp": [0, 1]},
            {"exp": [1, 1]},
        ]
    },
}

PRINTED_NINE = {
    "fan": {"rays": [[-2, 1], [1, -2], [1, 1], [1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1]]},
    "curve": {
        "terms": [
            {"exp": [2, 1]},
            {"exp": [1, 2]},
            {"exp": [1, 1], "coeff": "-3"},
            {"exp": [0, 0]},
        ]
    },
}


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_fresh(argv):
    """One run of ``python -m toricbn.cli`` in a new interpreter, with help
    text wrapped at 80 columns."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    return subprocess.run(
        [sys.executable, "-m", "toricbn.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestFanCheck:
    def test_preset_doc(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"preset": "Bl3P2"}})
        code, doc = run_json(capsys, ["fan-check", path, "--json"])
        assert code == 0
        assert doc["smooth"] is True
        assert doc["ray_count"] == 6
        assert len(doc["opposite_ray_pairs"]) == 3
        assert len(doc["zero_sum_triples"]) == 2
        assert doc["class_group"]["rank"] == 4

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"fan": {"preset": "P2"}}'))
        code, doc = run_json(capsys, ["fan-check", "--json"])
        assert code == 0
        assert doc["fan"] == {"rays": [[-1, -1], [1, 0], [0, 1]]}

    def test_human_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"preset": "P2"}})
        assert main(["fan-check", path]) == 0
        out = capsys.readouterr().out
        assert "smooth: true" in out

    def test_fake_plane_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"preset": "FakePlane", "n1": [2, -1], "n2": [-1, 2]}})
        code, doc = run_json(capsys, ["fan-check", path, "--json"])
        assert code == 0
        assert doc["smooth"] is False
        assert doc["cone_indices"] == [3, 3, 3]
        assert doc["class_group"]["torsion"] == [3]


class TestDegree:
    def test_report(self, tmp_path, capsys):
        path = write_doc(tmp_path, P2_SQUARE)
        code, doc = run_json(capsys, ["degree", path, "--json"])
        assert code == 0
        assert doc["boundary_intersections"] == [2, 2, 2]
        assert doc["anticanonical_degree"] == 6
        assert doc["arithmetic_genus"] == 0
        assert doc["newton_polygon"]["kind"] == "polygon"

    def test_round_trippable_normalization(self, tmp_path, capsys):
        path = write_doc(tmp_path, P2_SQUARE)
        code, doc = run_json(capsys, ["degree", path, "--json"])
        assert code == 0
        second = write_doc(tmp_path, {"fan": doc["fan"], "curve": doc["curve"]}, "again.json")
        code2, doc2 = run_json(capsys, ["degree", second, "--json"])
        assert code2 == 0
        assert doc2["boundary_intersections"] == doc["boundary_intersections"]

    def test_large_span_triangle(self, tmp_path, capsys):
        # the bounding box holds 10^12 lattice points: degrees and genus
        # must come from the hull, not from a scan
        n = 10**6
        doc = {
            "fan": {"preset": "P2"},
            "curve": {"terms": [{"exp": [0, 0]}, {"exp": [n, 0]}, {"exp": [0, n]}]},
        }
        path = write_doc(tmp_path, doc)
        t0 = time.perf_counter()
        code, rep = run_json(capsys, ["degree", path, "--json"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert rep["arithmetic_genus"] == (n - 1) * (n - 2) // 2
        assert rep["boundary_intersections"] == [n, n, n]
        assert rep["anticanonical_degree"] == 3 * n
        assert elapsed < 2.0


class TestClassifyCommand:
    def test_fiber(self, tmp_path, capsys):
        doc = {
            "fan": {"preset": "P1xP1"},
            "curve": {"terms": [{"exp": [0, 0]}, {"exp": [1, 0]}]},
        }
        path = write_doc(tmp_path, doc)
        code, rep = run_json(capsys, ["classify", path, "--json"])
        assert code == 0
        assert rep["classification"]["tag"] == "fiber_of_projection"
        assert rep["diagnostics"]["assume_integral"] is True
        assert rep["diagnostics"]["orientation_note"] is None
        assert rep["diagnostics"]["smoothness"]["smooth"] is True

    def test_orientation_note_on_printed_rays(self, tmp_path, capsys):
        path = write_doc(tmp_path, PRINTED_NINE)
        code, rep = run_json(capsys, ["classify", path, "--json"])
        assert code == 0
        assert rep["classification"]["tag"] == "high_degree"
        assert rep["classification"]["degree"] == 6
        note = rep["diagnostics"]["orientation_note"]
        assert note is not None
        assert note["negated_tag"] == "maps_to_fake_plane"
        assert note["negated_degree"] == 3

    def test_no_assume_integral_is_recorded(self, tmp_path, capsys):
        path = write_doc(tmp_path, PRINTED_NINE)
        code, rep = run_json(capsys, ["classify", path, "--json", "--no-assume-integral"])
        assert code == 0
        assert rep["diagnostics"]["assume_integral"] is False


class TestVerdictCommand:
    def test_flags_override_doc(self, tmp_path, capsys):
        doc = dict(P2_SQUARE)
        doc["genus"] = 0
        doc["cover_degree"] = 1
        path = write_doc(tmp_path, doc)
        code, rep = run_json(capsys, ["verdict", path, "--json"])
        assert code == 0
        assert rep["verdict"]["tag"] == "expected_dimension"
        code, rep = run_json(
            capsys, ["verdict", path, "--json", "--genus", "5", "--cover-degree", "2"]
        )
        assert code == 0
        assert rep["verdict"]["tag"] == "no_such_covers"

    def test_missing_genus(self, tmp_path, capsys):
        path = write_doc(tmp_path, P2_SQUARE)
        assert main(["verdict", path]) == 1
        assert "genus" in capsys.readouterr().err

    def test_image_genus_branch_field(self, tmp_path, capsys):
        doc = {
            "fan": {"preset": "P2"},
            "curve": {
                "terms": [
                    {"exp": [0, 0]},
                    {"exp": [1, 0]},
                    {"exp": [0, 1]},
                    {"exp": [1, 1]},
                    {"exp": [2, 1]},
                ]
            },
            "genus": 1,
            "cover_degree": 2,
            "image_genus_branch": 1,
        }
        path = write_doc(tmp_path, doc)
        code, rep = run_json(capsys, ["verdict", path, "--json"])
        assert code == 0
        assert rep["verdict"]["tag"] == "not_a_component"
        assert rep["verdict"]["family_dim"] == rep["verdict"]["image_degree"]


class TestDims:
    def test_values(self, capsys):
        code, rep = run_json(capsys, ["dims", "rho", "2", "1", "2", "--json"])
        assert code == 0
        assert rep["value"] == 0
        code, rep = run_json(capsys, ["dims", "excess", "2", "2", "3", "--json"])
        assert rep["value"] == 1

    def test_wrong_arity(self, capsys):
        assert main(["dims", "rho", "2"]) == 1

    def test_domain_error(self, capsys):
        assert main(["dims", "rho", "-1", "1", "2"]) == 2


class TestRender:
    def test_deterministic(self, tmp_path, capsys):
        path = write_doc(tmp_path, P2_SQUARE)
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert main(["render", path, "--target", "polygons", "--out", str(out1)]) == 0
        assert main(["render", path, "--target", "polygons", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("<svg ")

    def test_fan_target(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"preset": "P1xP1"}})
        out = tmp_path / "fan.svg"
        assert main(["render", path, "--target", "fan", "--out", str(out)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "marker" in text and "</svg>" in text

    def test_unwritable_target(self, tmp_path, capsys):
        path = write_doc(tmp_path, P2_SQUARE)
        bad = tmp_path / "missing_dir" / "x.svg"
        assert main(["render", path, "--target", "fan", "--out", str(bad)]) == 3


class TestExitCodes:
    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["fan-check", str(p)]) == 1

    def test_non_object_document(self, tmp_path, capsys):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        assert main(["fan-check", str(p)]) == 1

    def test_schema_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"preset": "Unknown"}})
        assert main(["fan-check", path]) == 1

    def test_domain_error(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"fan": {"rays": [[2, 0], [0, 1], [-1, -1]]}})
        assert main(["fan-check", path]) == 2

    def test_unknown_term_key(self, tmp_path, capsys):
        terms = [{"exp": [0, 0], "coef": "5"}, {"exp": [1, 0]}]
        doc = {"fan": {"preset": "P2"}, "curve": {"terms": terms}}
        assert main(["degree", write_doc(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "toricbn: parse error: curve.terms[0]: unknown key 'coef'\n"

    def test_missing_file(self, capsys):
        assert main(["fan-check", "/no/such/file.json"]) == 3

    def test_file_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"fan": {"preset": "P2\xff"}}')
        assert main(["fan-check", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error" in captured.err

    def test_closed_stdout(self, tmp_path, monkeypatch, capsys):
        # a reader that went away, like `toricbn fan-check doc | head -1`
        path = write_doc(tmp_path, {"fan": {"preset": "P2"}})
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["fan-check", path, "--json"]) == 3
        assert capsys.readouterr().err == ""
        # the descriptor now points at devnull, so a late flush is harmless
        os.write(fd, b"late")
        os.close(fd)
        assert (tmp_path / "stdout").read_bytes() == b""

    def test_internal_error(self, tmp_path, monkeypatch, capsys):
        def contradiction(args):
            raise InternalContradictionError("side 0 traversed backwards")

        monkeypatch.setitem(cli._HANDLERS, "fan-check", contradiction)
        path = write_doc(tmp_path, {"fan": {"preset": "P2"}})
        assert main(["fan-check", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "toricbn: internal error: side 0 traversed backwards\n"

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "fan-check" in capsys.readouterr().out


class TestOversizedInput:
    """Input past the interpreter's limits is an error report, never a
    traceback: nesting too deep or an integer literal too long to read is a
    parse error, and an output number too long to print is invalid input."""

    def test_deep_nesting(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000 + "]" * 100000)
        assert main(["degree", str(p)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_integer_literal_over_the_digit_limit(self, tmp_path, capsys):
        p = tmp_path / "bigint.json"
        p.write_text(
            '{"fan": {"preset": "P2"}, "curve": {"terms": '
            '[{"exp": [0, 0]}, {"exp": [' + "1" * 5000 + ', 0]}]}}'
        )
        assert main(["degree", str(p), "--json"]) == 1
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", ([], ["--json"]), ids=("human", "json"))
    def test_coefficient_too_long_to_print(self, tmp_path, capsys, as_json):
        doc = {
            "fan": {"preset": "P2"},
            "curve": {"terms": [{"exp": [0, 0], "coeff": "1e5000"}, {"exp": [1, 0]}, {"exp": [0, 1]}]},
        }
        assert main(["degree", write_doc(tmp_path, doc)] + as_json) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{sys.get_int_max_str_digits()}-digit limit" in captured.err

    def test_genus_too_long_to_print(self, tmp_path, capsys):
        n = 10**2500
        doc = {
            "fan": {"preset": "P2"},
            "curve": {"terms": [{"exp": [0, 0]}, {"exp": [n, 0]}, {"exp": [0, n]}]},
        }
        assert main(["degree", write_doc(tmp_path, doc), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{sys.get_int_max_str_digits()}-digit limit" in captured.err


class TestByteStability:
    def test_json_reports_are_stable(self, tmp_path, capsys):
        path = write_doc(tmp_path, PRINTED_NINE)
        code1 = main(["classify", path, "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["classify", path, "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestParserReuse:
    """main() builds its parser once and reuses it: no flag or default of
    one call may leak into the next, so each call prints what a fresh
    process prints for the same argv."""

    def test_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        path = write_doc(tmp_path, dict(P2_SQUARE, genus=0, cover_degree=1))
        nine = write_doc(tmp_path, PRINTED_NINE, "nine.json")
        sequence = [
            ["verdict", path, "--genus", "5", "--json"],
            ["verdict", path, "--json"],
            ["verdict", path, "--image-genus", "2"],
            ["verdict", path],
            ["--help"],
            ["degree", path, "--json"],
            ["classify", nine, "--no-assume-integral"],
            ["classify", nine],
        ]
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = run_fresh(argv)
            assert (code, captured.out, captured.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            ), argv


@pytest.mark.skipif(
    subprocess.run(["which", "toricbn"], capture_output=True).returncode != 0,
    reason="console script not on PATH",
)
class TestInstalledEntryPoint:
    def test_dims_runs(self):
        done = subprocess.run(
            ["toricbn", "dims", "rho", "2", "1", "2", "--json"],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["value"] == 0
