"""Fast self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. BENCHMARK.json names exactly the workloads the code generates, and
   setup_s has the largest bound.
2. The oracles accept the program's output on tiny documents of every
   workload, and reject each of a set of deliberate corruptions of it, so
   a passing run means something.  The small-mix documents reach every
   classification branch and every error kind.
3. ``run.py`` runs every workload at tiny sizes, untraced and traced,
   with the oracles on, and prints a well-formed result.
4. ``run.py`` fails without printing a result where the program source is
   missing.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import call, take_svg  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(spec["paths"] == ["bench"], "paths")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def _bump(path):
    """A corruption that adds one to the number at a JSON path."""
    def mutate(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
    return mutate


def _drop(path):
    """A corruption that removes the first element of a JSON list."""
    def mutate(out):
        node = out
        for key in path:
            node = node[key]
        del node[0]
    return mutate


CORRUPTIONS = {
    "degree": [_bump(["boundary_intersections", 0]), _bump(["arithmetic_genus"]),
               _bump(["support_lines", 0, "level"]), _drop(["edges"])],
    "classify": [_bump(["classification", "degree"])],
    "fan-check": [_bump(["class_group", "rank"]), _drop(["fan", "rays"])],
    "verdict": [_bump(["verdict", "expected_dim"]), _bump(["verdict", "image_degree"])],
    "dims": [_bump(["value"])],
    "render": [_bump(["bytes"])],
}


def check_oracles() -> None:
    from toricbn.cli import main

    tags, errors = set(), set()
    (ROOT / workloads.svg_path("x", 0)).parent.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for k in range(80):
            case = workloads.make_case(workload, 0, k, tiny=True)
            rc, out, err, _ = call(main, case)
            svg = take_svg(case)
            g = oracles.geometry(case)
            problems = oracles.check(case, rc, out, err, svg, g)
            expect(not problems, f"{workload} k={k} {case.argv}: {problems}")
            if case.error:
                errors.add(case.error)
                expect(oracles.check(case, 0, "{}", "", None, g), f"{workload} k={k}: wrong exit code accepted")
                continue
            report = json.loads(out)
            if case.command == "classify":
                tags.add(report["classification"]["tag"])
                if report["witnesses"]:
                    bad = copy.deepcopy(report)
                    del bad["witnesses"][0]
                    expect(oracles.check(case, rc, json.dumps(bad), err, svg, g),
                           f"{workload} k={k}: dropped witness accepted")
            for mutate in CORRUPTIONS[case.command]:
                bad = copy.deepcopy(report)
                mutate(bad)
                expect(oracles.check(case, rc, json.dumps(bad), err, svg, g),
                       f"{workload} k={k} {case.argv}: corrupted output accepted")
            if svg is not None:
                bad_svg = dict(svg, counts=dict(svg["counts"], **{"circle@1.5": 0}))
                expect(oracles.check(case, rc, out, err, bad_svg, g), f"{workload} k={k}: bad SVG accepted")
    expect(tags == {"high_degree", "fiber_of_projection", "maps_to_fake_plane"}, f"tags reached: {tags}")
    expect(errors == set(workloads.ERROR_KINDS), f"error kinds reached: {errors}")


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_runs() -> None:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_benchmark(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode} {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: {proc.stdout.splitlines()[-2][:3000]}")
            expect(result["attempted"] >= 100, f"{workload}: fewer than 100 documents")
            print(f"ok   run.py {workload} --trace {trace}: {result['attempted']} documents")


def check_stripped() -> None:
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = ROOT / ".bench_build" / "selfcheck-stripped"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_benchmark(bare, "small-mix", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without the program source")
    expect('"correct"' not in proc.stdout, "run.py printed a result without the program source")


def main() -> int:
    steps = [("manifest", check_manifest), ("oracles", check_oracles),
             ("runs", check_runs), ("stripped checkout", check_stripped)]
    for name, step in steps:
        try:
            step()
        except CheckFailed as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
