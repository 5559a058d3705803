"""toricbn benchmark: seeded documents through the CLI, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
With ``--trace 0`` it reports the end-to-end metrics of one workload:

* ``docs_per_s``, ``latency_p50_ms``, ``latency_p90_ms``: a closed loop
  with one client in a child process (``worker.py``) calling
  ``toricbn.cli.main(argv)`` with ``--json`` on one document at a time,
  for S seconds (busy time plus the probes below) and at least 100
  documents;
* ``peak_rss_mb``: that child's peak resident set;
* ``cli_cold_ms``: median wall time of a fresh ``python -m toricbn.cli``
  process on 20 of the workload's first 100 documents, all of the middle
  class, one at a time;
* ``setup_s``: median time of ``import toricbn`` in 21 fresh interpreters,
  each timing its own import.

The child spreads both kinds of fresh-process probe evenly over the loop.
Every time above is scaled to a reference machine speed (see
``speed_scale``); the unscaled values go to the provenance line.  With
``--trace 1`` it reports per-layer metrics instead (see tracer.py).
Every output is checked by oracles.py, which uses no toricbn code; the
failure ratio is ``failed / attempted`` in the result line.  The last
stdout line is the result JSON; the line before it holds provenance.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "toricbn-bench"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170

# Every time in the end-to-end metrics is scaled to a reference machine,
# using the worker's reference timings taken within REFERENCE_WINDOW_NS of
# it: in-process times to one on which the reference computation takes
# REFERENCE_MS, fresh-process times to one on which a bare interpreter
# starts in START_REFERENCE_MS.  A shared 2-vCPU Xeon VM ran plain Python
# at speeds up to 1.7x apart from one minute to the next; the references
# track that, and no change to the program can alter them.  The two
# constants are typical values on that VM.  Unscaled wall times go to the
# provenance line.
REFERENCE_MS = 3.0
START_REFERENCE_MS = 60.0
REFERENCE_WINDOW_NS = 1_000_000_000


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args) -> dict:
    records = WORK / f"{args.workload}.jsonl"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--records", str(records)]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["records"] = records
    return summary


def speed_scale(reference, reference_ms: float):
    """A function t -> the factor that scales a time measured at t to the
    reference machine: reference_ms over the median reference timing near
    t (or the nearest one, if none is near)."""
    times = [t for t, _ in reference]

    def scale(t: int) -> float:
        lo = bisect.bisect_left(times, t - REFERENCE_WINDOW_NS)
        hi = bisect.bisect_right(times, t + REFERENCE_WINDOW_NS)
        if lo == hi:
            lo = min(bisect.bisect_left(times, t), len(times) - 1)
            hi = lo + 1
        return reference_ms * 1e6 / statistics.median(ns for _, ns in reference[lo:hi])

    return scale


def verify(args, summary):
    """Run the oracles over every record, and compare the fresh-process
    runs with the in-process ones.  Returns (failed ks, (start, duration)
    in ns of every document, size descriptors)."""
    failed = {}
    timed = []
    cold = {c["k"]: (c["rc"], c["stdout_sha"], c["svg_sha"]) for c in summary.get("cold", [])}
    sizes: dict[int, dict] = {}
    with open(summary["records"], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            k = rec["k"]
            case = workloads.make_case(args.workload, args.seed, k, args.tiny)
            timed.append((rec["t"], rec["ns"]))
            g = oracles.geometry(case)
            problems = oracles.check(case, rec["rc"], rec["stdout"], rec["stderr"], rec["svg"], g)
            if k in cold:
                digest = hashlib.sha256(rec["stdout"].encode()).hexdigest()
                if cold.pop(k) != (rec["rc"], digest, rec["svg"] and rec["svg"]["sha256"]):
                    problems.append("fresh-process run gave different exit code, stdout or SVG bytes")
            if problems:
                failed[k] = problems
            describe(sizes, case, g)
    for k in cold:  # only when the wall-time cap cut the loop short
        failed[k] = ["fresh-process run has no in-process run to compare with"]
    for k in summary.get("mismatched", []):
        failed.setdefault(k, []).append("second in-process pass gave different bytes")
    return failed, timed, sizes


def end_to_end(summary, timed, scale, start_scale) -> dict:
    """The end-to-end metrics, each time multiplied by scale(its start),
    or by start_scale(its start) for a fresh-process time."""
    ms = [ns * scale(t) / 1e6 for t, ns in timed]
    return {
        "docs_per_s": 1e3 * len(ms) / sum(ms),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90),
        "cli_cold_ms": statistics.median(c["ns"] * start_scale(c["t"]) for c in summary["cold"]) / 1e6,
        "setup_s": statistics.median(s * start_scale(t) for t, s in summary["setup_s"]),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }


def describe(sizes, case, g) -> None:
    """Accumulate per-class size descriptors (terms, rays, span, hull)."""
    row = sizes.setdefault(case.klass, {"docs": 0, "commands": set()})
    row["docs"] += 1
    row["commands"].add(case.command)
    if g is None:
        return
    desc = {"rays": g.c}
    if g.points is not None:
        xs = [m[0] for m in g.points]
        ys = [m[1] for m in g.points]
        desc.update(terms=len(g.points), span=max(max(xs) - min(xs), max(ys) - min(ys)),
                    hull_vertices=len(g.hull))
    for key, value in desc.items():
        lo, hi, total, n = row.get(key, (value, value, 0, 0))
        row[key] = (min(lo, value), max(hi, value), total + value, n + 1)


def size_table(sizes) -> dict:
    out = {}
    for klass in sorted(sizes):
        row = sizes[klass]
        entry = {"docs": row["docs"], "commands": sorted(row["commands"])}
        for key in ("terms", "rays", "span", "hull_vertices"):
            if key in row:
                lo, hi, total, n = row[key]
                entry[key] = {"min": lo, "mean": round(total / n, 1), "max": hi}
        out[f"class{klass}"] = entry
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(args, sizes) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
        "sizes": size_table(sizes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="toricbn benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny documents and few samples (the self-check)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricbn" / "__init__.py").is_file():
        print(f"toricbn benchmark: no program source at {ROOT / 'src' / 'toricbn'}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "svg").mkdir(parents=True)
    try:
        summary = run_worker(args)
        failed, timed, sizes = verify(args, summary)
        raw = None
        if args.trace:
            layers = summary["layers"]
            untraced = summary["docs"] / (summary["busy_ns"] / 1e9)
            traced = summary["docs"] / (summary["traced_busy_ns"] / 1e9)
            layers["trace.untraced_docs_per_s"] = untraced
            layers["trace.traced_docs_per_s"] = traced
            layers["trace.overhead_ratio"] = untraced / traced
            values = layers
        else:
            values = end_to_end(summary, timed, speed_scale(summary["reference"], REFERENCE_MS),
                                speed_scale(summary["start_reference"], START_REFERENCE_MS))
            raw = end_to_end(summary, timed, lambda t: 1.0, lambda t: 1.0)
        # BENCHMARK.json is the one list of metric names and units
        listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed["per_layer" if args.trace else "end_to_end"]}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = summary["docs"]
    info = provenance(args, sizes)
    info["fail_ratio"] = len(failed) / attempted
    info["reference_ms"] = statistics.median(ns for _, ns in summary["reference"]) / 1e6
    if summary["start_reference"]:
        info["start_reference_ms"] = statistics.median(ns for _, ns in summary["start_reference"]) / 1e6
    info["unscaled_end_to_end"] = raw
    info["absent_stages"] = summary.get("absent", [])
    info["counter_errors"] = summary.get("counter_errors", {})
    info["failures"] = {str(k): v[:3] for k, v in sorted(failed.items())[:10]}
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:12s} {'fail_ratio':40s} {info['fail_ratio']:14.6g} "
          f"({len(failed)} of {attempted})", file=sys.stderr)
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
