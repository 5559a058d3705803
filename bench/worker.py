"""Child process of the benchmark: one closed-loop client of toricbn.cli.

It imports the program from the checkout's ``src``, generates the
workload's documents one at a time from the seed and feeds each to
``toricbn.cli.main(argv)`` in this process, sending the next only after
the previous returned.  Only the ``main`` call is timed; generating the
document, capturing stdout and hashing the SVG happen between calls.

Each result goes to the records file as one JSON line, so outputs are not
held in memory and the process's peak RSS is the program's.  Between
documents it also runs the fresh-process probes: ``import toricbn`` timed
inside a new interpreter, and ``python -m toricbn.cli`` on a document,
and it times two references of its own, a fixed computation and a bare
interpreter start, which measure how fast the machine runs and starts
processes at that moment.  With ``--trace 1`` every document runs
untraced and traced, which gives the tracing overhead and a second
in-process pass whose bytes must match the first.  The last stdout line is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

WALL_CAP_S = 140.0
MIN_DOCS = 100  # so that at least ten latencies lie beyond p90
SETUP_SAMPLES = 21
# Fresh-process runs take documents of the middle class only (k = 2, 7,
# 12, ...), all among the first MIN_DOCS: their median then rests on all
# samples, not on the few that happen to sit between two classes.
COLD_SAMPLES = 20
TINY_SETUP_SAMPLES = 3
TINY_COLD_SAMPLES = 5
REFERENCE_EVERY_NS = 200_000_000  # of busy and probe time

# The reference computation: fixed inputs and the benchmark's own code,
# never the program's, so no change to the program can alter its cost.
_ref_rng = random.Random("reference")
REF_RAYS = workloads.blow_ups(oracles.PRESETS["Bl3P2"], 40, _ref_rng)
REF_POINTS = workloads.random_points(300, 24, _ref_rng)
REF_TEXT = json.dumps(workloads.curve_doc(REF_POINTS, _ref_rng))


def call(main, case):
    """Run one document through main(); returns rc, stdout, stderr, ns."""
    real = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(case.text or ""), out, err
    t0 = perf_counter_ns()
    try:
        rc = main(case.argv)
    except Exception:  # a traceback is a program defect: record it, go on
        rc = -1
        err.write(traceback.format_exc())
    finally:
        t1 = perf_counter_ns()
        sys.stdin, sys.stdout, sys.stderr = real
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def take_svg(case):
    """Digest of the SVG a render case wrote, removing the file."""
    if case.command != "render":
        return None
    path = ROOT / case.argv[case.argv.index("--out") + 1]
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return oracles.svg_digest(data)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import toricbn; "
    "print(time.perf_counter() - t)"
)


def reference_ns() -> int:
    """Median of three timings of the reference computation: how fast the
    machine runs plain Python right now."""
    times = []
    for _ in range(3):
        t0 = perf_counter_ns()
        json.loads(REF_TEXT)
        oracles.levels(REF_RAYS, REF_POINTS)
        oracles.pick_genus(oracles.hull(REF_POINTS))
        oracles.zero_sum_triples(REF_RAYS[:30])
        times.append(perf_counter_ns() - t0)
    return sorted(times)[1]


def start_reference_ns() -> int:
    """Wall time of a fresh interpreter that runs nothing: how fast the
    machine starts a process right now."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True, timeout=60,
                   check=True)
    return perf_counter_ns() - t0


def setup_probe() -> float:
    """Seconds of ``import toricbn`` as measured inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cold_probe(args, k: int) -> dict:
    """Wall time of a fresh ``python -m toricbn.cli`` on document k, with
    digests of what it wrote."""
    case = workloads.make_case(args.workload, args.seed, k, args.tiny)
    argv = list(case.argv)
    if "-" in argv:
        path = Path(args.records).parent / f"cold-{k}.json"
        path.write_text(case.text, encoding="utf-8")
        argv[argv.index("-")] = str(path)
    t0 = perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "toricbn.cli"] + argv, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    ns = perf_counter_ns() - t0
    svg = take_svg(case)
    return {"k": k, "t": t0, "ns": ns, "rc": proc.returncode, "stdout_sha": sha(proc.stdout),
            "svg_sha": svg and svg["sha256"]}


def probes(args) -> list:
    """Fresh-process measurements, interleaved so that both kinds are
    spread over the whole run and see the same machine as the loop.  The
    traced run takes none."""
    if args.trace:
        return []
    setup = [("setup", i) for i in range(TINY_SETUP_SAMPLES if args.tiny else SETUP_SAMPLES)]
    count = TINY_COLD_SAMPLES if args.tiny else COLD_SAMPLES
    middle = workloads.CLASSES // 2
    cold = [("cold", middle + workloads.CLASSES * i) for i in range(count)]
    out = []
    while setup or cold:
        for queue in (setup, cold):
            if queue:
                out.append(queue.pop(0))
    return out


def closed_loop(args, budget_ns, records, probed, tracer=None):
    """Feed documents k = 0, 1, ... until the untraced busy time plus the
    probes' time reaches the budget and at least the minimum number of
    documents ran.

    The fresh-process probes run between documents at evenly spaced
    fractions of the budget, each after a timed start of a bare
    interpreter, and the reference computation is timed between documents
    every REFERENCE_EVERY_NS; all of these count as probe time.
    Every document, probe and reference timing records its start time (the
    ``t`` of perf_counter_ns), so run.py can match each time with the
    machine's speed at that moment.  With a tracer, every document runs twice,
    untraced and traced, in alternating order, so both see the same
    machine; the traced bytes must equal the untraced ones.  Returns
    (docs, untraced busy ns, traced busy ns, mismatching ks)."""
    import toricbn.cli as cli

    pending = probes(args)
    step = budget_ns / (len(pending) + 1)
    busy = traced_busy = probing = 0
    k = 0
    mismatched = []
    wall0 = time.monotonic()
    while (busy + probing < budget_ns or k < MIN_DOCS) and time.monotonic() - wall0 <= WALL_CAP_S:
        if busy + probing >= REFERENCE_EVERY_NS * len(probed["reference"]):
            t0 = perf_counter_ns()
            probed["reference"].append((t0, reference_ns()))
            probing += perf_counter_ns() - t0
        while pending and busy + probing >= step * (len(probed["setup"]) + len(probed["cold"]) + 1):
            t0 = perf_counter_ns()
            run_probe(args, pending.pop(0), probed)
            probing += perf_counter_ns() - t0
        case = workloads.make_case(args.workload, args.seed, k, args.tiny)
        digests = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)) if tracer else (False,):
            if tracer:
                tracer.active(traced)
            t = perf_counter_ns()
            rc, out, err, ns = call(cli.main, case)
            svg = take_svg(case)
            digests[traced] = (rc, sha(out), svg and svg["sha256"])
            if traced:
                traced_busy += ns
                tracer.sums["cli.output_bytes"] += len(out.encode())
            else:
                busy += ns
                records.write(json.dumps({"k": k, "t": t, "rc": rc, "ns": ns, "stdout": out,
                                          "stderr": err, "svg": svg}) + "\n")
        if tracer and digests[True] != digests[False]:
            mismatched.append(k)
        k += 1
    for probe in pending:  # left over only when the wall-time cap cut the loop
        run_probe(args, probe, probed)
    return k, busy, traced_busy, mismatched


def run_probe(args, probe, probed) -> None:
    kind, arg = probe
    probed["start_reference"].append((perf_counter_ns(), start_reference_ns()))
    if kind == "setup":
        probed["setup"].append((perf_counter_ns(), setup_probe()))
    else:
        probed["cold"].append(cold_probe(args, arg))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--records", required=True)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import toricbn.cli  # noqa: F401  (load every module the tracer wraps)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    budget = int(args.seconds * 1e9 / (2 if args.trace else 1))
    probed = {"setup": [], "cold": [], "reference": [], "start_reference": []}
    with open(args.records, "w", encoding="utf-8") as records:
        docs, busy, traced_busy, mismatched = closed_loop(args, budget, records, probed, tracer)
    summary = {"docs": docs, "busy_ns": busy,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "setup_s": probed["setup"], "cold": probed["cold"], "reference": probed["reference"],
               "start_reference": probed["start_reference"]}
    if tracer:
        summary.update({
            "traced_busy_ns": traced_busy,
            "mismatched": mismatched,
            "layers": tracer.metrics(docs),
            "absent": tracer.absent,
            "counter_errors": tracer.counter_errors,
        })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
