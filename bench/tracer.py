"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps, and ``Tracer.active(True)`` rebinds, every binding of each listed public function
across the loaded ``toricbn.*`` modules (the defining module, the package
namespace, and every from-import such as the CLI's), so internal calls are
timed as well as the CLI's.  Each wrapper records calls, self time
(duration minus the time of wrapped children) and work counters derived
from the call's arguments and result.  Counter bookkeeping is charged to
nobody: it is excluded from the wrapper's own duration and from every
enclosing span.

Per-point helpers (``pairing``, ``det2``, ``line_intersection``,
``lattice_distance``) are deliberately not wrapped: their cost is part of
the caller's self time, and wrapping them would dwarf it.  A listed
function missing from the program is reported as an absent stage.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter_ns

STAGES = {
    "cli": ["main"],
    "fan": ["fan_from_json", "fan_to_json", "preset", "build_fan", "smoothness", "class_group",
            "opposite_ray_pairs", "zero_sum_triples", "make_fake_plane"],
    "lattice": ["convex_hull", "interior_lattice_points"],
    "newton": ["curve_from_json", "curve_to_json", "newton_polygon", "arithmetic_genus",
               "support_lines", "circumscribed_polygon", "boundary_intersections",
               "anticanonical_degree", "is_contracted_by_projection"],
    "classify": ["classify", "line_witness_scan", "bn_verdict", "classification_to_json",
                 "witness_to_json", "verdict_to_json"],
    "svg": ["render_fan_svg", "render_polygons_svg"],
}

# fitted log-log slope of a call's duration against its size
SLOPES = {
    "lattice.interior_lattice_points": "exponent span N (longer bounding-box side)",
    "newton.support_lines": "terms x rays",
    "fan.zero_sum_triples": "rays",
    "classify.line_witness_scan": "rays",
}

def _size_and_counts(stage, args, result, sums):
    """Work counters of one call; returns the size used for the slope fit."""
    if stage == "newton.support_lines":
        work = len(args[1].terms) * len(args[0].rays)
        sums["newton.pairings"] += work
        return work
    if stage == "lattice.interior_lattice_points":
        poly = args[0]
        if poly.kind != "polygon":
            return None
        xs = [v.x for v in poly.vertices]
        ys = [v.y for v in poly.vertices]
        sums["lattice.scan_points"] += max(0, max(xs) - min(xs) - 1) * max(0, max(ys) - min(ys) - 1)
        sums["lattice.scan_hits"] += result
        return max(max(xs) - min(xs), max(ys) - min(ys))
    if stage == "fan.zero_sum_triples":
        c = len(args[0].rays)
        sums["fan.triples_examined"] += math.comb(c, 3)
        sums["fan.triples_found"] += len(result)
        return c
    if stage == "classify.line_witness_scan":
        rays = args[0].rays
        present = set(rays)
        pairs = sum(1 for r in rays if -r in present) // 2
        triples = sum(1 for i, u in enumerate(rays) for v in rays[i + 1:] if -(u + v) in present) // 3
        sums["classify.witness_candidates"] += pairs + triples
        sums["classify.witnesses_found"] += len(result)
        return len(rays)
    if stage in ("svg.render_polygons_svg", "svg.render_fan_svg"):
        sums["svg.grid_points"] += result.count('r="1.5"')
    return None


class Tracer:
    """Collects calls, self time, counters and slope samples per stage."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.samples: dict[str, list[tuple[int, int]]] = {s: [] for s in SLOPES}
        self.sums: dict[str, int] = {
            key: 0 for key in ("newton.pairings", "lattice.scan_points", "lattice.scan_hits",
                               "fan.triples_examined", "fan.triples_found",
                               "classify.witness_candidates", "classify.witnesses_found",
                               "svg.grid_points", "cli.output_bytes")
        }
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _wrap(self, stage: str, fn):
        stack = self._stack
        self.calls[stage] = 0
        self.self_ns[stage] = 0

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter_ns()
                self.calls[stage] += 1
                self.self_ns[stage] += t1 - t0 - stack.pop()
                if ok:
                    self._count(stage, args, result, t1 - t0)
                if stack:
                    stack[-1] += perf_counter_ns() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, stage, args, result, duration_ns) -> None:
        try:
            size = _size_and_counts(stage, args, result, self.sums)
        except (AttributeError, TypeError) as exc:
            # the program changed the shape of this stage's arguments
            self.counter_errors[stage] = f"{type(exc).__name__}: {exc}"
            return
        if size:
            self.samples[stage].append((size, duration_ns))

    def install(self) -> None:
        """Build a wrapper for each listed stage and find every binding of
        it; nothing is rebound until ``active(True)``."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "toricbn" or name.startswith("toricbn."))]
        for module, names in STAGES.items():
            home = sys.modules.get(f"toricbn.{module}")
            for name in names:
                stage = f"{module}.{name}"
                fn = getattr(home, name, None) if home is not None else None
                if not callable(fn):
                    self.absent.append(stage)
                    continue
                wrapper = self._wrap(stage, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._bindings.append((m, attr, fn, wrapper))

    def active(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off)."""
        for module, attr, fn, wrapper in self._bindings:
            setattr(module, attr, wrapper if on else fn)

    def metrics(self, docs: int) -> dict[str, float]:
        """Per-document calls, self time and counters; ratios; slopes."""
        out = {}
        for module, names in STAGES.items():
            for name in names:
                stage = f"{module}.{name}"
                out[f"{stage}.calls"] = self.calls.get(stage, 0) / docs
                out[f"{stage}.self_ms"] = self.self_ns.get(stage, 0) / 1e6 / docs
        s = self.sums
        for key in ("newton.pairings", "lattice.scan_points", "fan.triples_examined",
                    "svg.grid_points", "cli.output_bytes"):
            out[key] = s[key] / docs
        out["lattice.scan_hit_ratio"] = _ratio(s["lattice.scan_hits"], s["lattice.scan_points"])
        out["fan.triples_hit_ratio"] = _ratio(s["fan.triples_found"], s["fan.triples_examined"])
        out["classify.witness_hit_ratio"] = _ratio(
            s["classify.witnesses_found"], s["classify.witness_candidates"])
        for stage in SLOPES:
            out[f"{stage}.slope"] = loglog_slope(self.samples[stage])
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def loglog_slope(samples) -> float:
    """Least-squares slope of log(duration) against log(size); 0.0 when
    the sizes do not span at least two distinct values."""
    pts = [(math.log(x), math.log(max(t, 1))) for x, t in samples if x > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
