"""Seeded document generators for the four benchmark workloads.

Every case is a pure function of (workload, seed, k): the worker that runs
the documents and the parent that checks the outputs build the same case
independently.  Nothing here imports toricbn; the program only ever sees
the generated argv and JSON text.

Each workload deals its documents round-robin over five classes
(``k % 5``).  The classes are ordered by cost, so with equal weights the
median latency falls in the middle of the third class and the 90th
percentile in the middle of the fifth, never in a gap between two
clusters.  That keeps both percentiles steady from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from oracles import PRESETS as SMOOTH_BASES, fan_order

NINE_RAY = [(2, -1), (-1, 2), (-1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
CLASSES = 5

# (terms, rays) per class of dense-terms: terms x rays doubles per class
DENSE_LADDER = [(400, 32), (560, 38), (800, 45), (1130, 54), (1600, 64)]
# exponent span N per class of wide-span; the fifth class renders at N=100
WIDE_LADDER = [50, 80, 125, 200]
WIDE_RENDER_SPAN = 100
# (command, rays) per class of many-rays, in increasing cost
MANY_LADDER = [("fan-check", 32), ("classify", 32), ("fan-check", 48), ("classify", 48), ("classify", 64)]

# tiny sizes for the self-check: same code paths, a fraction of the work
TINY_DENSE = [(12, 6), (16, 7), (20, 8), (24, 9), (30, 10)]
TINY_WIDE = [6, 8, 10, 12]
TINY_RENDER_SPAN = 6
TINY_MANY = [("fan-check", 10), ("classify", 10), ("fan-check", 12), ("classify", 12), ("classify", 14)]

WORKLOADS = ("small-mix", "wide-span", "dense-terms", "many-rays")

ERROR_KINDS = ("malformed-json", "missing-cover-degree", "non-primitive-ray", "singular-degree")

DIMS_ARITY = {
    "rho": 3,
    "maps-projective": 3,
    "maps-surface": 2,
    "severi": 2,
    "farkas": 3,
    "excess": 3,
}


@dataclass
class Case:
    """One document and the command line that feeds it to the CLI.

    ``argv`` names the input as "-"; the document text goes to stdin (or to
    a file whose path replaces "-" in a fresh-process run).  ``doc`` is the
    parsed document, or None for argv-only commands and malformed text.
    """

    k: int
    klass: int
    argv: list[str]
    text: str | None
    doc: dict | None
    expect_exit: int = 0
    error: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def svg_path(workload: str, k: int) -> str:
    """Relative output path of a render case, under the benchmark work dir."""
    return f".bench_build/toricbn-bench/svg/{workload}-{k}.svg"


# ---------------------------------------------------------------------------
# fans and curves


def blow_ups(base, count: int, rng: random.Random) -> list[tuple[int, int]]:
    """Iterated stellar subdivisions of a smooth fan until it has ``count``
    rays.  The cone to split is the one whose new ray is shortest, with
    random tie-breaks, which keeps coordinates small on large fans."""
    rays = fan_order(base)
    while len(rays) < count:
        c = len(rays)
        sums = [(rays[i][0] + rays[(i + 1) % c][0], rays[i][1] + rays[(i + 1) % c][1]) for i in range(c)]
        weight = [abs(x) + abs(y) for x, y in sums]
        lo = min(weight)
        i = rng.choice([i for i in range(c) if weight[i] <= lo + 1])
        rays.insert(i + 1, sums[i])
    return rays


def rays_doc(rays, rng: random.Random) -> dict:
    """Explicit ray list in shuffled order (the CLI sorts rays itself)."""
    out = [list(r) for r in rays]
    rng.shuffle(out)
    return {"rays": out}


def coeff(rng: random.Random):
    c = rng.choice([1, 1, 1, -1, 2, -3, 5])
    style = rng.randrange(4)
    if style == 0:
        return None
    if style == 1:
        return c
    if style == 2:
        return str(c)
    return f"{c}/{rng.choice([1, 2, 3, 7])}"


def curve_doc(points, rng: random.Random) -> dict:
    terms = []
    for p in points:
        term = {"exp": [p[0], p[1]]}
        c = coeff(rng)
        if c is not None:
            term["coeff"] = c
        terms.append(term)
    rng.shuffle(terms)
    return {"terms": terms}


def random_points(count: int, side: int, rng: random.Random) -> list[tuple[int, int]]:
    """``count`` distinct points of the box [0, side]^2."""
    w = side + 1
    return [(i // w, i % w) for i in rng.sample(range(w * w), count)]


def span_points(terms: int, span: int, rng: random.Random) -> list[tuple[int, int]]:
    """``terms`` points whose bounding box is exactly [0, span]^2.

    One point lies near each corner and the rest inside the inner box
    [span/8, 7 span/8]^2, which that quadrilateral contains.  So the Newton
    polygon always has four vertices and fills most of the box, and the
    cost of scanning the box varies little from curve to curve."""
    near = max(1, span // 8)
    pts = {
        (0, rng.randrange(near)),
        (span - rng.randrange(near), 0),
        (span, span - rng.randrange(near)),
        (rng.randrange(near), span),
    }
    while len(pts) < terms:
        pts.add((rng.randrange(near, span - near + 1), rng.randrange(near, span - near + 1)))
    return sorted(pts)


def low_degree_points(rng: random.Random) -> list[tuple[int, int]]:
    """A unit triangle or a primitive segment, translated: the curves whose
    degree can drop to 2 or 3, so both certificate branches run."""
    px, py = rng.randrange(-2, 3), rng.randrange(-2, 3)
    shape = rng.choice(
        [
            [(0, 0), (1, 0), (0, 1)],
            [(0, 0), (1, 0), (1, 1)],
            [(1, 0), (0, 1), (1, 1)],
            [(0, 0), (1, 0)],
            [(0, 0), (0, 1)],
            [(0, 0), (1, 1)],
            [(0, 0), (1, -1)],
        ]
    )
    return [(x + px, y + py) for x, y in shape]


def small_fan(rng: random.Random, smooth: bool = True) -> dict:
    """A preset, or a blow-up of one with at most 12 rays."""
    pick = rng.randrange(6)
    if pick == 0:
        return {"preset": "P2"}
    if pick == 1:
        return {"preset": "P1xP1"}
    if pick == 2:
        return {"preset": "Hirzebruch", "a": rng.randrange(4)}
    if pick == 3:
        return {"preset": "Bl3P2"}
    if not smooth and pick == 4:
        return {"preset": "FakePlane", "n1": [2, -1], "n2": [-1, 2]}
    base = SMOOTH_BASES[rng.choice(sorted(SMOOTH_BASES))]
    return rays_doc(blow_ups(base, rng.randrange(len(base) + 1, 13), rng), rng)


def small_curve(rng: random.Random) -> dict:
    if rng.random() < 0.35:
        return curve_doc(low_degree_points(rng), rng)
    span = rng.randrange(1, 9)
    count = rng.randrange(2, min(12, (span + 1) ** 2) + 1)
    return curve_doc(random_points(count, span, rng), rng)


# ---------------------------------------------------------------------------
# workloads


def _case(k, klass, argv, doc, text=None, expect_exit=0, error=None) -> Case:
    if text is None and doc is not None:
        text = json.dumps(doc)
    return Case(k, klass, argv, text, doc, expect_exit, error)


def _error_case(k: int, klass: int, rng: random.Random) -> Case:
    kind = ERROR_KINDS[(k // 20) % len(ERROR_KINDS)]
    fan = small_fan(rng)
    curve = small_curve(rng)
    if kind == "malformed-json":
        text = json.dumps({"fan": fan, "curve": curve})[: -rng.randrange(1, 6)]
        return _case(k, klass, ["degree", "-", "--json"], None, text, 1, kind)
    if kind == "missing-cover-degree":
        doc = {"fan": fan, "curve": curve, "genus": rng.randrange(6)}
        return _case(k, klass, ["verdict", "-", "--json"], doc, None, 1, kind)
    if kind == "non-primitive-ray":
        rays = [[1, 0], [0, 1], [-1, -1]]
        rays.insert(rng.randrange(4), [2 * rng.choice([1, -1]), 2 * rng.randrange(-1, 2)])
        doc = {"fan": {"rays": rays}, "curve": curve}
        cmd = rng.choice(["fan-check", "degree", "classify"])
        return _case(k, klass, [cmd, "-", "--json"], doc, None, 2, kind)
    doc = {"fan": {"preset": "FakePlane", "n1": [2, -1], "n2": [-1, 2]}, "curve": curve}
    return _case(k, klass, ["degree", "-", "--json"], doc, None, 2, kind)


# 20 slots: one error document (5 %), the rest spread over the six commands
SMALL_SLOTS = (
    ["error"] + ["dims"] * 3 + ["fan-check"] * 3 + ["render-fan"] + ["degree"] * 4
    + ["verdict"] * 3 + ["classify"] * 3 + ["render-polygons"] * 2
)


def small_mix(k: int, rng: random.Random, tiny: bool) -> Case:
    slot = SMALL_SLOTS[k % len(SMALL_SLOTS)]
    klass = k % CLASSES
    if slot == "error":
        return _error_case(k, klass, rng)
    if slot == "dims":
        formula = rng.choice(sorted(DIMS_ARITY))
        values = [rng.randrange(0, 9) for _ in range(DIMS_ARITY[formula])]
        if formula in ("rho", "maps-projective", "farkas"):
            values[1] = max(values[1], 1)
        if formula == "excess":
            values[1] = max(values[1], 2)
            values[2] = max(values[2], 2)
        argv = ["dims", formula] + [str(v) for v in values] + ["--json"]
        return _case(k, klass, argv, None)
    fan = small_fan(rng, smooth=slot not in ("fan-check", "render-fan"))
    if slot == "fan-check":
        return _case(k, klass, ["fan-check", "-", "--json"], {"fan": fan})
    if slot == "render-fan":
        argv = ["render", "-", "--json", "--target", "fan", "--out", svg_path("small-mix", k)]
        return _case(k, klass, argv, {"fan": fan})
    doc = {"fan": fan, "curve": small_curve(rng)}
    if slot == "render-polygons":
        argv = ["render", "-", "--json", "--target", "polygons", "--out", svg_path("small-mix", k)]
        return _case(k, klass, argv, doc)
    argv = [slot, "-", "--json"]
    if slot == "verdict":
        doc["genus"] = rng.randrange(0, 8)
        doc["cover_degree"] = rng.randrange(1, 5)
        if rng.random() < 0.3:
            doc["image_genus_branch"] = rng.randrange(2)
        if rng.random() < 0.3:
            argv += ["--genus", str(rng.randrange(0, 8))]
    return _case(k, klass, argv, doc)


def wide_span(k: int, rng: random.Random, tiny: bool) -> Case:
    klass = k % CLASSES
    terms = rng.randrange(4, 11)
    if klass < CLASSES - 1:
        span = (TINY_WIDE if tiny else WIDE_LADDER)[klass]
        fan = rng.choice(
            [{"preset": "P2"}, {"preset": "P1xP1"}, {"preset": "Bl3P2"},
             {"preset": "Hirzebruch", "a": rng.randrange(3)}]
        )
        argv = ["degree", "-", "--json"]
    else:
        # P1xP1 and Bl3P2 keep the corners inside the exponent box, so every
        # render draws the same (span + 3)^2 grid
        span = TINY_RENDER_SPAN if tiny else WIDE_RENDER_SPAN
        fan = rng.choice([{"preset": "P1xP1"}, {"preset": "Bl3P2"}])
        argv = ["render", "-", "--json", "--target", "polygons", "--out", svg_path("wide-span", k)]
    doc = {"fan": fan, "curve": curve_doc(span_points(terms, span, rng), rng)}
    return _case(k, klass, argv, doc)


def dense_terms(k: int, rng: random.Random, tiny: bool) -> Case:
    klass = k % CLASSES
    terms, rays = (TINY_DENSE if tiny else DENSE_LADDER)[klass]
    side = round((2 * terms) ** 0.5)
    base = SMOOTH_BASES[rng.choice(sorted(SMOOTH_BASES))]
    fan = rays_doc(blow_ups(base, rays, rng), rng)
    doc = {"fan": fan, "curve": curve_doc(random_points(terms, side, rng), rng)}
    return _case(k, klass, ["degree", "-", "--json"], doc)


def many_rays(k: int, rng: random.Random, tiny: bool) -> Case:
    klass = k % CLASSES
    command, rays = (TINY_MANY if tiny else MANY_LADDER)[klass]
    fan = rays_doc(blow_ups(NINE_RAY, rays, rng), rng)
    if rng.random() < 0.85:
        points = low_degree_points(rng)
    else:
        points = random_points(rng.randrange(4, 9), rng.randrange(2, 5), rng)
    doc = {"fan": fan, "curve": curve_doc(points, rng)}
    return _case(k, klass, [command, "-", "--json"], doc)


GENERATORS = {
    "small-mix": small_mix,
    "wide-span": wide_span,
    "dense-terms": dense_terms,
    "many-rays": many_rays,
}


def make_case(workload: str, seed: int, k: int, tiny: bool = False) -> Case:
    """The k-th document of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}:{k}")
    return GENERATORS[workload](k, rng, tiny)
