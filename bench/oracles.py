"""Output oracles for the benchmark, written without any toricbn code.

``check(case, rc, stdout, stderr, svg)`` returns a list of problems with
one CLI result; an empty list means the output is right.  The numbers are
derived independently of the program's own algorithm:

* degrees from toric intersection theory on a smooth fan,
  delta_i = a_i h_i - h_{i-1} - h_{i+1} with n_{i-1} + n_{i+1} = a_i n_i
  and h_i the brute-force minimum of <m, n_i> over all terms;
* genus from Pick's theorem on this module's own convex hull;
* classification tags from the total degree, certificates against an
  exhaustive witness list, class-group torsion from the gcd of all 2x2
  minors, verdicts and dimension formulas from their closed forms;
* SVG files by a streaming XML parse that counts what must be drawn.
"""

from __future__ import annotations

import functools
import hashlib
import json
import xml.parsers.expat
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# lattice geometry


def det(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(m, n) -> int:
    return m[0] * n[0] + m[1] * n[1]


def _half(v) -> int:
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def fan_order(rays) -> list[tuple[int, int]]:
    """Counter-clockwise, starting at the lexicographically smallest ray."""
    rays = [tuple(r) for r in rays]
    ordered = []
    for h in (0, 1):
        part = [r for r in rays if _half(r) == h]
        # within a half plane, u precedes v exactly when det(u, v) > 0;
        # sorting by the count of predecessors avoids float angles
        ordered.extend(sorted(part, key=lambda u: sum(1 for v in part if det(v, u) > 0)))
    start = ordered.index(min(ordered))
    return ordered[start:] + ordered[:start]


def hull(points) -> list[tuple[int, int]]:
    """Convex hull vertices, counter-clockwise from the smallest point,
    without collinear points (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and det((out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                                        (p[0] - out[-2][0], p[1] - out[-2][1])) <= 0:
                out.pop()
            out.append(p)
        return out

    h = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    return h if len(h) >= 3 else [pts[0], pts[-1]]


def pick_genus(vertices) -> int:
    """Interior lattice points of a hull by Pick: I = (2A - B + 2) / 2."""
    if len(vertices) < 3:
        return 0
    c = len(vertices)
    twice_area = sum(det(vertices[i], vertices[(i + 1) % c]) for i in range(c))
    boundary = sum(
        gcd(vertices[(i + 1) % c][0] - vertices[i][0], vertices[(i + 1) % c][1] - vertices[i][1])
        for i in range(c)
    )
    return (twice_area - boundary + 2) // 2


def levels(rays, points):
    """h_i = min <m, n_i> over all points, and the sorted minimizers."""
    out = []
    for a, b in rays:
        values = [x * a + y * b for x, y in points]
        lo = min(values)
        if values.count(lo) == 1:
            out.append((lo, [points[values.index(lo)]]))
        else:
            out.append((lo, sorted(m for m, v in zip(points, values) if v == lo)))
    return out


def degrees(rays, h) -> list[int]:
    """Boundary degrees on a smooth complete fan from the support levels."""
    c = len(rays)
    out = []
    for i in range(c):
        p, n, q = rays[i - 1], rays[i], rays[(i + 1) % c]
        s = (p[0] + q[0], p[1] + q[1])
        a = dot(s, n) // dot(n, n)
        out.append(a * h[i] - h[i - 1] - h[(i + 1) % c])
    return out


def corner(n1, h1, n2, h2):
    """The point with <p, n1> = h1 and <p, n2> = h2 (Cramer)."""
    d = det(n1, n2)
    return (Fraction(h1 * n2[1] - h2 * n1[1], d), Fraction(n1[0] * h2 - n2[0] * h1, d))


def unit_triangle(rays, points) -> bool:
    """Whether the circumscribed polygon on this 3-ray fan has integral
    corners and three sides of lattice length 1."""
    rays = fan_order(rays)
    h = [lo for lo, _ in levels(rays, points)]
    mu = [corner(rays[i], h[i], rays[(i + 1) % 3], h[(i + 1) % 3]) for i in range(3)]
    if any(x.denominator != 1 or y.denominator != 1 for x, y in mu):
        return False
    return all(
        gcd(int(mu[i][0] - mu[i - 1][0]), int(mu[i][1] - mu[i - 1][1])) == 1 for i in range(3)
    )


def opposite_pairs(rays):
    index = {r: i for i, r in enumerate(rays)}
    return [(i, index[(-r[0], -r[1])]) for i, r in enumerate(rays)
            if index.get((-r[0], -r[1]), -1) > i]


def zero_sum_triples(rays):
    index = {r: i for i, r in enumerate(rays)}
    out = []
    c = len(rays)
    for i in range(c):
        for j in range(i + 1, c):
            k = index.get((-rays[i][0] - rays[j][0], -rays[i][1] - rays[j][1]), -1)
            if k > j:
                out.append((i, j, k))
    return out


# ---------------------------------------------------------------------------
# the input side: what the document says, normalized


PRESETS = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "Bl3P2": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
}


def doc_rays(fan: dict) -> list[tuple[int, int]]:
    if "rays" in fan:
        return fan_order(fan["rays"])
    name = fan["preset"]
    if name == "Hirzebruch":
        return fan_order([(1, 0), (0, 1), (-1, fan["a"]), (0, -1)])
    if name == "FakePlane":
        u, v = fan["n1"], fan["n2"]
        return fan_order([tuple(u), tuple(v), (-u[0] - v[0], -u[1] - v[1])])
    return fan_order(PRESETS[name])


def doc_terms(curve: dict) -> list[tuple[tuple[int, int], str]]:
    """Terms sorted by exponent, with coefficients in lowest terms."""
    return sorted((tuple(t["exp"]), _coeff_str(t.get("coeff", "1"))) for t in curve["terms"])


@functools.lru_cache(maxsize=None)
def _coeff_str(raw) -> str:
    return str(Fraction(raw))


def _pt(p) -> list[str]:
    return [str(Fraction(p[0])), str(Fraction(p[1]))]


class Geometry:
    """Everything the oracles derive from one (fan, curve) document."""

    def __init__(self, rays, points):
        self.rays = rays
        self.points = points
        self.c = len(rays)
        self.cone_indices = [abs(det(rays[i], rays[(i + 1) % self.c])) for i in range(self.c)]
        self.smooth = all(d == 1 for d in self.cone_indices)
        if points is not None:
            self.support = levels(rays, points)
            self.h = [lo for lo, _ in self.support]
            self.hull = hull(points)
            self.genus = pick_genus(self.hull)
            if self.smooth:
                self.delta = degrees(rays, self.h)
                self.total = sum(self.delta)
                # mu[i] is where support lines i and i+1 meet
                self.mu = [corner(rays[i], self.h[i], rays[(i + 1) % self.c], self.h[(i + 1) % self.c])
                           for i in range(self.c)]


# ---------------------------------------------------------------------------
# per command checks; each appends problems to ``bad``


def _eq(bad, what, got, want):
    if got != want:
        bad.append(f"{what}: got {str(got)[:200]}, want {str(want)[:200]}")


def _check_degree(bad, out, g, case):
    _eq(bad, "boundary_intersections", out["boundary_intersections"], g.delta)
    _eq(bad, "anticanonical_degree", out["anticanonical_degree"], g.total)
    _eq(bad, "arithmetic_genus", out["arithmetic_genus"], g.genus)
    kind = "polygon" if len(g.hull) >= 3 else ("segment" if len(g.hull) == 2 else "point")
    _eq(bad, "newton_polygon", out["newton_polygon"], {"kind": kind, "vertices": [list(v) for v in g.hull]})
    _eq(bad, "support_lines", out["support_lines"],
        [{"ray": list(n), "level": lo, "argmin": [list(m) for m in arg]}
         for n, (lo, arg) in zip(g.rays, g.support)])
    mu = g.mu
    edges = []
    for i, n in enumerate(g.rays):
        along = sorted(g.support[i][1], key=lambda m: dot(m, (n[1], -n[0])))
        edges.append({
            "ray_index": i, "ray": list(n), "start": _pt(mu[i - 1]), "end": _pt(mu[i]),
            "nu_minus": list(along[0]), "nu_plus": list(along[-1]), "delta": g.delta[i],
        })
    _eq(bad, "edges", out["edges"], edges)
    _eq(bad, "diagnostics", out["diagnostics"],
        {"smoothness": {"smooth": True, "cone_indices": g.cone_indices}, "assume_integral": True})


def _expected_tag(total: int) -> str:
    return {2: "fiber_of_projection", 3: "maps_to_fake_plane"}.get(total, "high_degree")


def _witnesses(g):
    pairs = [("pair", [i, j]) for i, j in opposite_pairs(g.rays)
             if len({dot(m, g.rays[i]) for m in g.points}) == 1]
    triples = [("triple", list(t)) for t in zero_sum_triples(g.rays)
               if unit_triangle([g.rays[i] for i in t], g.points)]
    return pairs + triples


def _check_classify(bad, out, g, case):
    cls = out["classification"]
    _eq(bad, "classification.tag", cls["tag"], _expected_tag(g.total))
    _eq(bad, "classification.degree", cls["degree"], g.total)
    seen = [(w["kind"], w.get("pair", w.get("triple"))) for w in out["witnesses"]]
    _eq(bad, "witnesses", seen, _witnesses(g))
    positive = [i for i, d in enumerate(g.delta) if d > 0]
    if cls["tag"] == "fiber_of_projection":
        _eq(bad, "ray_pair", cls["ray_pair"], positive)
        if ("pair", cls["ray_pair"]) not in seen:
            bad.append("fiber certificate missing from the witnesses")
    elif cls["tag"] == "maps_to_fake_plane":
        _eq(bad, "ray_triple", cls["ray_triple"], positive)
        if ("triple", cls["ray_triple"]) not in seen:
            bad.append("fake plane certificate missing from the witnesses")
        for e, i in zip(cls["primitive_certificate"], positive):
            _eq(bad, "certificate side", (e["ray_index"], e["delta"]), (i, 1))
    singular = any(abs(det(g.rays[t[0]], g.rays[t[1]])) != 1 for t in zero_sum_triples(g.rays))
    note = out["diagnostics"]["orientation_note"]
    if not singular:
        _eq(bad, "orientation_note", note, None)
    else:
        neg = fan_order([(-x, -y) for x, y in g.rays])
        neg_total = sum(degrees(neg, [lo for lo, _ in levels(neg, g.points)]))
        if neg_total == g.total:
            _eq(bad, "orientation_note", note, None)
        elif note is None:
            bad.append("orientation_note missing although the negated fan differs")
        else:
            _eq(bad, "orientation_note.negated", (note["negated_tag"], note["negated_degree"]),
                (_expected_tag(neg_total), neg_total))


def _check_fan(bad, out, g, case):
    _eq(bad, "ray_count", out["ray_count"], g.c)
    _eq(bad, "smooth", (out["smooth"], out["cone_indices"]), (g.smooth, g.cone_indices))
    cg = out["class_group"]
    minors = 0
    for i in range(g.c):
        for j in range(i + 1, g.c):
            minors = gcd(minors, det(g.rays[i], g.rays[j]))
    torsion = [minors] if minors > 1 else []
    _eq(bad, "class_group", (cg["rank"], cg["torsion"]), (g.c - 2, torsion))
    classes = cg["ray_classes"]
    width = g.c - 2 + len(torsion)
    if len(classes) != g.c or any(len(v) != width for v in classes):
        bad.append("ray_classes shape")
    else:
        # the characters x and y are principal: sum <m, n_i> D_i == 0
        for axis in (0, 1):
            free = [sum(g.rays[i][axis] * classes[i][j] for i in range(g.c)) for j in range(g.c - 2)]
            tors = [sum(g.rays[i][axis] * classes[i][g.c - 2 + j] for i in range(g.c)) % d
                    for j, d in enumerate(torsion)]
            if any(free) or any(tors):
                bad.append(f"ray classes violate the relation of character {axis}")
    _eq(bad, "opposite_ray_pairs", out["opposite_ray_pairs"],
        [{"indices": [i, j], "rays": [list(g.rays[i]), list(g.rays[j])]} for i, j in opposite_pairs(g.rays)])
    triples = []
    for t in zero_sum_triples(g.rays):
        plane = fan_order([g.rays[i] for i in t])
        d = abs(det(plane[0], plane[1]))
        triples.append({"indices": list(t), "fake_plane": {
            "rays": [list(r) for r in plane], "is_projective_plane": d == 1, "cone_indices": [d, d, d]}})
    _eq(bad, "zero_sum_triples", out["zero_sum_triples"], triples)


def _verdict(genus: int, m: int, image: int, image_genus: int):
    """Closed-form cover family verdict: (tag, extra fields)."""
    if m == 1:
        return ("expected_dimension", {"generically_smooth": True}) if image >= 4 else ("low_degree_birational", {})
    if image_genus == 1:
        if genus != 1:
            return "no_such_covers", {}
        return "not_a_component", {"family_dim": image}
    rho = genus - 2 * (genus - m + 1)
    if rho < 0:
        return "no_such_covers", {}
    family = (2 * m - genus + 1) + (image - 1)
    excess = genus - (m - 1) * (image - 2)
    if excess > 0:
        return "obstructed_component", {"family_dim": family, "excess": excess}
    if excess == 0 and image == 4 and genus == 2 * m - 2:
        return "boundary_special_case", {"family_dim": family}
    return "not_a_component", {"family_dim": family}


def _flag(argv, name):
    return int(argv[argv.index(name) + 1]) if name in argv else None


def _check_verdict(bad, out, g, case):
    doc = case.doc
    genus = _flag(case.argv, "--genus")
    genus = doc["genus"] if genus is None else genus
    m = doc["cover_degree"]
    image_genus = doc.get("image_genus_branch", 0)
    v = out["verdict"]
    tag, extra = _verdict(genus, m, g.total, image_genus)
    _eq(bad, "verdict", (v["tag"], v["genus"], v["cover_degree"], v["image_degree"], v["expected_dim"]),
        (tag, genus, m, g.total, m * g.total + 2 - 2 * genus))
    for key, want in extra.items():
        _eq(bad, f"verdict.{key}", v.get(key), want)
    if "witness" in v and v["witness"] is not None:
        _eq(bad, "verdict.witness", (v["witness"]["tag"], v["witness"]["degree"]),
            (_expected_tag(g.total), g.total))


DIMS = {
    "rho": (("genus", "r", "d"), lambda g, r, d: g - (r + 1) * (g - d + r)),
    "maps-projective": (("genus", "r", "d"), lambda g, r, d: (r + 1) * d + r * (1 - g)),
    "maps-surface": (("genus", "deg_k"), lambda g, k: k + 2 * (1 - g)),
    "severi": (("genus", "deg_k"), lambda g, k: k + g - 1),
    "farkas": (("genus", "r", "deg_k_y"), lambda g, r, k: k + r * (1 - g)),
    "excess": (("genus", "m", "image_deg_k"), lambda g, m, k: g - (m - 1) * (k - 2)),
}


def _check_dims(bad, out, case):
    formula = case.argv[1]
    values = [int(v) for v in case.argv[2:-1]]
    names, f = DIMS[formula]
    _eq(bad, "dims", out, {"command": "dims", "formula": formula, "arguments": values,
                           "argument_names": list(names), "value": f(*values)})


# ---------------------------------------------------------------------------
# SVG


class _SvgCounter:
    def __init__(self):
        self.counts: dict[str, int] = {}
        self.root = None

    def start(self, tag, attrs):
        if self.root is None:
            self.root = tag
        key = f"circle@{attrs.get('r')}" if tag == "circle" else tag
        self.counts[key] = self.counts.get(key, 0) + 1


def svg_digest(data: bytes) -> dict:
    """Hash, size and element counts of an SVG file, by a streaming parse."""
    counter = _SvgCounter()
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = counter.start
    try:
        parser.Parse(data, True)
        ok = counter.root == "svg"
    except xml.parsers.expat.ExpatError:
        ok = False
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "xml_ok": ok, "counts": counter.counts}


def _check_render(bad, out, g, case, svg):
    target = case.argv[case.argv.index("--target") + 1]
    path = case.argv[case.argv.index("--out") + 1]
    if svg is None:
        bad.append("no SVG file written")
        return
    _eq(bad, "render report", out, {"command": "render", "target": target, "out": path, "bytes": svg["bytes"]})
    if not svg["xml_ok"]:
        bad.append("SVG is not well-formed")
    counts = svg["counts"]
    if target == "fan":
        xs = [r[0] for r in g.rays] + [0]
        ys = [r[1] for r in g.rays] + [0]
        _eq(bad, "fan arrows", counts.get("line", 0), g.c)
    else:
        xs = [m[0] for m in g.points] + [int(p[0]) for p in g.mu]
        ys = [m[1] for m in g.points] + [int(p[1]) for p in g.mu]
        _eq(bad, "support dots", counts.get("circle@4.5", 0), len(g.points))
        _eq(bad, "corner dots", counts.get("circle@3", 0), len(set(g.mu)))
    grid = (max(xs) - min(xs) + 3) * (max(ys) - min(ys) + 3)
    _eq(bad, "grid points", counts.get("circle@1.5", 0), grid)


# ---------------------------------------------------------------------------


def geometry(case) -> Geometry | None:
    doc = case.doc
    if not doc or "fan" not in doc:
        return None
    rays = doc_rays(doc["fan"])
    points = [tuple(t["exp"]) for t in doc["curve"]["terms"]] if "curve" in doc else None
    return Geometry(rays, points)


def check(case, rc: int, stdout: str, stderr: str, svg: dict | None, g: Geometry | None) -> list[str]:
    """Problems with one CLI result (empty when it is right); ``g`` is
    ``geometry(case)``."""
    bad: list[str] = []
    if case.expect_exit != 0:
        _eq(bad, "exit code", rc, case.expect_exit)
        _eq(bad, "stdout", stdout, "")
        if not stderr.startswith("toricbn: ") or "Traceback" in stderr:
            bad.append(f"error report: {stderr[:200]!r}")
        return bad
    if rc != 0:
        return [f"exit code {rc}: {stderr[:300]!r}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if case.command == "dims":
        _check_dims(bad, out, case)
        return bad
    _eq(bad, "command", out.get("command"), case.command)
    if case.command == "render":
        _check_render(bad, out, g, case, svg)
        return bad
    _eq(bad, "fan", out.get("fan"), {"rays": [list(r) for r in g.rays]})
    if case.command == "fan-check":
        _check_fan(bad, out, g, case)
        return bad
    terms = doc_terms(case.doc["curve"])
    _eq(bad, "curve", out.get("curve"),
        {"terms": [{"exp": list(m), "coeff": c} for m, c in terms]})
    checker = {"degree": _check_degree, "classify": _check_classify, "verdict": _check_verdict}
    try:
        checker[case.command](bad, out, g, case)
    except (KeyError, TypeError, IndexError) as exc:
        bad.append(f"report shape: {type(exc).__name__}: {exc}")
    return bad
