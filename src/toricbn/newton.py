"""Laurent curves, their Newton polygons, and boundary intersection data.

Given a complete fan and a Laurent polynomial F, each ray n_i supports a
line minimizing <., n_i> over the exponents of F.  Its level h_i is the
support function of the Newton polygon at n_i.  A linear form attains its
minimum on a face of the polygon, so the levels and their minimizers are
read off the exponents on the hull boundary alone.

On a smooth fan n_{i-1} + n_{i+1} = a_i n_i with a_i = det(n_{i-1}, n_{i+1}),
and the intersection number of the completed curve with the i-th boundary
divisor is the integer

    delta_i = a_i h_i - h_{i-1} - h_{i+1}

(D . D_i for the Cartier divisor with support function h, using
D_i^2 = -a_i; Fulton 1993, section 5).  Summing the delta_i gives the
anticanonical degree.  The arithmetic genus is the interior lattice point
count of the Newton polygon, taken from the hull by Pick's theorem,
I = (2A - B + 2) / 2.  The bounding-box scan
``lattice.interior_lattice_points`` is kept as the test oracle for it.

Consecutive support lines intersect in the corner points mu_i, and the
corners trace out the circumscribed polygon of F.  On a smooth fan every
corner is a lattice point and the lattice length of the i-th side is
delta_i again.  The rational corners are built only where a report, a
certificate or a picture needs them, and wherever both derivations are at
hand they are checked against each other.  ``analyze`` computes all of
this once per (fan, curve); the module level functions wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateExponentError,
    InternalContradictionError,
    SchemaError,
    TooFewTermsError,
    ZeroCoefficientError,
    ZeroCoordinateError,
)
from .fan import Fan, SmoothnessReport, smoothness
from .lattice import (
    LatticePolygon,
    LatticeVector,
    Line,
    RationalPoint,
    convex_hull,
    convex_hull_with_boundary,
    det2,
    lattice_distance,
    line_intersection,
    pairing,
    pick_interior_points,
    rotate_cw,
)


def _coerce_exponent(e) -> LatticeVector:
    if isinstance(e, LatticeVector):
        return e
    x, y = e
    return LatticeVector(int(x), int(y))


def _term_key(term) -> tuple[int, int]:
    m = term[0]
    return (m.x, m.y)


def _sorted_curve(terms: list[tuple[LatticeVector, Fraction]]) -> "LaurentCurve":
    """Check a list of (exponent, non-zero coefficient) terms and store it
    sorted by exponent."""
    if len(terms) != len({_term_key(t) for t in terms}):
        raise DuplicateExponentError("repeated exponent vector")
    if len(terms) < 2:
        raise TooFewTermsError(f"got {len(terms)} terms, a curve needs at least 2")
    return LaurentCurve(tuple(sorted(terms, key=_term_key)))


@dataclass(frozen=True)
class LaurentCurve:
    """A Laurent polynomial with exact rational coefficients.

    Terms are stored sorted by exponent.  At least two terms are required:
    a monomial cuts out nothing on the torus, so it defines no curve.
    """

    terms: tuple[tuple[LatticeVector, Fraction], ...]

    @staticmethod
    def from_dict(coeffs) -> "LaurentCurve":
        """Build from a mapping exponent -> coefficient.  Exponents may be
        (x, y) tuples or LatticeVectors; coefficients anything Fraction
        accepts exactly (int, Fraction, or a 'p/q' string)."""
        terms = []
        for e, c in coeffs.items():
            coeff = Fraction(c)
            if coeff == 0:
                raise ZeroCoefficientError(f"zero coefficient at exponent {e}")
            terms.append((_coerce_exponent(e), coeff))
        return _sorted_curve(terms)

    def coefficient(self, m: LatticeVector) -> Fraction:
        for e, c in self.terms:
            if e == m:
                return c
        return Fraction(0)


def laurent_curve(coeffs) -> LaurentCurve:
    """Module level alias for LaurentCurve.from_dict."""
    return LaurentCurve.from_dict(coeffs)


def support(curve: LaurentCurve) -> tuple[LatticeVector, ...]:
    """Exponent vectors with non-zero coefficient, sorted."""
    return tuple(m for m, _ in curve.terms)


def newton_polygon(curve: LaurentCurve) -> LatticePolygon:
    return convex_hull(support(curve))


def arithmetic_genus(curve: LaurentCurve) -> int:
    """Interior lattice point count of the Newton polygon, by Pick's
    theorem: the arithmetic genus of the completed curve on any smooth
    toric surface."""
    return pick_interior_points(newton_polygon(curve))


@dataclass(frozen=True)
class SupportLine:
    """The line <., ray> == min over the support, with its minimizers."""

    ray: LatticeVector
    line: Line
    argmin: tuple[LatticeVector, ...]


@dataclass(frozen=True)
class BoundaryEdge:
    """Side i of the circumscribed polygon, running along support line i
    from corner mu_{i-1} to corner mu_i.

    nu_minus and nu_plus are the support points on the side closest to the
    start and end corner.  delta is the lattice length of the side, which
    is the intersection number with boundary divisor i; it is None when a
    corner fails to be a lattice point (possible only on singular fans).
    """

    ray_index: int
    ray: LatticeVector
    start: RationalPoint
    end: RationalPoint
    nu_minus: LatticeVector
    nu_plus: LatticeVector
    delta: int | None


@dataclass(frozen=True)
class CircumscribedPolygon:
    """Corner cycle and sides of the circumscribed polygon.

    mu[i] is the intersection of support lines i and i+1 (mod c), so side
    i runs from mu[i-1] to mu[i].  all_lattice reports whether every
    corner is integral; on smooth fans it always is.
    """

    mu: tuple[RationalPoint, ...]
    edges: tuple[BoundaryEdge, ...]
    all_lattice: bool

    def distinct_corners(self) -> tuple[RationalPoint, ...]:
        return tuple(sorted(set(self.mu)))


@dataclass(frozen=True)
class CurveAnalysis:
    """Everything computed once per (fan, curve).

    hull is the Newton polygon and boundary lists the support points on
    its boundary, sorted by exponent.  lines holds one support line per
    ray, in fan order.  degrees holds the boundary intersection numbers
    from the delta formula, or None when the fan is singular.  genus is
    Pick's interior point count of the hull.
    """

    fan: Fan
    curve: LaurentCurve
    hull: LatticePolygon
    boundary: tuple[LatticeVector, ...]
    lines: tuple[SupportLine, ...]
    smoothness: SmoothnessReport
    degrees: tuple[int, ...] | None
    genus: int

    def on(self, fan: Fan) -> "CurveAnalysis":
        """The same curve on another complete fan, reusing the hull."""
        return _analysis(fan, self.curve, self.hull, self.boundary, self.genus)

    def intersections(self) -> tuple[int, ...]:
        """The degrees, or SingularFanError when the fan is singular."""
        self.smoothness.require("boundary intersections need a smooth fan")
        return self.degrees

    def circumscribed(self) -> CircumscribedPolygon:
        """Intersect consecutive support lines and package the side data.

        Works on any complete fan; corners are rational in general and the
        per-side delta is only filled in where both corners are integral.
        Consecutive rays are never collinear, so the intersections exist.
        On a smooth fan every side's lattice length must equal the delta
        formula's degree.
        """
        lines = self.lines
        c = len(lines)
        mu = [line_intersection(lines[i].line, lines[(i + 1) % c].line) for i in range(c)]
        edges = []
        for i, sl in enumerate(lines):
            start, end = mu[i - 1], mu[i]
            d = rotate_cw(sl.ray)

            def along(p):
                return p.x * d.x + p.y * d.y

            lo, hi = along(start), along(end)
            if hi < lo:
                raise InternalContradictionError(
                    f"side {i} traversed backwards against the boundary orientation"
                )
            contacts = sorted(sl.argmin, key=along)
            if along(contacts[0]) < lo or along(contacts[-1]) > hi:
                raise InternalContradictionError(
                    f"support contact outside the corners of side {i}"
                )
            delta = None
            if start.is_lattice and end.is_lattice:
                delta = lattice_distance(start.to_lattice(), end.to_lattice())
            if self.degrees is not None and delta != self.degrees[i]:
                raise InternalContradictionError(
                    f"side {i} has corner lattice length {delta} "
                    f"but the support levels give degree {self.degrees[i]}"
                )
            edges.append(
                BoundaryEdge(
                    ray_index=i,
                    ray=sl.ray,
                    start=start,
                    end=end,
                    nu_minus=contacts[0],
                    nu_plus=contacts[-1],
                    delta=delta,
                )
            )
        return CircumscribedPolygon(tuple(mu), tuple(edges), all(p.is_lattice for p in mu))


def analyze(fan: Fan, curve: LaurentCurve) -> CurveAnalysis:
    """One hull pass, one support line per ray from the hull boundary, the
    degrees by the delta formula on a smooth fan, and Pick's genus."""
    hull, boundary = convex_hull_with_boundary(support(curve))
    return _analysis(fan, curve, hull, boundary, pick_interior_points(hull))


def _analysis(fan, curve, hull, boundary, genus) -> CurveAnalysis:
    lines = _support_lines(fan.rays, boundary)
    report = smoothness(fan)
    degrees = _degrees(lines) if report.smooth else None
    return CurveAnalysis(fan, curve, hull, boundary, lines, report, degrees, genus)


def _support_lines(rays, points) -> tuple[SupportLine, ...]:
    """Minimum and minimizers of <., n> over the points, for each ray n.
    The minimizers keep the order of the points."""
    xy = [(m.x, m.y) for m in points]
    out = []
    for n in rays:
        nx, ny = n.x, n.y
        values = [x * nx + y * ny for x, y in xy]
        lo = min(values)
        argmin = tuple(m for m, v in zip(points, values) if v == lo)
        out.append(SupportLine(n, Line(n, lo), argmin))
    return tuple(out)


def _degrees(lines) -> tuple[int, ...]:
    """delta_i = a_i h_i - h_{i-1} - h_{i+1} with a_i = det(n_{i-1}, n_{i+1});
    valid on a smooth fan, where n_{i-1} + n_{i+1} = a_i n_i."""
    c = len(lines)
    out = []
    for i, here in enumerate(lines):
        prev, nxt = lines[i - 1], lines[(i + 1) % c]
        a = det2(prev.ray, nxt.ray)
        out.append(a * here.line.level - prev.line.level - nxt.line.level)
    return tuple(out)


def support_lines(fan: Fan, curve: LaurentCurve) -> tuple[SupportLine, ...]:
    """One support line per ray, in fan order."""
    return analyze(fan, curve).lines


def circumscribed_polygon(fan: Fan, curve: LaurentCurve) -> CircumscribedPolygon:
    """Corners and sides of the circumscribed polygon, on any complete fan."""
    return analyze(fan, curve).circumscribed()


def boundary_intersections(fan: Fan, curve: LaurentCurve) -> tuple[int, ...]:
    """Intersection numbers of the completed curve with the boundary
    divisors, in fan order.  Only defined on smooth fans."""
    return analyze(fan, curve).intersections()


def anticanonical_degree(fan: Fan, curve: LaurentCurve) -> int:
    """Total boundary intersection number, i.e. the degree against -K."""
    return sum(analyze(fan, curve).intersections())


def chart_decomposition(fan: Fan, curve: LaurentCurve, ray_index: int) -> tuple[int, int, int]:
    """Per-side count (a, b, c) with a + b - c equal to the side's delta.

    With side i running from corner mu_{i-1} to corner mu_i and support
    contacts nu_minus, nu_plus as in BoundaryEdge:

        a = dist(nu_minus, mu_i)
        b = dist(mu_{i-1}, nu_plus)
        c = dist(nu_minus, nu_plus)

    The two torus charts at the side's ends see a and b boundary roots of
    the localized curve and the overlap is counted by c, so a + b - c is
    the side's intersection number.
    """
    analysis = analyze(fan, curve)
    analysis.smoothness.require("chart decomposition needs a smooth fan")
    e = analysis.circumscribed().edges[ray_index % fan.ray_count]
    a = lattice_distance(e.nu_minus, e.end.to_lattice())
    b = lattice_distance(e.start.to_lattice(), e.nu_plus)
    c = lattice_distance(e.nu_minus, e.nu_plus)
    return (a, b, c)


# ---------------------------------------------------------------------------
# pointwise probes


def evaluate(curve: LaurentCurve, point: RationalPoint, what: str = "value") -> Fraction:
    """Exact value of F (or of a formal partial) at a torus point.

    what is "value", "dx" or "dy".  Coordinates must be non-zero because
    Laurent terms may carry negative exponents.
    """
    if point.x == 0 or point.y == 0:
        raise ZeroCoordinateError(
            f"cannot evaluate a Laurent polynomial at ({point.x}, {point.y})"
        )
    total = Fraction(0)
    for m, a in curve.terms:
        if what == "value":
            total += a * point.x ** m.x * point.y ** m.y
        elif what == "dx":
            if m.x != 0:
                total += a * m.x * point.x ** (m.x - 1) * point.y ** m.y
        elif what == "dy":
            if m.y != 0:
                total += a * m.y * point.x ** m.x * point.y ** (m.y - 1)
        else:
            raise ValueError(f"what must be 'value', 'dx' or 'dy', got {what!r}")
    return total


def is_singular_at(curve: LaurentCurve, point: RationalPoint) -> bool:
    """True when F and both partials vanish at the point."""
    return all(evaluate(curve, point, w) == 0 for w in ("value", "dx", "dy"))


def is_contracted_by_projection(curve: LaurentCurve, ray: LatticeVector) -> bool:
    """True when <., ray> is constant on the support.

    The projection along a primitive ray maps the curve to a point of the
    quotient torus exactly in this case (the curve is a fiber component).
    """
    values = {pairing(m, ray) for m in support(curve)}
    return len(values) == 1


def is_fiber_of(curve: LaurentCurve, fan: Fan) -> list[tuple[int, int]]:
    """Opposite ray pairs of the fan whose projection contracts the curve."""
    from .fan import opposite_ray_pairs

    return [
        (i, j)
        for (i, j) in opposite_ray_pairs(fan)
        if is_contracted_by_projection(curve, fan.rays[i])
    ]


# ---------------------------------------------------------------------------
# JSON wire format


def curve_from_json(doc) -> LaurentCurve:
    """Parse {"terms": [{"exp": [a, b], "coeff": "p/q"}, ...]}.

    coeff is optional and defaults to 1; integers are accepted alongside
    'p/q' strings.  Floats are rejected: coefficients must be exact.
    """
    if not isinstance(doc, dict):
        raise SchemaError("curve document must be a JSON object")
    if "terms" not in doc or not isinstance(doc["terms"], list):
        raise SchemaError("curve document needs a 'terms' list")
    seen = set()
    terms = []
    for item in doc["terms"]:
        if not isinstance(item, dict) or "exp" not in item:
            raise SchemaError(f"curve term must be an object with 'exp', got {item!r}")
        e = item["exp"]
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(t, int) and not isinstance(t, bool) for t in e)
        ):
            raise SchemaError(f"'exp' must be a pair of integers, got {e!r}")
        raw = item.get("coeff", "1")
        if isinstance(raw, bool) or isinstance(raw, float):
            raise SchemaError(f"coefficient {raw!r} is not exact, use 'p/q' strings")
        if not isinstance(raw, (int, str)):
            raise SchemaError(f"cannot read coefficient {raw!r}")
        try:
            coeff = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad coefficient {raw!r}: {exc}") from None
        key = (e[0], e[1])
        if key in seen:
            raise DuplicateExponentError(f"exponent {e} appears twice")
        seen.add(key)
        terms.append((LatticeVector(e[0], e[1]), coeff))
    for m, coeff in terms:
        if coeff == 0:
            raise ZeroCoefficientError(f"zero coefficient at exponent {m}")
    return _sorted_curve(terms)
