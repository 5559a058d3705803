"""Exact geometry of the rank two lattice.

Integer vectors, rational points, lines with primitive integer normals,
and convex lattice polygons.  Every computation is done over ``int`` or
``fractions.Fraction``; nothing here ever touches a float, so equality
tests are honest and results are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ParallelLinesError

_set = object.__setattr__


class Record:
    """An immutable value with named fields, the base of every record class.

    Fields are a subclass's own annotations, in order; a class level value
    is a default, and ``__post_init__``, when defined, checks the fields.
    Records of one class with equal fields are equal and hash alike.  Each
    method is written once here, so a record class compiles nothing.
    """

    _fields: tuple[str, ...] = ()
    __post_init__ = None

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if self.__post_init__ is not None:
            self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values, in order, from the arguments and defaults."""
        cls, names = type(self), self._fields
        values = list(args)
        for name in names[len(args):]:
            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else cls.__dict__[name])
        if kwargs or len(values) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes only the fields {names}")
        return values

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot delete {name!r}")


class LatticeVector(Record):
    """A point of Z^2, also used for ray directions and exponent vectors,
    ordered by (x, y).  The hottest record, so its methods are written out."""

    x: int
    y: int

    def __init__(self, x: int, y: int):
        _set(self, "x", x)
        _set(self, "y", y)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self):
        return hash((self.x, self.y))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.x < other.x or (self.x == other.x and self.y < other.y)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self.x < other.x or (self.x == other.x and self.y <= other.y)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self.x > other.x or (self.x == other.x and self.y > other.y)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self.x > other.x or (self.x == other.x and self.y >= other.y)
        return NotImplemented

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.x, -self.y)

    def scale(self, k: int) -> "LatticeVector":
        return LatticeVector(k * self.x, k * self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_primitive(self) -> bool:
        """True when gcd(|x|, |y|) == 1.  gcd(0, 0) == 0, so the zero
        vector is never primitive."""
        return gcd(self.x, self.y) == 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)


def vec(x: int, y: int) -> LatticeVector:
    """Shorthand constructor."""
    return LatticeVector(x, y)


def pairing(m: LatticeVector, n: LatticeVector) -> int:
    """The dual pairing <m, n> = m.x * n.x + m.y * n.y."""
    return m.x * n.x + m.y * n.y


def det2(u: LatticeVector, v: LatticeVector) -> int:
    """Determinant of the 2x2 matrix with columns u, v."""
    return u.x * v.y - u.y * v.x


def rotate_cw(v: LatticeVector) -> LatticeVector:
    """Rotate a quarter turn clockwise: (x, y) -> (y, -x).

    For a boundary line with inner normal n this is the direction in which
    the boundary is traversed counter-clockwise around the enclosed region.
    """
    return LatticeVector(v.y, -v.x)


def primitivize(v: LatticeVector) -> tuple[LatticeVector, int]:
    """Write v = k * p with k > 0 and p primitive.  Returns (p, k)."""
    k = gcd(v.x, v.y)
    if k == 0:
        raise ValueError("the zero vector has no primitive direction")
    return LatticeVector(v.x // k, v.y // k), k


def lattice_distance(a: LatticeVector, b: LatticeVector) -> int:
    """Number of primitive steps from a to b, i.e. gcd(|b.x - a.x|, |b.y - a.y|).

    Equals 1 + (number of lattice points strictly between a and b), and 0
    exactly when a == b.
    """
    return gcd(b.x - a.x, b.y - a.y)


class RationalPoint(Record):
    """A point of Q^2 with exact Fraction coordinates, ordered by (x, y)."""

    x: Fraction
    y: Fraction

    __lt__, __le__ = LatticeVector.__lt__, LatticeVector.__le__
    __gt__, __ge__ = LatticeVector.__gt__, LatticeVector.__ge__

    @staticmethod
    def of(x, y) -> "RationalPoint":
        return RationalPoint(Fraction(x), Fraction(y))

    @property
    def is_lattice(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def to_lattice(self) -> LatticeVector:
        if not self.is_lattice:
            raise ValueError(f"({self.x}, {self.y}) is not a lattice point")
        return LatticeVector(int(self.x), int(self.y))

    def translate(self, t: LatticeVector) -> "RationalPoint":
        return RationalPoint(self.x + t.x, self.y + t.y)


def rational_point_of(v: LatticeVector) -> RationalPoint:
    return RationalPoint(Fraction(v.x), Fraction(v.y))


class Line(Record):
    """The affine line { p : <p, normal> == level } with primitive normal."""

    normal: LatticeVector
    level: int

    def __post_init__(self):
        if not self.normal.is_primitive():
            raise ValueError(f"line normal {self.normal} must be primitive and non-zero")

    def value_at(self, p):
        """<p, normal> for a LatticeVector or RationalPoint p."""
        return p.x * self.normal.x + p.y * self.normal.y

    def contains(self, p) -> bool:
        return self.value_at(p) == self.level


def line_intersection(l1: Line, l2: Line) -> RationalPoint:
    """Unique intersection point of two non-parallel lines, by Cramer's rule.

    The result is rational in general; its ``is_lattice`` property reports
    whether it happens to lie on the lattice.
    """
    d = det2(l1.normal, l2.normal)
    if d == 0:
        raise ParallelLinesError(
            f"normals {l1.normal} and {l2.normal} are collinear"
        )
    x = Fraction(l1.level * l2.normal.y - l2.level * l1.normal.y, d)
    y = Fraction(l1.normal.x * l2.level - l2.normal.x * l1.level, d)
    return RationalPoint(x, y)


# ---------------------------------------------------------------------------
# convex hulls


def _turn(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    """Twice the signed area of the triangle o, a, b: positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class LatticePolygon(Record):
    """Convex hull of a finite set of lattice points.

    ``kind`` is one of "point", "segment", "polygon".  For a genuine
    polygon the vertices run counter-clockwise, starting at the
    lexicographically smallest vertex, and no vertex is redundant (three
    consecutive vertices are never collinear).  Degenerate hulls keep
    only their extreme points.
    """

    vertices: tuple[LatticeVector, ...]
    kind: str

    def edges(self) -> list[tuple[LatticeVector, LatticeVector]]:
        vs = self.vertices
        if self.kind != "polygon":
            raise ValueError("edges() only makes sense for kind == 'polygon'")
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]

    def twice_area(self) -> int:
        """Twice the enclosed area (shoelace sum), 0 for degenerate hulls."""
        if self.kind != "polygon":
            return 0
        vs = self.vertices
        return sum(det2(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def contains(self, p, strict: bool = False) -> bool:
        """Membership in the closed hull (or the open interior if strict).

        Accepts LatticeVector or RationalPoint arguments.
        """
        if self.kind == "point":
            v = self.vertices[0]
            return not strict and p.x == v.x and p.y == v.y
        if self.kind == "segment":
            if strict:
                return False
            a, b = self.vertices
            cr = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if cr != 0:
                return False
            t_num = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
            t_den = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
            return 0 <= t_num <= t_den
        vs = self.vertices
        for i in range(len(vs)):
            a, b = vs[i], vs[(i + 1) % len(vs)]
            cr = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if strict:
                if cr <= 0:
                    return False
            elif cr < 0:
                return False
        return True

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)


def convex_hull_with_boundary(points) -> tuple[LatticePolygon, tuple[LatticeVector, ...]]:
    """The convex hull, and every input point on its boundary, in one pass.

    Monotone chain with exact integer turns over the points sorted by
    (x, y).  The chains pop only on strict right turns, so input points in
    the relative interior of an edge stay on them; dropping the points
    where the boundary does not turn leaves the hull's vertices.  The
    boundary points come back sorted by (x, y).  When every input point
    lies on one line, all of them are boundary points.
    """
    by_xy = {(p.x, p.y): p for p in points}
    if not by_xy:
        raise ValueError("convex_hull of an empty set")
    keys = sorted(by_xy)
    if len(keys) == 1:
        only = by_xy[keys[0]]
        return LatticePolygon((only,), "point"), (only,)

    def half(seq):
        chain: list[tuple[int, int]] = []
        for p in seq:
            while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) < 0:
                chain.pop()
            chain.append(p)
        return chain

    cycle = half(keys)[:-1] + half(reversed(keys))[:-1]
    n = len(cycle)
    corners = [q for i, q in enumerate(cycle) if _turn(cycle[i - 1], q, cycle[(i + 1) % n]) != 0]
    if len(corners) < 3:
        # every input point is on one line; keep the two extremes
        hull = LatticePolygon((by_xy[keys[0]], by_xy[keys[-1]]), "segment")
        return hull, tuple(by_xy[k] for k in keys)
    hull = LatticePolygon(tuple(by_xy[k] for k in corners), "polygon")
    return hull, tuple(by_xy[k] for k in sorted(cycle))


def convex_hull(points) -> LatticePolygon:
    """Monotone chain hull with exact integer turns.

    Collinear boundary points are dropped, so the vertex list is minimal.
    Degenerate inputs yield kind "point" or "segment".
    """
    return convex_hull_with_boundary(points)[0]


def interior_lattice_points(poly: LatticePolygon) -> int:
    """Count lattice points strictly inside the hull by direct scan.

    This is the test oracle for Pick's count in ``pick_interior_points``:
    it shares no formula with it, and no code path of the package calls
    it.  The scan covers the bounding box, so its cost is quadratic in the
    hull's span.
    """
    if poly.kind != "polygon":
        return 0
    x0, y0, x1, y1 = poly.bounding_box()
    count = 0
    for x in range(x0 + 1, x1):
        for y in range(y0 + 1, y1):
            if poly.contains(LatticeVector(x, y), strict=True):
                count += 1
    return count


def pick_interior_points(poly: LatticePolygon) -> int:
    """Count lattice points strictly inside the hull by Pick's theorem,
    I = (2A - B + 2) / 2, from the vertices alone; 0 for a point or a
    segment.  Linear in the number of vertices."""
    if poly.kind != "polygon":
        return 0
    return (poly.twice_area() - boundary_lattice_points(poly) + 2) // 2


def boundary_lattice_points(poly: LatticePolygon) -> int:
    """Count lattice points on the boundary of the hull.

    For a segment this is every point of the hull, for a single point it
    is 1, and for a polygon it is the sum of lattice distances along the
    edge cycle.
    """
    if poly.kind == "point":
        return 1
    if poly.kind == "segment":
        a, b = poly.vertices
        return lattice_distance(a, b) + 1
    return sum(lattice_distance(a, b) for a, b in poly.edges())
