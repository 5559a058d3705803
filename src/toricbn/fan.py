"""Complete rational fans in the plane and their toric surface data.

A complete fan is stored as its cyclically ordered list of primitive ray
generators; the two dimensional cones are the gaps between consecutive
rays.  On top of that this module provides smoothness reports, divisor
class groups via integer Smith normal form, stellar subdivisions (blow
ups), ray deletion (birational contractions), opposite ray pairs, and the
zero sum triples that generate maps to fake projective planes.
"""

from __future__ import annotations

import functools

from .errors import (
    DomainError,
    DuplicateRayError,
    InternalContradictionError,
    LengthMismatchError,
    NonPrimitiveRayError,
    NotCompleteError,
    SchemaError,
    SingularConeError,
    SingularFanError,
    TooFewRaysError,
)
from .lattice import LatticeVector, Record, _set, det2


class Fan(Record):
    """A complete fan: primitive rays, counter-clockwise, starting at the
    lexicographically smallest ray.  Cone i is spanned by rays i and i+1
    (indices mod the ray count), and completeness guarantees that every
    consecutive determinant is positive."""

    rays: tuple[LatticeVector, ...]

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def cone(self, i: int) -> tuple[LatticeVector, LatticeVector]:
        c = len(self.rays)
        return self.rays[i % c], self.rays[(i + 1) % c]

    def index_of(self, ray: LatticeVector) -> int:
        return self.rays.index(ray)

    def negated(self) -> "Fan":
        """The fan with every ray replaced by its negative (still complete,
        and smooth exactly when this one is)."""
        return build_fan([-n for n in self.rays])


def _half_plane(v: LatticeVector) -> int:
    """0 for the open upper half plane plus the positive x axis, 1 below."""
    return 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1


def _angular_cmp(u: LatticeVector, v: LatticeVector) -> int:
    hu, hv = _half_plane(u), _half_plane(v)
    if hu != hv:
        return -1 if hu < hv else 1
    d = det2(u, v)
    if d > 0:
        return -1
    if d < 0:
        return 1
    return 0


def _coerce_ray(r) -> LatticeVector:
    if isinstance(r, LatticeVector):
        return r
    x, y = r
    return LatticeVector(int(x), int(y))


def build_fan(rays) -> Fan:
    """Validate a list of rays and normalize it into a Fan.

    Rays must arrive primitive (they are never primitivized silently),
    pairwise distinct, and at least three of them must be given.  They are
    sorted counter-clockwise with an exact comparator (half plane first,
    then determinant sign), rotated so the lexicographically smallest ray
    comes first, and the fan is rejected unless every consecutive pair has
    positive determinant, which is exactly completeness.
    """
    vs = [_coerce_ray(r) for r in rays]
    if len(vs) < 3:
        raise TooFewRaysError(f"got {len(vs)} rays, a complete fan needs at least 3")
    for v in vs:
        if not v.is_primitive():
            raise NonPrimitiveRayError(f"ray {v.as_tuple()} is not primitive")
    if len(set(vs)) != len(vs):
        seen = set()
        for v in vs:
            if v in seen:
                raise DuplicateRayError(f"ray {v.as_tuple()} appears twice")
            seen.add(v)
    vs.sort(key=functools.cmp_to_key(_angular_cmp))
    start = vs.index(min(vs))
    vs = vs[start:] + vs[:start]
    c = len(vs)
    for i in range(c):
        if det2(vs[i], vs[(i + 1) % c]) <= 0:
            raise NotCompleteError(
                f"rays {vs[i].as_tuple()} and {vs[(i + 1) % c].as_tuple()} "
                "leave an angular gap of at least a half turn"
            )
    return Fan(tuple(vs))


class SmoothnessReport(Record):
    smooth: bool
    cone_indices: tuple[int, ...]

    def require(self, what: str) -> None:
        """Raise SingularFanError, saying what needs a smooth fan, unless
        every cone index is 1."""
        if not self.smooth:
            raise SingularFanError(f"{what}, cone indices {self.cone_indices}")


def smoothness(fan: Fan) -> SmoothnessReport:
    """Index of every cone (the determinant of its two rays); the fan is
    smooth when every index is 1."""
    idx = tuple(abs(det2(*fan.cone(i))) for i in range(fan.ray_count))
    return SmoothnessReport(all(d == 1 for d in idx), idx)


def preset(name: str, a: int | None = None, n1=None, n2=None) -> Fan:
    """Named standard fans.

    P2, P1xP1 and Bl3P2 take no parameters.  Hirzebruch takes the integer
    twist a and uses rays (1,0), (0,1), (-1,a), (0,-1).  FakePlane takes
    two primitive rays n1, n2 and completes them with n3 = -n1-n2.
    """
    if name == "P2":
        return build_fan([(1, 0), (0, 1), (-1, -1)])
    if name == "P1xP1":
        return build_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])
    if name == "Hirzebruch":
        if not isinstance(a, int) or isinstance(a, bool):
            raise SchemaError("Hirzebruch preset needs an integer parameter a")
        return build_fan([(1, 0), (0, 1), (-1, a), (0, -1)])
    if name == "Bl3P2":
        return build_fan([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    if name == "FakePlane":
        if n1 is None or n2 is None:
            raise SchemaError("FakePlane preset needs rays n1 and n2")
        u, v = _coerce_ray(n1), _coerce_ray(n2)
        return build_fan([u, v, -(u + v)])
    raise SchemaError(f"unknown preset {name!r}")


def blow_up(fan: Fan, cone_index: int) -> Fan:
    """Stellar subdivision of a smooth cone: insert the sum of its rays.

    The sum of a lattice basis is primitive, so the result is again a
    valid fan, with one more ray and the chosen cone split in two.
    """
    c = fan.ray_count
    if not 0 <= cone_index < c:
        raise IndexError(f"cone index {cone_index} out of range for {c} rays")
    u, v = fan.cone(cone_index)
    if abs(det2(u, v)) != 1:
        raise SingularConeError(
            f"cone ({u.as_tuple()}, {v.as_tuple()}) has index {abs(det2(u, v))}, "
            "stellar subdivision by the ray sum needs a smooth cone"
        )
    return build_fan(list(fan.rays) + [u + v])


def _ray_index(fan: Fan) -> dict[tuple[int, int], int]:
    return {(n.x, n.y): i for i, n in enumerate(fan.rays)}


def opposite_ray_pairs(fan: Fan) -> list[tuple[int, int]]:
    """All index pairs i < j with rays[i] == -rays[j], in lexicographic
    order.  Each such pair is the fiber ray pair of a toric projection to
    the projective line."""
    index = _ray_index(fan)
    out = []
    for i, n in enumerate(fan.rays):
        j = index.get((-n.x, -n.y))
        if j is not None and j > i:
            out.append((i, j))
    return out


class FakePlane(Record):
    """Three pairwise non-collinear primitive rays summing to zero.

    This is the fan of a plane-like surface: Picard rank one, anticanonical
    degree 9 divided by the square of the common cone index.  The three
    indices coincide, as det(u, v) = det(v, w) = det(w, u) when w = -u - v;
    the surface is the honest projective plane exactly when that is 1.
    """

    rays: tuple[LatticeVector, LatticeVector, LatticeVector]
    is_projective_plane: bool
    cone_indices: tuple[int, int, int]

    def __init__(self, rays, is_projective_plane: bool, cone_indices):
        # written out: the zero sum triple scan builds one per triple
        _set(self, "rays", rays)
        _set(self, "is_projective_plane", is_projective_plane)
        _set(self, "cone_indices", cone_indices)

    def fan(self) -> Fan:
        return build_fan(self.rays)


def make_fake_plane(rays) -> FakePlane:
    """The fake plane of three primitive rays summing to zero, its rays in
    build_fan's order and |det(u, v)| as its cone index (see FakePlane).
    Primitive u, v are collinear only if v = u (so w = -2u) or v = -u (so
    w = 0), hence a primitive w makes the triple distinct and complete."""
    vs = [_coerce_ray(r) for r in rays]
    if len(vs) != 3:
        raise DomainError(f"a fake plane has exactly 3 rays, got {len(vs)}")
    if not (vs[0] + vs[1] + vs[2]).is_zero():
        raise DomainError("fake plane rays must sum to zero")
    for v in vs:
        if not v.is_primitive():
            raise NonPrimitiveRayError(f"ray {v.as_tuple()} is not primitive")
    start = vs.index(min(vs))
    u, v, w = vs[start:] + vs[:start]
    d = det2(u, v)
    if d < 0:
        v, w, d = w, v, -d
    return FakePlane((u, v, w), d == 1, (d, d, d))


def zero_sum_triples(fan: Fan) -> list[tuple[tuple[int, int, int], FakePlane]]:
    """All index triples i < j < k whose rays sum to zero, in lexicographic
    order, with their fake planes.  Each pair i < j determines its third
    ray -(n_i + n_j), which is looked up by value.
    """
    index = _ray_index(fan)
    rays = fan.rays
    out = []
    for i, u in enumerate(rays):
        for j in range(i + 1, len(rays)):
            v = rays[j]
            k = index.get((-u.x - v.x, -u.y - v.y))
            if k is not None and k > j:
                out.append(((i, j, k), make_fake_plane([u, v, rays[k]])))
    return out


def delete_rays(fan: Fan, keep) -> Fan:
    """Sub-fan on a subset of ray indices (a toric birational contraction).

    The kept rays must still form a complete fan; otherwise NotComplete
    (or TooFewRays) is raised.  The result may be singular even when the
    input fan was smooth.
    """
    keep = sorted(set(keep))
    for i in keep:
        if not 0 <= i < fan.ray_count:
            raise IndexError(f"ray index {i} out of range")
    return build_fan([fan.rays[i] for i in keep])


# ---------------------------------------------------------------------------
# divisor class group


def _smith_with_row_transform(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of the c x 2 ray matrix of a complete fan,
    tracking row operations.

    Returns (diag, u) where u is unimodular, u @ rows @ v is diagonal for
    some unimodular v (not returned), both diagonal entries are positive
    and the first divides the second.  The rays span the plane, so there
    are two pivot phases.  The only column operation that can fire is
    phase 0's, on the pivot row, the one row then nonzero in column 0, so
    it is a remainder plus a column swap; the cokernel only transforms by u.
    """
    m = len(rows)
    # each row of the matrix followed by the same row of u
    r = [[x, y] + [1 if i == j else 0 for j in range(m)] for i, (x, y) in enumerate(rows)]

    def add_row(i, j, q):
        r[i] = [x + q * y for x, y in zip(r[i], r[j])]

    def swap_columns():
        for row in r:
            row[0], row[1] = row[1], row[0]

    while True:
        for t in (0, 1):
            # smallest |entry| of the block, first in row-major order
            pivots = [(abs(r[i][j]), i, j) for i in range(t, m) for j in range(t, 2) if r[i][j]]
            if not pivots:
                raise InternalContradictionError(f"ray matrix of rank {t}, not spanning the plane")
            _, i, j = min(pivots)
            r[t], r[i] = r[i], r[t]
            if j != t:
                swap_columns()
            while True:
                # rows above t are zero in column t already
                for i in range(t + 1, m):
                    while r[i][t]:
                        add_row(i, t, -(r[i][t] // r[t][t]))
                        if r[i][t]:
                            r[i], r[t] = r[t], r[i]
                if t == 1:
                    break
                r[0][1] %= r[0][0]
                if not r[0][1]:
                    break
                swap_columns()
        for t in (0, 1):
            if r[t][t] < 0:
                r[t] = [-x for x in r[t]]
        if r[1][1] % r[0][0] == 0:
            return [r[0][0], r[1][1]], [row[2:] for row in r]
        # the pivot strictly shrinks to a gcd, so this terminates
        add_row(0, 1, 1)


class ClassGroup(Record):
    """Divisor class group Z^rank + Z/d1 + ... + Z/dk of the toric surface.

    ray_classes[i] lists the coordinates of the i-th boundary divisor in
    that decomposition, free coordinates first and then one residue per
    torsion factor.  The free basis is only canonical up to a unimodular
    change, so compare groups by rank and torsion, and ray classes only
    through invariant statements (equalities, spans, pairings).
    """

    rank: int
    torsion: tuple[int, ...]
    ray_classes: tuple[tuple[int, ...], ...]


def class_group(fan: Fan) -> ClassGroup:
    """Cokernel of the character map M -> Z^rays, m -> (<m, n_i>)_i."""
    c = fan.ray_count
    rows = [[n.x, n.y] for n in fan.rays]
    diag, u = _smith_with_row_transform(rows)
    torsion = tuple(d for d in diag if d > 1)
    torsion_rows = [j for j in (0, 1) if diag[j] > 1]
    free_rows = list(range(2, c))
    # fix the sign of each free coordinate so output is deterministic
    for j in free_rows:
        lead = next((x for x in u[j] if x != 0), 0)
        if lead < 0:
            u[j] = [-x for x in u[j]]
    ray_classes = tuple(
        tuple(u[j][i] for j in free_rows)
        + tuple(u[j][i] % diag[j] for j in torsion_rows)
        for i in range(c)
    )
    return ClassGroup(c - 2, torsion, ray_classes)


def anticanonical_pairing(fan: Fan, intersections) -> int:
    """Pair an intersection vector (one entry per ray) with -K, which is
    the sum of all boundary divisors; in other words, add it up."""
    vals = list(intersections)
    if len(vals) != fan.ray_count:
        raise LengthMismatchError(
            f"expected {fan.ray_count} entries, got {len(vals)}"
        )
    return sum(vals)


# ---------------------------------------------------------------------------
# JSON wire format


def _pair_from_json(obj, what: str) -> LatticeVector:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(t, int) and not isinstance(t, bool) for t in obj)
    ):
        raise SchemaError(f"{what} must be a pair of integers, got {obj!r}")
    return LatticeVector(obj[0], obj[1])


# the parameter keys each preset takes; every other preset takes none
_PRESET_PARAMS = {"Hirzebruch": ("a",), "FakePlane": ("n1", "n2")}


def _reject_unknown_keys(doc: dict, allowed, where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown key {key!r}")


def fan_from_json(doc) -> Fan:
    """Parse {"rays": [[x, y], ...]} or {"preset": name, ...}.

    Preset parameters: "a" for Hirzebruch, "n1"/"n2" for FakePlane.  Shape
    problems, unknown keys included, raise SchemaError; mathematically
    invalid rays raise the usual fan errors.
    """
    if not isinstance(doc, dict):
        raise SchemaError("fan document must be a JSON object")
    if "rays" in doc and "preset" in doc:
        raise SchemaError("fan document cannot have both 'rays' and 'preset'")
    if "rays" in doc:
        _reject_unknown_keys(doc, ("rays",), "fan")
        rays = doc["rays"]
        if not isinstance(rays, list):
            raise SchemaError("'rays' must be a list")
        return build_fan([_pair_from_json(r, "ray") for r in rays])
    if "preset" in doc:
        name = doc["preset"]
        if not isinstance(name, str):
            raise SchemaError("'preset' must be a string")
        _reject_unknown_keys(
            doc, ("preset", *_PRESET_PARAMS.get(name, ())), f"fan (preset {name!r})"
        )
        n1 = _pair_from_json(doc["n1"], "n1") if "n1" in doc else None
        n2 = _pair_from_json(doc["n2"], "n2") if "n2" in doc else None
        return preset(name, doc.get("a"), n1, n2)  # preset checks that a is an integer
    raise SchemaError("fan document needs either 'rays' or 'preset'")
