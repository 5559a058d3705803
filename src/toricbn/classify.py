"""Low degree classification and moduli dimension arithmetic.

The classifier sorts a curve on a smooth complete fan by its anticanonical
degree.  Degree at least 4 carries no special structure.  Degree 2 forces
a degenerate circumscribed polygon with two opposite unit sides, so the
curve is a fiber of a toric projection to the projective line.  Degree 3
forces three unit sides on rays summing to zero, so the curve maps to a
line class on a plane like surface (an honest P2 or a quotient fake
plane).  Degrees 0 and 1 cannot occur at all.

The second half implements the dimension bookkeeping for families of maps
from curves: the classical Brill-Noether number, expected dimensions of
map spaces to projective space and to surfaces, Severi style counts, and
the verdict logic for multiple cover families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import DomainError, InternalContradictionError
from .fan import Fan, FakePlane, make_fake_plane, opposite_ray_pairs, zero_sum_triples
from .lattice import LatticeVector, RationalPoint
from .newton import (
    BoundaryEdge,
    CurveAnalysis,
    LaurentCurve,
    analyze,
    is_contracted_by_projection,
)

# ---------------------------------------------------------------------------
# classification of low degree curves


@dataclass(frozen=True)
class HighDegree:
    """Anticanonical degree at least 4; no forced degeneration."""

    degree: int

    tag = "high_degree"


@dataclass(frozen=True)
class FiberOfProjection:
    """Degree 2: the curve is contracted by the projection along an
    opposite ray pair, i.e. it is a fiber of a map to the projective line."""

    degree: int
    ray_pair: tuple[int, int]
    rays: tuple[LatticeVector, LatticeVector]
    contracted_direction: LatticeVector

    tag = "fiber_of_projection"


@dataclass(frozen=True)
class MapsToFakePlane:
    """Degree 3: the circumscribed polygon is a unit triangle on a zero sum
    ray triple, so contracting every other ray maps the curve to a curve of
    primitive class on a plane like surface."""

    degree: int
    ray_triple: tuple[int, int, int]
    rays: tuple[LatticeVector, LatticeVector, LatticeVector]
    fake_plane: FakePlane
    primitive_certificate: tuple[BoundaryEdge, BoundaryEdge, BoundaryEdge]

    tag = "maps_to_fake_plane"


Classification = HighDegree | FiberOfProjection | MapsToFakePlane


def classify(fan: Fan, curve: LaurentCurve) -> Classification:
    """Classify by total boundary degree, with certified witnesses.

    The structural checks in the low degree branches are consequences of
    convexity (side vectors close up to zero), so a failure there raises
    InternalContradictionError rather than reporting bad input.
    """
    return _classify(analyze(fan, curve))


def _classify(analysis: CurveAnalysis) -> Classification:
    analysis.smoothness.require("classification needs a smooth fan")
    fan, curve = analysis.fan, analysis.curve
    deltas = list(analysis.degrees)
    total = sum(deltas)
    positive = [i for i, d in enumerate(deltas) if d > 0]

    # parity guard: two positive sides are opposite translates of each
    # other, hence of equal length, hence the total is even
    if len(positive) == 2 and total % 2 != 0:
        raise InternalContradictionError(
            f"two positive sides with odd total degree {total}"
        )
    if total < 2:
        raise InternalContradictionError(
            f"total boundary degree {total} below 2 for a two term curve"
        )

    if total >= 4:
        return HighDegree(total)

    if total == 2:
        if len(positive) != 2 or any(deltas[i] != 1 for i in positive):
            raise InternalContradictionError(
                f"degree 2 without two unit sides: deltas {deltas}"
            )
        i, j = positive
        if fan.rays[i] != -fan.rays[j]:
            raise InternalContradictionError(
                f"degree 2 unit sides on non-opposite rays {fan.rays[i]}, {fan.rays[j]}"
            )
        direction = fan.rays[i]
        if not is_contracted_by_projection(curve, direction):
            raise InternalContradictionError(
                "degenerate polygon but the support pairing is not constant"
            )
        return FiberOfProjection(
            degree=2,
            ray_pair=(i, j),
            rays=(fan.rays[i], fan.rays[j]),
            contracted_direction=direction,
        )

    # total == 3
    if len(positive) != 3 or any(deltas[i] != 1 for i in positive):
        raise InternalContradictionError(
            f"degree 3 without three unit sides: deltas {deltas}"
        )
    i, j, k = positive
    if not (fan.rays[i] + fan.rays[j] + fan.rays[k]).is_zero():
        raise InternalContradictionError(
            f"degree 3 unit sides on rays not summing to zero: "
            f"{fan.rays[i]}, {fan.rays[j]}, {fan.rays[k]}"
        )
    plane = make_fake_plane((fan.rays[i], fan.rays[j], fan.rays[k]))
    edges = analysis.circumscribed().edges
    return MapsToFakePlane(
        degree=3,
        ray_triple=(i, j, k),
        rays=(fan.rays[i], fan.rays[j], fan.rays[k]),
        fake_plane=plane,
        primitive_certificate=(edges[i], edges[j], edges[k]),
    )


@dataclass(frozen=True)
class PairWitness:
    """An opposite ray pair whose projection contracts the curve."""

    pair: tuple[int, int]
    rays: tuple[LatticeVector, LatticeVector]
    contracted_direction: LatticeVector

    kind = "pair"


@dataclass(frozen=True)
class TripleWitness:
    """A zero sum triple for which the circumscribed polygon taken with
    respect to the triple alone is a unit side triangle, i.e. the curve
    maps to a primitive class on that fake plane."""

    triple: tuple[int, int, int]
    rays: tuple[LatticeVector, LatticeVector, LatticeVector]
    fake_plane: FakePlane

    kind = "triple"


Witness = PairWitness | TripleWitness


def line_witness_scan(fan: Fan, curve: LaurentCurve) -> list[Witness]:
    """Exhaustive scan over all contraction witnesses of the fan.

    Every opposite ray pair is tested for contraction of the curve, and
    every zero sum triple is tested for the unit triangle property of the
    curve's circumscribed polygon with respect to the triple's own fan.
    The classifier's certificate, when present, always shows up here.
    The triple tests reuse the curve's hull and build rational corners,
    since a triple's sub-fan may be singular.
    """
    analysis = analyze(fan, curve)
    analysis.smoothness.require("witness scan needs a smooth host fan")
    found: list[Witness] = []
    for (i, j) in opposite_ray_pairs(fan):
        if is_contracted_by_projection(curve, fan.rays[i]):
            found.append(
                PairWitness((i, j), (fan.rays[i], fan.rays[j]), fan.rays[i])
            )
    for (triple, plane) in zero_sum_triples(fan):
        poly = analysis.on(plane.fan()).circumscribed()
        if poly.all_lattice and all(e.delta == 1 for e in poly.edges):
            found.append(
                TripleWitness(triple, plane.rays, plane)
            )
    return found


# ---------------------------------------------------------------------------
# dimension formulas


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def rho(genus: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g - d + r)."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    _require(r >= 1, f"r must be >= 1, got {r}")
    _require(d >= 0, f"d must be >= 0, got {d}")
    return genus - (r + 1) * (genus - d + r)


def expected_dim_maps_projective(genus: int, r: int, d: int) -> int:
    """Expected dimension (r+1)d + r(1-g) of the space of non-degenerate
    degree d maps from genus g curves to r dimensional projective space."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    _require(r >= 1, f"r must be >= 1, got {r}")
    _require(d >= 0, f"d must be >= 0, got {d}")
    return (r + 1) * d + r * (1 - genus)


def expected_dim_maps_surface(genus: int, deg_k: int) -> int:
    """Expected dimension deg_k + 2(1-g) of the space of maps from genus g
    curves to a surface, where deg_k is the pairing of the pushed forward
    class with the anticanonical divisor."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    return deg_k + 2 * (1 - genus)


def severi_dim(genus: int, deg_k: int) -> int:
    """Dimension deg_k + g - 1 of the corresponding Severi style locus of
    images; exceeds the map count by exactly 3g - 3 forgotten moduli."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    return deg_k + genus - 1


def farkas_expected_dim(genus: int, r: int, deg_k_y: int) -> int:
    """Expected dimension deg_k_y + r(1-g) for maps to an r-fold with
    anticanonical pairing deg_k_y against the pushed forward class."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    _require(r >= 1, f"r must be >= 1, got {r}")
    return deg_k_y + r * (1 - genus)


def multiple_cover_excess(genus: int, m: int, image_deg_k: int) -> int:
    """g - (m-1)(image_deg_k - 2): by how much the locus of degree m covers
    of a fixed image class exceeds the expected dimension."""
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    _require(m >= 2, f"cover degree must be >= 2, got {m}")
    _require(image_deg_k >= 2, f"image degree must be >= 2, got {image_deg_k}")
    return genus - (m - 1) * (image_deg_k - 2)


# ---------------------------------------------------------------------------
# verdicts for cover families


@dataclass(frozen=True)
class ExpectedDimension:
    """Birational onto a degree >= 4 image: the family is a generically
    smooth component of expected dimension."""

    generically_smooth: bool = True

    tag = "expected_dimension"


@dataclass(frozen=True)
class NoSuchCovers:
    """The requested covers do not exist for a general image curve."""

    reason: str

    tag = "no_such_covers"


@dataclass(frozen=True)
class ObstructedComponent:
    """The cover family exceeds the expected dimension, so it closes up to
    an obstructed component of the map space."""

    family_dim: int
    excess: int
    witness: Classification | None

    tag = "obstructed_component"


@dataclass(frozen=True)
class BoundarySpecialCase:
    """The equality case image degree 4, g = 2m - 2: the cover family has
    exactly the expected dimension 6 without being ruled out."""

    family_dim: int

    tag = "boundary_special_case"


@dataclass(frozen=True)
class NotAComponent:
    """The cover family is too small to dominate a component."""

    family_dim: int

    tag = "not_a_component"


@dataclass(frozen=True)
class LowDegreeBirational:
    """Birational onto an image of anticanonical degree at most 3; the
    degeneration witness, when toric input was given, explains why the
    general dimension count does not apply."""

    witness: Classification | None

    tag = "low_degree_birational"


Outcome = (
    ExpectedDimension
    | NoSuchCovers
    | ObstructedComponent
    | BoundarySpecialCase
    | NotAComponent
    | LowDegreeBirational
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of the cover family analysis plus the input arithmetic.

    expected_dim is m * image_degree + 2 - 2g, the expected dimension of
    the map space for the pushed forward class of the degree m cover.
    """

    genus: int
    cover_degree: int
    image_degree: int
    expected_dim: int
    outcome: Outcome


def bn_verdict(
    genus: int,
    cover_degree: int,
    *,
    fan: Fan | None = None,
    curve: LaurentCurve | None = None,
    image_degree: int | None = None,
    image_genus: int = 0,
) -> Verdict:
    """Decide what the family of degree m covers of a fixed image class
    contributes to the space of genus g maps.

    Two input modes: pass a (fan, curve) pair and the image degree is the
    curve's anticanonical degree with the classification attached as a
    witness, or pass image_degree directly for formula only arithmetic.
    image_genus selects the genus 0 or the genus 1 image branch for cover
    degrees m >= 2; birational maps (m == 1) ignore it.
    """
    _require(genus >= 0, f"genus must be >= 0, got {genus}")
    _require(cover_degree >= 1, f"cover degree must be >= 1, got {cover_degree}")
    _require(image_genus in (0, 1), f"image_genus must be 0 or 1, got {image_genus}")

    witness: Classification | None = None
    if fan is not None or curve is not None:
        _require(
            fan is not None and curve is not None,
            "toric mode needs both a fan and a curve",
        )
        _require(
            image_degree is None,
            "pass either toric data or an explicit image_degree, not both",
        )
        analysis = analyze(fan, curve)
        image_degree = sum(analysis.intersections())
        witness = _classify(analysis)
    else:
        _require(image_degree is not None, "image_degree is required without toric data")
        _require(image_degree >= 2, f"image degree must be >= 2, got {image_degree}")

    m = cover_degree
    expected = m * image_degree + 2 - 2 * genus

    if m == 1:
        if image_degree >= 4:
            outcome: Outcome = ExpectedDimension()
        else:
            outcome = LowDegreeBirational(witness)
    elif image_genus == 0:
        r = rho(genus, 1, m)
        if r < 0:
            outcome = NoSuchCovers(
                f"rho(g, 1, m) = {r} < 0: a general genus {genus} curve "
                f"carries no degree {m} pencil"
            )
        else:
            family_dim = (2 * m - genus + 1) + (image_degree - 1)
            excess = multiple_cover_excess(genus, m, image_degree)
            if excess > 0:
                outcome = ObstructedComponent(family_dim, excess, witness)
            elif excess == 0 and image_degree == 4 and genus == 2 * m - 2:
                outcome = BoundarySpecialCase(family_dim)
            else:
                outcome = NotAComponent(family_dim)
    else:
        if genus != 1:
            outcome = NoSuchCovers(
                f"a general genus {genus} curve admits no maps to a genus 1 curve"
            )
        else:
            outcome = NotAComponent(image_degree)

    return Verdict(genus, m, image_degree, expected, outcome)


# ---------------------------------------------------------------------------
# JSON wire format


_SCALARS = frozenset((int, str, bool, type(None)))


def to_json(obj):
    """Plain JSON value of a report, a record or a list of them.

    Lists, tuples and dicts are converted item by item.  A LatticeVector is
    [x, y], a RationalPoint [x, y] of exact 'p/q' strings, a Fraction its
    exact string and a LaurentCurve the {"terms": [{"exp", "coeff"}]}
    document that curve_from_json reads back.  A Verdict is one flat object:
    its outcome's tag, its own fields, then the outcome's fields.  Any other
    dataclass gives its class's tag or kind attribute first, then its fields
    in declaration order; a fan is therefore {"rays": [...]}, the document
    fan_from_json reads back.
    """
    t = type(obj)
    if t is list or t is tuple:
        return [x if type(x) in _SCALARS else to_json(x) for x in obj]
    if t is LatticeVector:
        return [obj.x, obj.y]
    if t in _SCALARS:
        return obj
    if t is dict:
        return {k: v if type(v) in _SCALARS else to_json(v) for k, v in obj.items()}
    if t is RationalPoint:
        return [str(obj.x), str(obj.y)]
    if t is Fraction:
        return str(obj)
    if t is LaurentCurve:
        return {"terms": [{"exp": [m.x, m.y], "coeff": str(c)} for m, c in obj.terms]}
    head, names = _layout(t)
    doc = dict(head)
    for name in names:
        v = getattr(obj, name)
        doc[name] = v if type(v) in _SCALARS else to_json(v)
    if t is Verdict:
        outcome = doc.pop("outcome")
        return {"tag": outcome.pop("tag"), **doc, **outcome}
    return doc


@functools.cache
def _layout(cls) -> tuple[dict, tuple[str, ...]]:
    """The class attribute labels and the field names of a dataclass."""
    names = tuple(f.name for f in fields(cls))
    return {k: getattr(cls, k) for k in ("tag", "kind") if hasattr(cls, k)}, names
