"""The value semantics every record class of the package shares.

Records are immutable values: they compare equal only to records of the
same class with equal fields, hash like the tuple of their fields, print
as ``Name(field=value, ...)``, refuse assignment and deletion, and survive
pickle and deepcopy.  Only LatticeVector and RationalPoint are ordered.
One sample per class, with its fields in declaration order, drives the
parametrised checks.
"""

import copy
import importlib
import pickle
import re
from fractions import Fraction

import pytest

from toricbn.classify import (
    BoundarySpecialCase,
    ExpectedDimension,
    FiberOfProjection,
    HighDegree,
    LowDegreeBirational,
    MapsToFakePlane,
    NoSuchCovers,
    NotAComponent,
    ObstructedComponent,
    PairWitness,
    TripleWitness,
    Verdict,
)
from toricbn.fan import ClassGroup, FakePlane, Fan, SmoothnessReport
from toricbn.lattice import LatticePolygon, LatticeVector, Line, RationalPoint
from toricbn.newton import (
    BoundaryEdge,
    CircumscribedPolygon,
    CurveAnalysis,
    LaurentCurve,
    SupportLine,
)

v = LatticeVector
P2_RAYS = (v(-1, -1), v(1, 0), v(0, 1))
ORIGIN = RationalPoint(Fraction(0), Fraction(0))
CORNER = RationalPoint(Fraction(1), Fraction(0))
EDGE = BoundaryEdge(0, v(-1, -1), ORIGIN, CORNER, v(0, 0), v(1, 0), 1)
CURVE = LaurentCurve(((v(0, 0), Fraction(1)), (v(1, 0), Fraction(-2, 3))))
PLANE = FakePlane(P2_RAYS, True, (1, 1, 1))
FIBER = FiberOfProjection(2, (1, 3), (v(1, 0), v(-1, 0)), v(1, 0))

# every record class with the keyword arguments of one instance, in
# declaration order
SAMPLES = [
    (LatticeVector, {"x": 1, "y": 0}),
    (RationalPoint, {"x": Fraction(1, 2), "y": Fraction(3)}),
    (Line, {"normal": v(0, 1), "level": -2}),
    (LatticePolygon, {"vertices": (v(0, 0), v(1, 0), v(0, 1)), "kind": "polygon"}),
    (Fan, {"rays": P2_RAYS}),
    (SmoothnessReport, {"smooth": False, "cone_indices": (1, 3, 1)}),
    (FakePlane, {"rays": P2_RAYS, "is_projective_plane": True, "cone_indices": (1, 1, 1)}),
    (ClassGroup, {"rank": 1, "torsion": (3,), "ray_classes": ((1, 0), (1, 1), (1, 2))}),
    (LaurentCurve, {"terms": CURVE.terms}),
    (SupportLine, {"ray": v(1, 0), "line": Line(v(1, 0), 0), "argmin": (v(0, 0), v(0, 1))}),
    (BoundaryEdge, {"ray_index": 0, "ray": v(-1, -1), "start": ORIGIN, "end": CORNER,
                    "nu_minus": v(0, 0), "nu_plus": v(1, 0), "delta": None}),
    (CircumscribedPolygon, {"mu": (ORIGIN, CORNER), "edges": (EDGE,), "all_lattice": True}),
    (CurveAnalysis, {"fan": Fan(P2_RAYS), "curve": CURVE,
                     "hull": LatticePolygon((v(0, 0), v(1, 0)), "segment"),
                     "boundary": (v(0, 0), v(1, 0)), "lines": (), "smoothness":
                     SmoothnessReport(True, (1, 1, 1)), "degrees": (1, 1, 0), "genus": 0}),
    (HighDegree, {"degree": 5}),
    (FiberOfProjection, {"degree": 2, "ray_pair": (1, 3), "rays": (v(1, 0), v(-1, 0)),
                         "contracted_direction": v(1, 0)}),
    (MapsToFakePlane, {"degree": 3, "ray_triple": (0, 1, 2), "rays": P2_RAYS,
                       "fake_plane": PLANE, "primitive_certificate": (EDGE, EDGE, EDGE)}),
    (PairWitness, {"pair": (1, 3), "rays": (v(1, 0), v(-1, 0)),
                   "contracted_direction": v(1, 0)}),
    (TripleWitness, {"triple": (0, 1, 2), "rays": P2_RAYS, "fake_plane": PLANE}),
    (ExpectedDimension, {"generically_smooth": False}),
    (NoSuchCovers, {"reason": "rho(g, 1, m) = -1 < 0"}),
    (ObstructedComponent, {"family_dim": 9, "excess": 2, "witness": None}),
    (BoundarySpecialCase, {"family_dim": 6}),
    (NotAComponent, {"family_dim": 4}),
    (LowDegreeBirational, {"witness": FIBER}),
    (Verdict, {"genus": 3, "cover_degree": 2, "image_degree": 4, "expected_dim": 4,
               "outcome": NotAComponent(4)}),
]
ORDERED = (LatticeVector, RationalPoint)
by_class = pytest.mark.parametrize(
    "cls, kwargs", SAMPLES, ids=[cls.__name__ for cls, _ in SAMPLES]
)


def test_samples_cover_every_record_class():
    # the package namespace binds the name classify to the function
    modules = [importlib.import_module(f"toricbn.{name}")
               for name in ("lattice", "fan", "newton", "classify")]
    defined = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and obj.__name__ != "Record"
    }
    assert defined == {cls for cls, _ in SAMPLES}


@by_class
def test_keyword_and_positional_construction_agree(cls, kwargs):
    r = cls(**kwargs)
    assert r == cls(*kwargs.values())
    assert vars(r) == kwargs
    for name, value in kwargs.items():
        assert getattr(r, name) is value


@by_class
def test_fields_are_the_annotations_in_order(cls, kwargs):
    assert cls._fields == tuple(kwargs)


@by_class
def test_missing_unknown_or_repeated_argument_is_a_type_error(cls, kwargs):
    values = list(kwargs.values())
    if cls is not ExpectedDimension:
        with pytest.raises(TypeError):
            cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError):
        cls(values[0], **kwargs)


@by_class
def test_equality_holds_only_within_the_class(cls, kwargs):
    r = cls(**kwargs)
    assert r == cls(**kwargs)
    assert not r != cls(**kwargs)
    values = tuple(kwargs.values())
    assert r != values
    assert r.__eq__(values) is NotImplemented
    assert r != object()


@by_class
def test_a_changed_field_breaks_equality(cls, kwargs):
    r = cls(**kwargs)
    for name in kwargs:
        if cls is Line and name == "normal":
            other = cls(**{**kwargs, name: v(1, 0)})
        else:
            other = cls(**{**kwargs, name: object()})
        assert r != other


@by_class
def test_hash_is_the_hash_of_the_field_tuple(cls, kwargs):
    r = cls(**kwargs)
    assert hash(r) == hash(tuple(kwargs.values()))
    assert hash(r) == hash(cls(**kwargs))
    assert len({r, cls(**kwargs)}) == 1


@by_class
def test_repr_names_every_field_in_order(cls, kwargs):
    body = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__qualname__}({body})"


@by_class
def test_assignment_and_deletion_raise_attribute_error(cls, kwargs):
    r = cls(**kwargs)
    for name in (*kwargs, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert vars(r) == kwargs


@by_class
def test_pickle_and_deepcopy_round_trip(cls, kwargs):
    r = cls(**kwargs)
    for twin in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
        assert type(twin) is cls
        assert twin == r
        assert hash(twin) == hash(r)
        assert repr(twin) == repr(r)


@by_class
def test_only_the_two_point_classes_are_ordered(cls, kwargs):
    if cls in ORDERED:
        return
    r = cls(**kwargs)
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(r, r)


@pytest.mark.parametrize("cls", ORDERED)
def test_point_order_is_lexicographic(cls):
    a, b, c = cls(0, 5), cls(1, -3), cls(1, 2)
    assert a < b < c and c > b > a
    assert a <= b <= c and c >= b >= a
    twin = cls(1, 2)
    assert twin <= c and twin >= c
    assert not twin < c and not twin > c
    assert sorted([c, a, b]) == [a, b, c]
    assert max([b, c, a]) == c


@pytest.mark.parametrize("cls", ORDERED)
def test_point_order_refuses_other_classes(cls):
    other = RationalPoint if cls is LatticeVector else LatticeVector
    p = cls(1, 2)
    for q in (other(1, 2), (1, 2)):
        with pytest.raises(TypeError):
            p < q
        with pytest.raises(TypeError):
            p <= q
        with pytest.raises(TypeError):
            p > q
        with pytest.raises(TypeError):
            p >= q


def test_points_of_different_classes_differ():
    assert LatticeVector(1, 2) != RationalPoint(1, 2)
    assert RationalPoint(1, 2) != LatticeVector(1, 2)
    assert LatticeVector(1, 2) != (1, 2)
    assert (1, 2) != LatticeVector(1, 2)


def test_exact_reprs():
    assert repr(LatticeVector(1, 0)) == "LatticeVector(x=1, y=0)"
    assert repr(LatticeVector(x=-3, y=7)) == "LatticeVector(x=-3, y=7)"
    assert repr(RationalPoint.of(1, "1/2")) == "RationalPoint(x=Fraction(1, 1), y=Fraction(1, 2))"
    assert repr(ExpectedDimension()) == "ExpectedDimension(generically_smooth=True)"
    assert repr(Line(v(0, 1), 2)) == "Line(normal=LatticeVector(x=0, y=1), level=2)"
    assert repr(HighDegree(4)) == "HighDegree(degree=4)"


def test_default_field():
    assert ExpectedDimension() == ExpectedDimension(True) == ExpectedDimension(generically_smooth=True)
    assert ExpectedDimension.generically_smooth is True
    assert ExpectedDimension().generically_smooth is True
    assert ExpectedDimension(False) != ExpectedDimension()


def test_class_labels_are_not_fields():
    assert HighDegree(4).tag == "high_degree"
    assert PairWitness((0, 1), (v(1, 0), v(-1, 0)), v(1, 0)).kind == "pair"
    assert vars(HighDegree(4)) == {"degree": 4}


@pytest.mark.parametrize("normal", [v(2, 0), v(0, 0), v(2, -4)])
def test_line_needs_a_primitive_normal(normal):
    message = f"line normal {normal!r} must be primitive and non-zero"
    with pytest.raises(ValueError, match=re.escape(message)):
        Line(normal, 1)
    with pytest.raises(ValueError):
        Line(normal=normal, level=1)
