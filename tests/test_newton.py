"""Newton polygons, support lines, circumscribed polygons, boundary degrees.

All the expected numbers below were first worked out by hand: support
levels are minimized pairings, the corners come from solving the 2x2
linear systems, and the side lengths are coordinate gcds.
"""

from fractions import Fraction

import pytest

from toricbn import (
    DuplicateExponentError,
    RationalPoint,
    SchemaError,
    SingularFanError,
    TooFewTermsError,
    ZeroCoefficientError,
    ZeroCoordinateError,
    anticanonical_degree,
    arithmetic_genus,
    blow_up,
    boundary_intersections,
    build_fan,
    chart_decomposition,
    circumscribed_polygon,
    curve_from_json,
    evaluate,
    is_contracted_by_projection,
    is_fiber_of,
    is_singular_at,
    laurent_curve,
    newton_polygon,
    preset,
    rational_point_of,
    support,
    support_lines,
    to_json,
    vec,
)

SQUARE = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
CUBIC_NODAL = {(2, 1): 1, (1, 2): 1, (1, 1): -3, (0, 0): 1}


def pt(x, y):
    return RationalPoint.of(Fraction(x), Fraction(y))


class TestCurveConstruction:
    def test_terms_sorted(self):
        c = laurent_curve({(1, 1): 2, (0, 0): 1, (-1, 3): "1/2"})
        assert support(c) == (vec(-1, 3), vec(0, 0), vec(1, 1))
        assert c.coefficient(vec(-1, 3)) == Fraction(1, 2)
        assert c.coefficient(vec(5, 5)) == 0

    def test_zero_coefficient(self):
        with pytest.raises(ZeroCoefficientError):
            laurent_curve({(0, 0): 0, (1, 0): 1})

    def test_too_few_terms(self):
        with pytest.raises(TooFewTermsError):
            laurent_curve({(0, 0): 1})

    def test_duplicate_exponent(self):
        with pytest.raises(DuplicateExponentError):
            laurent_curve({(0, 0): 1, vec(0, 0): 2, (1, 0): 1})


class TestSquareOnP2:
    """1 + x + y + xy on the projective plane."""

    def setup_method(self):
        self.fan = preset("P2")
        self.curve = laurent_curve(SQUARE)

    def test_support_levels(self):
        lines = support_lines(self.fan, self.curve)
        # fan order is (-1,-1), (1,0), (0,1)
        assert [sl.line.level for sl in lines] == [-2, 0, 0]
        assert [len(sl.argmin) for sl in lines] == [1, 2, 2]

    def test_corners(self):
        poly = circumscribed_polygon(self.fan, self.curve)
        assert [(p.x, p.y) for p in poly.mu] == [(0, 2), (0, 0), (2, 0)]
        assert poly.all_lattice

    def test_degrees(self):
        assert boundary_intersections(self.fan, self.curve) == (2, 2, 2)
        assert anticanonical_degree(self.fan, self.curve) == 6

    def test_chart(self):
        i = self.fan.index_of(vec(1, 0))
        assert chart_decomposition(self.fan, self.curve, i) == (1, 2, 1)

    def test_genus_zero(self):
        assert arithmetic_genus(self.curve) == 0

    def test_extreme_contacts_sit_inside_corners(self):
        poly = circumscribed_polygon(self.fan, self.curve)
        for edge in poly.edges:
            a = edge.nu_minus
            b = edge.nu_plus
            # both contact points are support points on the edge's line
            assert self.curve.coefficient(a) != 0
            assert self.curve.coefficient(b) != 0


class TestConicOnBlowUp:
    """The same square support on the plane blown up at one torus-fixed
    point drops one boundary degree, the full triangle keeps all six."""

    def setup_method(self):
        self.fan = build_fan([(-1, -1), (1, 0), (1, 1), (0, 1)])

    def test_fan_is_a_blow_up(self):
        assert blow_up(preset("P2"), 1) == self.fan

    def test_conic_through_the_point(self):
        # no constant term, so the curve passes through the blown-up
        # torus-fixed point and meets the exceptional divisor once
        curve = laurent_curve({(1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1})
        assert boundary_intersections(self.fan, curve) == (2, 1, 1, 1)
        assert anticanonical_degree(self.fan, curve) == 5

    def test_full_triangle_misses_the_point(self):
        curve = laurent_curve(
            {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1}
        )
        assert boundary_intersections(self.fan, curve) == (2, 2, 0, 2)
        assert anticanonical_degree(self.fan, curve) == 6

    def test_square_support_also_misses_the_point(self):
        curve = laurent_curve(SQUARE)
        assert boundary_intersections(self.fan, curve) == (2, 2, 0, 2)


class TestFiberOnP1xP1:
    def test_vertical_fiber(self):
        fan = preset("P1xP1")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1})
        # fan order (-1,0), (0,-1), (1,0), (0,1)
        assert boundary_intersections(fan, curve) == (0, 1, 0, 1)
        assert is_fiber_of(curve, fan) == [(1, 3)]
        assert is_contracted_by_projection(curve, vec(0, 1))
        assert not is_contracted_by_projection(curve, vec(1, 0))

    def test_degenerate_corner_cycle(self):
        fan = preset("P1xP1")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1})
        poly = circumscribed_polygon(fan, curve)
        assert [(p.x, p.y) for p in poly.mu] == [(1, 0), (0, 0), (0, 0), (1, 0)]
        assert len(poly.distinct_corners()) == 2

    def test_single_direction_support_line(self):
        fan = preset("P1xP1")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1})
        sl = support_lines(fan, curve)[fan.index_of(vec(1, 0))]
        assert sl.line.level == 0
        assert {m.as_tuple() for m in sl.argmin} == {(0, 0)}

    def test_square_is_contracted_by_nothing(self):
        curve = laurent_curve(SQUARE)
        for ray in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert not is_contracted_by_projection(curve, vec(*ray))


class TestCremonaTriangleOnBl3P2:
    """x + y + xy on the del Pezzo of degree six."""

    def setup_method(self):
        self.fan = preset("Bl3P2")
        self.curve = laurent_curve({(1, 0): 1, (0, 1): 1, (1, 1): 1})

    def test_mu_cycle(self):
        poly = circumscribed_polygon(self.fan, self.curve)
        got = [(p.x, p.y) for p in poly.mu]
        assert got == [(1, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1)]

    def test_deltas(self):
        assert boundary_intersections(self.fan, self.curve) == (0, 1, 0, 1, 0, 1)
        assert anticanonical_degree(self.fan, self.curve) == 3

    def test_distinct_corners(self):
        poly = circumscribed_polygon(self.fan, self.curve)
        assert len(poly.distinct_corners()) == 3

    def test_unit_edge_chart(self):
        i = self.fan.index_of(vec(1, 1))
        assert chart_decomposition(self.fan, self.curve, i) == (1, 1, 1)

    def test_degenerate_edge_chart(self):
        # the edge for (-1,-1) collapses to a point, so all three
        # distances vanish
        i = self.fan.index_of(vec(-1, -1))
        assert boundary_intersections(self.fan, self.curve)[i] == 0
        assert chart_decomposition(self.fan, self.curve, i) == (0, 0, 0)


class TestNodalCubicBothOrientations:
    """x^2 y + x y^2 - 3xy + 1 on the two nine-ray fans."""

    def test_orientation_fixed_fan(self):
        fan = build_fan(
            [(2, -1), (-1, 2), (-1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        )
        curve = laurent_curve(CUBIC_NODAL)
        deltas = boundary_intersections(fan, curve)
        assert sum(deltas) == 3
        positive = {fan.rays[i].as_tuple() for i, d in enumerate(deltas) if d > 0}
        assert positive == {(2, -1), (-1, 2), (-1, -1)}
        assert arithmetic_genus(curve) == 1

    def test_printed_fan(self):
        fan = build_fan(
            [(-2, 1), (1, -2), (1, 1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        )
        curve = laurent_curve(CUBIC_NODAL)
        deltas = boundary_intersections(fan, curve)
        assert sum(deltas) == 6
        assert sorted(d for d in deltas if d > 0) == [1, 1, 1, 1, 1, 1]

    def test_chart_on_the_fixed_fan(self):
        fan = build_fan(
            [(2, -1), (-1, 2), (-1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        )
        curve = laurent_curve(CUBIC_NODAL)
        i = fan.index_of(vec(2, -1))
        a, b, c = chart_decomposition(fan, curve, i)
        assert a + b - c == boundary_intersections(fan, curve)[i]

    def test_antidiagonal_support_line(self):
        fan = build_fan(
            [(2, -1), (-1, 2), (-1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        )
        curve = laurent_curve(CUBIC_NODAL)
        sl = support_lines(fan, curve)[fan.index_of(vec(-1, -1))]
        assert sl.line.level == -3
        assert {m.as_tuple() for m in sl.argmin} == {(2, 1), (1, 2)}


class TestSingularFan:
    def setup_method(self):
        self.fan = preset("FakePlane", n1=(2, -1), n2=(-1, 2))
        self.curve = laurent_curve({(0, 0): 1, (1, 0): 1})

    def test_rational_corner(self):
        poly = circumscribed_polygon(self.fan, self.curve)
        corners = {(p.x, p.y) for p in poly.mu}
        assert (Fraction(1, 3), Fraction(2, 3)) in corners
        assert not poly.all_lattice

    def test_intersections_refuse(self):
        with pytest.raises(SingularFanError):
            boundary_intersections(self.fan, self.curve)
        with pytest.raises(SingularFanError):
            chart_decomposition(self.fan, self.curve, 0)


class TestEvaluate:
    def test_value_and_derivatives(self):
        curve = laurent_curve(CUBIC_NODAL)
        p = rational_point_of(vec(1, 1))
        assert evaluate(curve, p, "value") == 0
        assert evaluate(curve, p, "dx") == 0
        assert evaluate(curve, p, "dy") == 0
        assert is_singular_at(curve, p)

    def test_variant_is_smooth_there(self):
        curve = laurent_curve({(2, 1): 1, (1, 2): 1, (1, 1): -1, (0, 0): 1})
        p = rational_point_of(vec(1, 1))
        assert evaluate(curve, p, "value") == 2
        assert not is_singular_at(curve, p)

    def test_rational_point(self):
        curve = laurent_curve({(0, 0): 1, (1, 0): 1})
        assert evaluate(curve, pt(Fraction(-1, 2), 3)) == Fraction(1, 2)
        assert evaluate(curve, pt(Fraction(-1, 2), 3), "dx") == 1
        assert evaluate(curve, pt(Fraction(-1, 2), 3), "dy") == 0
        assert evaluate(curve, pt(-1, 5)) == 0

    def test_laurent_terms_need_nonzero_coordinates(self):
        curve = laurent_curve({(-1, 0): 1, (0, 0): 1})
        with pytest.raises(ZeroCoordinateError):
            evaluate(curve, pt(0, 1))

    def test_unknown_derivative(self):
        curve = laurent_curve(SQUARE)
        with pytest.raises(ValueError):
            evaluate(curve, pt(1, 1), "dz")


class TestTranslationInvariance:
    def test_degrees_ignore_monomial_shifts(self):
        fan = preset("Bl3P2")
        base = laurent_curve(CUBIC_NODAL)
        shifted = laurent_curve({(e.x - 2, e.y + 1): c for e, c in base.terms})
        assert boundary_intersections(fan, base) == boundary_intersections(fan, shifted)
        assert arithmetic_genus(base) == arithmetic_genus(shifted)


class TestNewtonPolygon:
    def test_hull_and_genus(self):
        curve = laurent_curve(CUBIC_NODAL)
        hull = newton_polygon(curve)
        assert hull.kind == "polygon"
        assert set(v.as_tuple() for v in hull.vertices) == {(0, 0), (2, 1), (1, 2)}
        assert arithmetic_genus(curve) == 1

    def test_segment_curve(self):
        curve = laurent_curve({(0, 0): 1, (2, 2): 1})
        assert newton_polygon(curve).kind == "segment"
        assert arithmetic_genus(curve) == 0

    def test_unimodular_triangle(self):
        curve = laurent_curve({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert arithmetic_genus(curve) == 0


class TestCurveJson:
    def test_round_trip(self):
        curve = laurent_curve({(2, 1): 1, (0, 0): "-3/2", (-1, 4): 7})
        doc = to_json(curve)
        assert curve_from_json(doc) == curve
        # coefficients serialize as exact strings
        coeffs = {tuple(t["exp"]): t["coeff"] for t in doc["terms"]}
        assert coeffs[(0, 0)] == "-3/2"
        assert coeffs[(2, 1)] == "1"

    def test_default_coefficient_is_one(self):
        curve = curve_from_json({"terms": [{"exp": [0, 0]}, {"exp": [1, 0]}]})
        assert curve.coefficient(vec(0, 0)) == 1

    def test_schema_errors(self):
        for doc in (
            [],
            {},
            {"terms": "x"},
            {"terms": [{"exp": [0, 0]}, {"exp": [1]}]},
            {"terms": [{"exp": [0, 0]}, {"exp": [1, 0], "coeff": 1.5}]},
            {"terms": [{"exp": [0, 0]}, {"exp": [1, 0], "coeff": True}]},
            {"terms": [{"exp": [0, 0]}, {"exponent": [1, 0]}]},
        ):
            with pytest.raises(SchemaError):
                curve_from_json(doc)

    def test_math_errors_keep_their_type(self):
        with pytest.raises(DuplicateExponentError):
            curve_from_json({"terms": [{"exp": [0, 0]}, {"exp": [0, 0]}]})
        with pytest.raises(TooFewTermsError):
            curve_from_json({"terms": [{"exp": [0, 0]}]})
