"""Property based checks of the structural identities.

Each property here is an exact combinatorial statement, so a single
counterexample is a genuine bug, never noise.
"""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import curves, lattice_vectors, nonzero_vectors, sl2_matrices, smooth_fans
from toricbn import (
    LatticeVector,
    analyze,
    arithmetic_genus,
    blow_up,
    boundary_intersections,
    boundary_lattice_points,
    build_fan,
    chart_decomposition,
    circumscribed_polygon,
    classify,
    convex_hull,
    convex_hull_with_boundary,
    curve_from_json,
    delete_rays,
    det2,
    expected_dim_maps_projective,
    fan_from_json,
    interior_lattice_points,
    lattice_distance,
    laurent_curve,
    line_witness_scan,
    newton_polygon,
    opposite_ray_pairs,
    pairing,
    pick_interior_points,
    preset,
    rho,
    rotate_cw,
    smoothness,
    to_json,
    vec,
    zero_sum_triples,
)


def apply_to_ray(A, n: LatticeVector) -> LatticeVector:
    (a, b), (c, d) = A
    return vec(a * n.x + b * n.y, c * n.x + d * n.y)


def apply_to_exponent(A, m: LatticeVector) -> LatticeVector:
    """The inverse transpose, so pairings with transformed rays match."""
    (a, b), (c, d) = A
    return vec(d * m.x - c * m.y, -b * m.x + a * m.y)


class TestLatticeProperties:
    @given(lattice_vectors, lattice_vectors, lattice_vectors)
    def test_distance_is_translation_invariant(self, a, b, t):
        assert lattice_distance(a + t, b + t) == lattice_distance(a, b)

    @given(lattice_vectors, lattice_vectors)
    def test_distance_is_symmetric(self, a, b):
        assert lattice_distance(a, b) == lattice_distance(b, a)

    @given(sl2_matrices(), lattice_vectors, lattice_vectors)
    def test_distance_is_unimodular_invariant(self, A, a, b):
        assert lattice_distance(apply_to_ray(A, a), apply_to_ray(A, b)) == lattice_distance(a, b)

    @given(lattice_vectors, nonzero_vectors)
    def test_distance_along_a_primitive_step(self, a, step):
        g = math.gcd(step.x, step.y)
        assert lattice_distance(a, a + step) == g

    @given(sl2_matrices(), lattice_vectors, lattice_vectors)
    def test_pairing_is_preserved(self, A, m, n):
        assert pairing(apply_to_exponent(A, m), apply_to_ray(A, n)) == pairing(m, n)


class TestHullProperties:
    @given(st.lists(lattice_vectors, min_size=1, max_size=12))
    def test_hull_contains_every_input_point(self, pts):
        h = convex_hull(pts)
        for p in pts:
            assert h.contains(p)

    @given(st.lists(lattice_vectors, min_size=1, max_size=12))
    def test_hull_is_idempotent(self, pts):
        h = convex_hull(pts)
        assert convex_hull(h.vertices) == h

    @given(st.lists(lattice_vectors, min_size=3, max_size=12))
    @settings(max_examples=300)
    def test_pick_identity(self, pts):
        h = convex_hull(pts)
        i = interior_lattice_points(h)
        b = boundary_lattice_points(h)
        if h.kind == "polygon":
            assert h.twice_area() == 2 * i + b - 2
        else:
            assert i == 0 and h.twice_area() == 0

    @given(st.lists(lattice_vectors, min_size=3, max_size=10), lattice_vectors)
    def test_counts_are_translation_invariant(self, pts, t):
        h1 = convex_hull(pts)
        h2 = convex_hull([p + t for p in pts])
        assert interior_lattice_points(h1) == interior_lattice_points(h2)
        assert boundary_lattice_points(h1) == boundary_lattice_points(h2)


class TestFanProperties:
    @given(smooth_fans())
    def test_rebuild_is_identity(self, fan):
        assert build_fan([r.as_tuple() for r in fan.rays]) == fan

    @given(smooth_fans())
    def test_consecutive_cones_are_positively_oriented(self, fan):
        for i in range(fan.ray_count):
            u, v = fan.cone(i)
            assert det2(u, v) >= 1

    @given(smooth_fans(), st.integers(min_value=0, max_value=20))
    def test_blow_up_then_delete_round_trips(self, fan, seed):
        i = seed % fan.ray_count
        bigger = blow_up(fan, i)
        u, v = fan.cone(i)
        j = bigger.index_of(u + v)
        keep = [k for k in range(bigger.ray_count) if k != j]
        assert delete_rays(bigger, keep) == fan

    @given(smooth_fans())
    def test_negation_preserves_smoothness(self, fan):
        assert smoothness(fan.negated()).smooth


class TestDegreeProperties:
    @given(smooth_fans(), curves())
    def test_chart_identity_on_every_ray(self, fan, curve):
        deltas = boundary_intersections(fan, curve)
        for i in range(fan.ray_count):
            a, b, c = chart_decomposition(fan, curve, i)
            assert a + b - c == deltas[i]

    @given(smooth_fans(), curves())
    def test_edges_close_up(self, fan, curve):
        poly = circumscribed_polygon(fan, curve)
        total = vec(0, 0)
        for edge in poly.edges:
            step = edge.end.translate(-edge.start.to_lattice()).to_lattice()
            assert step == rotate_cw(edge.ray).scale(edge.delta)
            total = total + step
        assert total.is_zero()

    @given(smooth_fans(), curves(), lattice_vectors)
    def test_translation_invariance(self, fan, curve, t):
        shifted = laurent_curve({(e.x + t.x, e.y + t.y): c for e, c in curve.terms})
        assert boundary_intersections(fan, curve) == boundary_intersections(fan, shifted)
        assert arithmetic_genus(curve) == arithmetic_genus(shifted)
        assert classify(fan, curve).tag == classify(fan, shifted).tag

    @given(smooth_fans(), curves(), sl2_matrices())
    @settings(max_examples=200, deadline=None)
    def test_unimodular_equivariance(self, fan, curve, A):
        new_fan = build_fan([apply_to_ray(A, n) for n in fan.rays])
        new_curve = laurent_curve(
            {apply_to_exponent(A, e).as_tuple(): c for e, c in curve.terms}
        )
        old = boundary_intersections(fan, curve)
        new = boundary_intersections(new_fan, new_curve)
        for i, n in enumerate(fan.rays):
            j = new_fan.index_of(apply_to_ray(A, n))
            assert new[j] == old[i]
        assert classify(fan, curve).tag == classify(new_fan, new_curve).tag
        assert classify(fan, curve).degree == classify(new_fan, new_curve).degree
        assert arithmetic_genus(curve) == arithmetic_genus(new_curve)
        # witnesses transport along the ray map
        old_sets = {
            frozenset(apply_to_ray(A, r).as_tuple() for r in w.rays)
            for w in line_witness_scan(fan, curve)
        }
        new_sets = {
            frozenset(r.as_tuple() for r in w.rays)
            for w in line_witness_scan(new_fan, new_curve)
        }
        assert old_sets == new_sets

    @given(smooth_fans(), curves())
    def test_degree_bounds(self, fan, curve):
        poly = circumscribed_polygon(fan, curve)
        total = sum(boundary_intersections(fan, curve))
        assert total >= 2
        assert total >= len(poly.distinct_corners())


class TestFormulaProperties:
    def test_pencil_dimension_identity(self):
        for g in range(0, 21):
            for m in range(1, 21):
                assert expected_dim_maps_projective(g, 1, m) == rho(g, 1, m) + 3

    def test_p2_degree_law(self):
        fan = preset("P2")
        for d in range(1, 7):
            support = {
                (i, j): 1 for i in range(0, d + 1) for j in range(0, d + 1 - i)
            }
            curve = laurent_curve(support)
            assert sum(boundary_intersections(fan, curve)) == 3 * d

    def test_p2_genus_law(self):
        # interior points of the d triangle: (d-1)(d-2)/2
        for d in range(1, 7):
            support = {
                (i, j): 1 for i in range(0, d + 1) for j in range(0, d + 1 - i)
            }
            curve = laurent_curve(support)
            assert arithmetic_genus(curve) == (d - 1) * (d - 2) // 2


class TestGenusVsPick:
    @given(curves(min_terms=3, max_terms=8))
    @settings(max_examples=200)
    def test_genus_matches_pick_count(self, curve):
        # interior count from Pick's identity, computed via the shoelace
        hull = convex_hull([e for e, _ in curve.terms])
        if hull.kind != "polygon":
            assert arithmetic_genus(curve) == 0
            return
        b = boundary_lattice_points(hull)
        expect = (hull.twice_area() - b + 2) // 2
        assert arithmetic_genus(curve) == expect


# rays that keep any fan containing them complete, plus small primitive
# extras; the extras make singular fans and many zero-sum triples
_ANCHORS = (vec(1, 0), vec(0, 1), vec(-1, -1))
_SMALL_PRIMITIVE = [
    vec(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1
]


@st.composite
def complete_fans(draw):
    """A complete fan, usually singular: the anchors plus random rays."""
    extra = draw(st.lists(st.sampled_from(_SMALL_PRIMITIVE), max_size=14, unique=True))
    return build_fan(list(dict.fromkeys(list(_ANCHORS) + extra)))


def _xy(v):
    return (v.x, v.y)


class TestAnalysisAgainstOracles:
    """The hull-based analysis against independent derivations."""

    @given(st.one_of(smooth_fans(), complete_fans()), curves(max_terms=12))
    def test_support_lines_match_brute_force_over_all_terms(self, fan, curve):
        pts = [m for m, _ in curve.terms]
        lines = analyze(fan, curve).lines
        assert [sl.ray for sl in lines] == list(fan.rays)
        for sl in lines:
            values = [pairing(m, sl.ray) for m in pts]
            lo = min(values)
            assert sl.line.level == lo
            assert sl.argmin == tuple(m for m, v in zip(pts, values) if v == lo)

    @given(smooth_fans(), curves(max_terms=12))
    def test_delta_formula_matches_corner_lengths(self, fan, curve):
        analysis = analyze(fan, curve)
        poly = circumscribed_polygon(fan, curve)
        lengths = tuple(
            lattice_distance(e.start.to_lattice(), e.end.to_lattice()) for e in poly.edges
        )
        assert analysis.degrees == lengths
        assert boundary_intersections(fan, curve) == lengths

    @given(complete_fans(), curves())
    def test_degrees_only_on_smooth_fans(self, fan, curve):
        analysis = analyze(fan, curve)
        assert (analysis.degrees is None) == (not smoothness(fan).smooth)

    @given(curves(min_terms=2, max_terms=12))
    def test_pick_genus_matches_interior_scan(self, curve):
        scan = interior_lattice_points(newton_polygon(curve))
        assert arithmetic_genus(curve) == scan
        assert analyze(preset("P2"), curve).genus == scan

    @given(st.lists(lattice_vectors, min_size=1, max_size=14))
    @settings(max_examples=300)
    def test_pick_count_matches_interior_scan(self, pts):
        hull = convex_hull(pts)
        assert pick_interior_points(hull) == interior_lattice_points(hull)

    @given(st.lists(st.builds(vec, st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_hull_boundary_points_match_brute_force(self, pts):
        hull, boundary = convex_hull_with_boundary(pts)
        on_boundary = {p for p in pts if hull.contains(p) and not hull.contains(p, strict=True)}
        assert list(boundary) == sorted(on_boundary, key=_xy)
        assert hull == convex_hull(pts)
        assert set(hull.vertices) <= set(boundary)

    @given(st.one_of(smooth_fans(), complete_fans()))
    @settings(max_examples=200)
    def test_pairs_and_triples_match_brute_force(self, fan):
        rays = fan.rays
        c = len(rays)
        pairs = [(i, j) for i in range(c) for j in range(i + 1, c) if (rays[i] + rays[j]).is_zero()]
        triples = [
            (i, j, k)
            for i in range(c)
            for j in range(i + 1, c)
            for k in range(j + 1, c)
            if (rays[i] + rays[j] + rays[k]).is_zero()
        ]
        assert opposite_ray_pairs(fan) == pairs
        found = zero_sum_triples(fan)
        assert [t for t, _ in found] == triples
        for (i, j, k), plane in found:
            assert plane.rays == build_fan([rays[i], rays[j], rays[k]]).rays


class TestJsonRoundTrip:
    """to_json writes the documents the parsers read: a fan and a curve come
    back equal after a trip through JSON text."""

    @given(smooth_fans())
    def test_fan(self, fan):
        assert fan_from_json(json.loads(json.dumps(to_json(fan)))) == fan

    @given(curves())
    @example(laurent_curve({(-3, 1): "-7/2", (2, -4): "5/3", (0, 0): 4}))
    def test_curve(self, curve):
        assert curve_from_json(json.loads(json.dumps(to_json(curve)))) == curve
