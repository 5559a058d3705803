"""Property based checks of the structural identities.

Each property here is an exact combinatorial statement, so a single
counterexample is a genuine bug, never noise.
"""

import contextlib
import copy
import gc
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
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
    class_group,
    classify,
    convex_hull,
    convex_hull_with_boundary,
    curve_from_json,
    delete_rays,
    det2,
    expected_dim_maps_projective,
    fan_from_json,
    interior_lattice_points,
    is_contracted_by_projection,
    lattice_distance,
    laurent_curve,
    line_witness_scan,
    make_fake_plane,
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
from toricbn.cli import _dumps, main
from toricbn.errors import DomainError, NotCompleteError


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
    @example(preset("P1xP1"), laurent_curve({(0, 0): 1, (1, 0): 2}), ((2, 1), (1, 1)))
    @example(preset("Bl3P2"), laurent_curve({(0, 0): 1, (1, 0): 1, (0, 1): 1}), ((1, 3), (0, 1)))
    @settings(max_examples=200, deadline=None)
    def test_unimodular_equivariance(self, fan, curve, A):
        new_fan = build_fan([apply_to_ray(A, n) for n in fan.rays])
        new_curve = laurent_curve(
            {apply_to_exponent(A, e).as_tuple(): c for e, c in curve.terms}
        )
        # index of each ray's image in the new fan
        index = [new_fan.index_of(apply_to_ray(A, n)) for n in fan.rays]
        old = boundary_intersections(fan, curve)
        new = boundary_intersections(new_fan, new_curve)
        for i in range(fan.ray_count):
            assert new[index[i]] == old[i]
        old_cls, new_cls = classify(fan, curve), classify(new_fan, new_curve)
        assert old_cls.tag == new_cls.tag
        assert old_cls.degree == new_cls.degree
        if old_cls.tag == "fiber_of_projection":
            assert new_cls.ray_pair == tuple(sorted(index[i] for i in old_cls.ray_pair))
        if old_cls.tag == "maps_to_fake_plane":
            assert new_cls.ray_triple == tuple(sorted(index[i] for i in old_cls.ray_triple))
            assert new_cls.fake_plane.cone_indices == old_cls.fake_plane.cone_indices
            assert {e.ray_index: e.delta for e in new_cls.primitive_certificate} == {
                index[e.ray_index]: e.delta for e in old_cls.primitive_certificate
            }
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


NINE_RAYS = [(2, -1), (-1, 2), (-1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


@st.composite
def nine_ray_blowups(draw):
    """The nine-ray fan (its triple (2,-1), (-1,2), (-1,-1) has cone index
    3) refined by up to three blow-ups."""
    fan = build_fan(NINE_RAYS)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        fan = blow_up(fan, draw(st.integers(min_value=0, max_value=20)) % fan.ray_count)
    return fan


# supports in [-2, 2]^2 make unit triangles and segments, hence witnesses, common
small_curves = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=4, unique=True
).map(lambda exps: laurent_curve(dict.fromkeys(exps, 1)))


class TestWitnessScanAgainstCorners:
    """The scan's integer tests against the corners of each candidate's
    own sub-fan, through the public API only."""

    @given(nine_ray_blowups(), small_curves)
    # sides of lattice length 1 on the index 3 triple, corners not lattice
    @example(build_fan(NINE_RAYS), laurent_curve({(0, 0): 1, (1, 0): 1, (1, 1): 1}))
    # lattice corners on the triple (1,0), (0,1), (-1,-1), sides of length 2
    @example(build_fan(NINE_RAYS), laurent_curve({(0, 0): 1, (2, 0): 1, (0, 2): 1}))
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_corner_oracle(self, fan, curve):
        expected = [
            ("pair", pair)
            for pair in opposite_ray_pairs(fan)
            if is_contracted_by_projection(curve, fan.rays[pair[0]])
        ]
        for triple, plane in zero_sum_triples(fan):
            p = circumscribed_polygon(plane.fan(), curve)
            if p.all_lattice and all(e.delta == 1 for e in p.edges):
                expected.append(("triple", triple))
        found = [
            (w.kind, w.pair if w.kind == "pair" else w.triple)
            for w in line_witness_scan(fan, curve)
        ]
        assert found == expected


@st.composite
def sublattice_fans(draw):
    """A complete fan whose rays all lie in a sublattice of index p, so
    every minor det(n_i, n_j) is divisible by p and the class group has
    torsion."""
    p = draw(st.integers(min_value=2, max_value=5))
    a = draw(st.integers(min_value=0, max_value=p - 1))
    pool = [
        vec(x, y)
        for x in range(-5, 6)
        for y in range(-5, 6)
        if math.gcd(x, y) == 1 and (x - a * y) % p == 0
    ]
    rays = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=8, unique=True))
    try:
        return build_fan(rays)
    except NotCompleteError:
        assume(False)


class TestClassGroupAgainstMinors:
    @given(st.one_of(smooth_fans(), complete_fans(), sublattice_fans()))
    @settings(max_examples=200)
    def test_torsion_is_the_gcd_of_the_minors(self, fan):
        rays = fan.rays
        g = 0
        for i, u in enumerate(rays):
            for v in rays[i + 1:]:
                g = math.gcd(g, det2(u, v))
        group = class_group(fan)
        assert group.rank == fan.ray_count - 2
        assert group.torsion == ((g,) if g > 1 else ())

    @given(st.one_of(smooth_fans(), complete_fans(), sublattice_fans()))
    @settings(max_examples=150, deadline=None)
    def test_ray_classes_are_exact(self, fan):
        """The classes D_i satisfy both character relations sum <m, n_i> D_i
        = 0 and generate Z^(c-2) + Z/g, so they present the cokernel."""
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        group = class_group(fan)
        c, r = fan.ray_count, group.rank
        g = group.torsion[0] if group.torsion else 1
        free = [cls[:r] for cls in group.ray_classes]
        tors = [cls[r] if group.torsion else 0 for cls in group.ray_classes]
        for m in (vec(1, 0), vec(0, 1)):
            weights = [pairing(m, n) for n in fan.rays]
            assert [sum(w * f[k] for w, f in zip(weights, free)) for k in range(r)] == [0] * r
            assert sum(w * t for w, t in zip(weights, tors)) % g == 0
        # the rows [F | t] and (0, ..., 0, g) span Z^(c-1) exactly when
        # every invariant factor of that (c+1) x (c-1) matrix is 1
        rows = [list(f) + [t] for f, t in zip(free, tors)] + [[0] * r + [g]]
        snf = smith_normal_form(sympy.Matrix(rows))
        assert [abs(snf[k, k]) for k in range(c - 1)] == [1] * (c - 1)


small_vectors = st.builds(vec, st.integers(-6, 6), st.integers(-6, 6))


class TestFakePlaneAgainstBuildFan:
    # a shift other than 0 makes the three rays not sum to zero
    @given(small_vectors, small_vectors, st.just(vec(0, 0)) | small_vectors, st.permutations([0, 1, 2]))
    @example(vec(1, 2), vec(1, 2), vec(0, 0), [0, 1, 2])  # u == v, so w = -2u
    @example(vec(1, 2), vec(-1, -2), vec(0, 0), [2, 0, 1])  # u == -v, so w = 0
    @example(vec(1, 0), vec(0, 1), vec(0, 1), [0, 1, 2])  # a complete fan, not zero sum
    @settings(max_examples=300)
    def test_matches_build_fan(self, u, v, shift, order):
        rays = [(u, v, shift - u - v)[i] for i in order]
        if not shift.is_zero():
            with pytest.raises(DomainError, match="must sum to zero"):
                make_fake_plane(rays)
            return
        try:
            fan = build_fan(rays)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                make_fake_plane(rays)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        plane = make_fake_plane(rays)
        report = smoothness(fan)
        assert plane.rays == fan.rays
        assert plane.cone_indices == report.cone_indices
        assert plane.is_projective_plane == report.smooth


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


# text with quotes, backslashes, control characters, non-ASCII and lone
# surrogates, which json.dumps escapes as \udxxx
json_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u00e9\u2028\ud800\udfff\U0001f600'),
    ),
    max_size=12,
)

plain_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | json_text,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(json_text, children, max_size=5),
    max_leaves=25,
)


class TestJsonWriter:
    """The CLI's one-pass writer gives the bytes of the stdlib's
    json.dumps(sort_keys=True, indent=2) on every plain value to_json can
    return."""

    @given(plain_json)
    @example([])
    @example({})
    @example({"a": [], "b": {}, "c": [[{}], {"d": [None, True, False, -1]}]})
    def test_matches_stdlib(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_leaves_no_reference_cycle(self):
        # a cycle would hold every piece of the text until the cyclic
        # collector runs, which raised the CLI's peak memory on big reports
        gc.collect()
        gc.disable()
        try:
            _dumps({"terms": [{"exp": [0, 1], "coeff": "1/2"}], "genus": None})
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_integer_past_the_digit_limit(self):
        # what makes TestOversizedInput's output cases exit 2
        big = 10 ** sys.get_int_max_str_digits()
        with pytest.raises(ValueError):
            _dumps({"genus": [big]})


GOLDEN_DOCS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.input.json"))
]
DOC_KEYS = st.sampled_from(
    ["fan", "curve", "rays", "preset", "a", "n1", "n2", "terms", "exp", "coeff", "coef",
     "genus", "cover_degree", "image_genus_branch"]
) | st.text(max_size=3)
DOC_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-4, 4)
    | st.sampled_from([2**70, -(2**70), 1.5, "1/2", "0", "-3", "x", "P2", "Hirzebruch", "FakePlane"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(DOC_KEYS, children, max_size=3),
    max_leaves=8,
)


def _containers(value) -> list:
    """Every dict and list inside a JSON value, the value itself first."""
    if isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, list):
        inner = value
    else:
        return []
    return [value] + [c for item in inner for c in _containers(item)]


@st.composite
def mutated_documents(draw) -> dict:
    """A golden input document with one to three random edits, each one
    replacing, deleting or inserting an entry of some dict or list."""
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(_containers(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "replace", "delete", "insert"]))
        if action == "insert" or not keys:
            if isinstance(node, dict):
                node[draw(DOC_KEYS)] = draw(DOC_VALUES)
            else:
                node.insert(draw(st.integers(0, len(node))), draw(DOC_VALUES))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            key = draw(st.sampled_from(keys))
            # a small integer for an integer keeps the shape, so the edit
            # reaches the math (non-primitive rays, zero coefficients, ...)
            small = type(node[key]) is int and draw(st.booleans())
            node[key] = draw(st.integers(-3, 3) if small else DOC_VALUES)
    return doc


class TestCliFuzz:
    """Mutated documents through main(): every outcome is a report or one
    error line with a known exit code, never a traceback."""

    @given(
        st.sampled_from(["fan-check", "degree", "classify", "verdict"]),
        st.booleans(),
        mutated_documents(),
    )
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents(self, command, as_json, doc):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "-"] + (["--json"] if as_json else []))
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2, 3, 4)
        if code == 0:
            assert err.getvalue() == ""
            if as_json:
                json.loads(out.getvalue())
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().split("\n")
            assert len(lines) == 2 and lines[0].startswith("toricbn: ") and lines[1] == ""
