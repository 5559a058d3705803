"""Low degree classification, witness scans, and cover family verdicts."""

import pytest

from toricbn import (
    BoundarySpecialCase,
    DomainError,
    ExpectedDimension,
    FiberOfProjection,
    HighDegree,
    LowDegreeBirational,
    MapsToFakePlane,
    NoSuchCovers,
    NotAComponent,
    ObstructedComponent,
    PairWitness,
    SingularFanError,
    TripleWitness,
    bn_verdict,
    build_fan,
    classify,
    expected_dim_maps_projective,
    expected_dim_maps_surface,
    farkas_expected_dim,
    laurent_curve,
    line_witness_scan,
    multiple_cover_excess,
    preset,
    rho,
    severi_dim,
    to_json,
    vec,
)

NINE_RAY_FIXED = [
    (2, -1), (-1, 2), (-1, -1),
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
]
CUBIC_NODAL = {(2, 1): 1, (1, 2): 1, (1, 1): -3, (0, 0): 1}


class TestClassify:
    def test_high_degree(self):
        fan = preset("P2")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        cls = classify(fan, curve)
        assert isinstance(cls, HighDegree)
        assert cls.tag == "high_degree"
        assert cls.degree == 6

    def test_fiber(self):
        fan = preset("P1xP1")
        cls = classify(fan, laurent_curve({(0, 0): 1, (1, 0): 1}))
        assert isinstance(cls, FiberOfProjection)
        assert cls.degree == 2
        assert {r.as_tuple() for r in cls.rays} == {(0, 1), (0, -1)}
        assert cls.contracted_direction in cls.rays
        assert cls.ray_pair == (1, 3)

    def test_horizontal_fiber(self):
        fan = preset("P1xP1")
        cls = classify(fan, laurent_curve({(0, 0): 1, (0, 1): 1}))
        assert isinstance(cls, FiberOfProjection)
        assert {r.as_tuple() for r in cls.rays} == {(1, 0), (-1, 0)}

    def test_cremona_conic(self):
        fan = preset("Bl3P2")
        cls = classify(fan, laurent_curve({(1, 0): 1, (0, 1): 1, (1, 1): 1}))
        assert isinstance(cls, MapsToFakePlane)
        assert cls.degree == 3
        assert {r.as_tuple() for r in cls.rays} == {(1, 1), (-1, 0), (0, -1)}
        assert cls.fake_plane.is_projective_plane
        assert len(cls.primitive_certificate) == 3
        for edge in cls.primitive_certificate:
            assert edge.delta == 1

    def test_nodal_cubic_on_fixed_fan(self):
        fan = build_fan(NINE_RAY_FIXED)
        cls = classify(fan, laurent_curve(CUBIC_NODAL))
        assert isinstance(cls, MapsToFakePlane)
        assert cls.degree == 3
        assert not cls.fake_plane.is_projective_plane
        assert cls.fake_plane.cone_indices == (3, 3, 3)
        assert {r.as_tuple() for r in cls.rays} == {(2, -1), (-1, 2), (-1, -1)}

    def test_nodal_cubic_on_printed_fan(self):
        fan = build_fan(
            [(-2, 1), (1, -2), (1, 1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        )
        cls = classify(fan, laurent_curve(CUBIC_NODAL))
        assert isinstance(cls, HighDegree)
        assert cls.degree == 6

    def test_singular_fan_refused(self):
        fan = preset("FakePlane", n1=(2, -1), n2=(-1, 2))
        with pytest.raises(SingularFanError):
            classify(fan, laurent_curve({(0, 0): 1, (1, 0): 1}))

    def test_degree_three_on_p2_is_its_own_plane(self):
        fan = preset("P2")
        cls = classify(fan, laurent_curve({(0, 0): 1, (1, 0): 1, (0, 1): 1}))
        assert isinstance(cls, MapsToFakePlane)
        assert cls.degree == 3
        assert cls.fake_plane.is_projective_plane
        assert cls.ray_triple == (0, 1, 2)

    def test_json_shapes(self):
        fan = preset("Bl3P2")
        cls = classify(fan, laurent_curve({(1, 0): 1, (0, 1): 1, (1, 1): 1}))
        doc = to_json(cls)
        assert doc["tag"] == "maps_to_fake_plane"
        assert doc["degree"] == 3
        assert doc["fake_plane"]["is_projective_plane"] is True


class TestWitnessScan:
    def test_cremona_finds_exactly_one(self):
        fan = preset("Bl3P2")
        ws = line_witness_scan(fan, laurent_curve({(1, 0): 1, (0, 1): 1, (1, 1): 1}))
        assert len(ws) == 1
        w = ws[0]
        assert isinstance(w, TripleWitness)
        assert {r.as_tuple() for r in w.rays} == {(1, 1), (-1, 0), (0, -1)}

    def test_nine_ray_rules_out_everything_else(self):
        fan = build_fan(NINE_RAY_FIXED)
        ws = line_witness_scan(fan, laurent_curve(CUBIC_NODAL))
        assert len(ws) == 1
        assert isinstance(ws[0], TripleWitness)
        assert not ws[0].fake_plane.is_projective_plane
        assert not any(isinstance(w, PairWitness) for w in ws)

    def test_fiber_pair_witness(self):
        fan = preset("P1xP1")
        ws = line_witness_scan(fan, laurent_curve({(0, 0): 1, (1, 0): 1}))
        pairs = [w for w in ws if isinstance(w, PairWitness)]
        assert len(pairs) == 1
        assert {r.as_tuple() for r in pairs[0].rays} == {(0, 1), (0, -1)}

    def test_high_degree_curve_has_no_witnesses(self):
        fan = preset("P2")
        curve = laurent_curve(
            {(0, 0): 1, (3, 0): 1, (0, 3): 1, (1, 1): -1}
        )
        assert line_witness_scan(fan, curve) == []


class TestFormulas:
    def test_rho_values(self):
        assert rho(2, 1, 2) == 0
        assert rho(4, 1, 3) == 0
        assert rho(0, 1, 1) == 0
        assert rho(3, 1, 2) == -1
        assert rho(10, 2, 10) == 4

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            rho(-1, 1, 2)
        with pytest.raises(DomainError):
            rho(2, 0, 2)
        with pytest.raises(DomainError):
            rho(2, 1, -1)

    def test_maps_projective(self):
        assert expected_dim_maps_projective(0, 2, 1) == 5
        assert expected_dim_maps_projective(0, 1, 1) == 3
        assert expected_dim_maps_projective(2, 1, 4) == 7

    def test_maps_surface_vs_severi(self):
        assert expected_dim_maps_surface(0, 6) == 8
        assert severi_dim(0, 6) == 5
        assert severi_dim(3, 5) - expected_dim_maps_surface(3, 5) == 6

    def test_farkas(self):
        assert farkas_expected_dim(2, 2, 5) == 3
        assert farkas_expected_dim(0, 1, 4) == 5

    def test_excess_values(self):
        assert multiple_cover_excess(4, 3, 4) == 0
        assert multiple_cover_excess(2, 2, 3) == 1
        assert multiple_cover_excess(0, 2, 5) == -3

    def test_excess_domain(self):
        with pytest.raises(DomainError):
            multiple_cover_excess(2, 1, 3)
        with pytest.raises(DomainError):
            multiple_cover_excess(2, 2, 1)


class TestVerdicts:
    def test_boundary_special_case(self):
        v = bn_verdict(4, 3, image_degree=4)
        assert isinstance(v.outcome, BoundarySpecialCase)
        assert v.outcome.family_dim == 6
        assert v.expected_dim == 6

    def test_obstructed(self):
        v = bn_verdict(2, 2, image_degree=3)
        assert isinstance(v.outcome, ObstructedComponent)
        assert v.outcome.family_dim == 5
        assert v.outcome.excess == 1
        assert v.expected_dim == 4

    def test_no_such_covers(self):
        v = bn_verdict(5, 2, image_degree=4)
        assert isinstance(v.outcome, NoSuchCovers)
        assert "rho" in v.outcome.reason

    def test_not_a_component(self):
        v = bn_verdict(0, 2, image_degree=5)
        assert isinstance(v.outcome, NotAComponent)
        assert v.outcome.family_dim == 9
        assert v.expected_dim == 12

    def test_zero_excess_corner_lands_on_not_a_component(self):
        # excess 0 away from image degree 4 forces family == expected;
        # the decision tree still refuses to call it a component
        v = bn_verdict(1, 2, image_degree=3)
        assert isinstance(v.outcome, NotAComponent)
        assert v.outcome.family_dim == 6
        assert v.expected_dim == 6

    def test_genus_one_image(self):
        v = bn_verdict(1, 2, image_degree=5, image_genus=1)
        assert isinstance(v.outcome, NotAComponent)
        assert v.outcome.family_dim == 5
        assert v.expected_dim == 10

    def test_genus_one_image_needs_genus_one_source(self):
        v = bn_verdict(2, 2, image_degree=5, image_genus=1)
        assert isinstance(v.outcome, NoSuchCovers)

    def test_birational_expected(self):
        v = bn_verdict(1, 1, image_degree=4)
        assert isinstance(v.outcome, ExpectedDimension)
        assert v.outcome.generically_smooth

    def test_birational_low_degree(self):
        v = bn_verdict(0, 1, image_degree=3)
        assert isinstance(v.outcome, LowDegreeBirational)
        assert v.outcome.witness is None

    def test_toric_mode_attaches_witness(self):
        fan = preset("Bl3P2")
        curve = laurent_curve({(1, 0): 1, (0, 1): 1, (1, 1): 1})
        v = bn_verdict(0, 1, fan=fan, curve=curve)
        assert v.image_degree == 3
        assert isinstance(v.outcome, LowDegreeBirational)
        assert isinstance(v.outcome.witness, MapsToFakePlane)

    def test_toric_mode_obstructed_witness(self):
        fan = preset("P1xP1")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1})
        v = bn_verdict(2, 2, fan=fan, curve=curve)
        assert v.image_degree == 2
        assert isinstance(v.outcome, ObstructedComponent)
        assert isinstance(v.outcome.witness, FiberOfProjection)
        assert v.outcome.excess == 2

    def test_input_mode_errors(self):
        fan = preset("P2")
        curve = laurent_curve({(0, 0): 1, (1, 0): 1, (0, 1): 1})
        with pytest.raises(DomainError):
            bn_verdict(0, 1)
        with pytest.raises(DomainError):
            bn_verdict(0, 1, fan=fan)
        with pytest.raises(DomainError):
            bn_verdict(0, 1, fan=fan, curve=curve, image_degree=3)
        with pytest.raises(DomainError):
            bn_verdict(-1, 1, image_degree=3)
        with pytest.raises(DomainError):
            bn_verdict(0, 0, image_degree=3)
        with pytest.raises(DomainError):
            bn_verdict(0, 2, image_degree=1)
        with pytest.raises(DomainError):
            bn_verdict(0, 2, image_degree=3, image_genus=2)

    def test_verdict_json(self):
        doc = to_json(bn_verdict(4, 3, image_degree=4))
        assert doc["tag"] == "boundary_special_case"
        assert doc["genus"] == 4
        assert doc["cover_degree"] == 3
        assert doc["image_degree"] == 4
        assert doc["expected_dim"] == 6
        assert doc["family_dim"] == 6

    def test_family_minus_expected_is_excess(self):
        for m in range(2, 11):
            for g in range(0, 2 * m - 1):
                for dk in range(2, 11):
                    v = bn_verdict(g, m, image_degree=dk)
                    if isinstance(
                        v.outcome, (ObstructedComponent, NotAComponent, BoundarySpecialCase)
                    ):
                        fam = v.outcome.family_dim
                        assert fam - v.expected_dim == multiple_cover_excess(g, m, dk)
