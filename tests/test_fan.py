"""Fans: construction, presets, subdivisions, class groups, JSON."""

import pytest

from toricbn import (
    DuplicateRayError,
    LengthMismatchError,
    NonPrimitiveRayError,
    NotCompleteError,
    SchemaError,
    SingularConeError,
    TooFewRaysError,
    anticanonical_pairing,
    blow_up,
    build_fan,
    class_group,
    delete_rays,
    det2,
    fan_from_json,
    make_fake_plane,
    opposite_ray_pairs,
    preset,
    smoothness,
    to_json,
    vec,
    zero_sum_triples,
)

NINE_RAY_FIXED = [
    (2, -1), (-1, 2), (-1, -1),
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
]


class TestBuildFan:
    def test_sorting_is_counter_clockwise_from_lex_min(self):
        fan = build_fan([(0, 1), (1, 0), (-1, -1)])
        assert [r.as_tuple() for r in fan.rays] == [(-1, -1), (1, 0), (0, 1)]
        for i in range(fan.ray_count):
            u, v = fan.cone(i)
            assert det2(u, v) > 0

    def test_input_order_is_irrelevant(self):
        a = build_fan([(1, 0), (0, 1), (0, -1), (-1, 0)])
        b = build_fan([(0, -1), (-1, 0), (1, 0), (0, 1)])
        assert a == b

    def test_too_few(self):
        with pytest.raises(TooFewRaysError):
            build_fan([(1, 0), (-1, 0)])

    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveRayError):
            build_fan([(2, 0), (0, 1), (-1, -1)])

    def test_duplicate(self):
        with pytest.raises(DuplicateRayError):
            build_fan([(1, 0), (1, 0), (0, 1), (-1, -1)])

    def test_not_complete(self):
        # all rays in the open upper half plane
        with pytest.raises(NotCompleteError):
            build_fan([(1, 1), (0, 1), (-1, 1)])
        # a ray pair plus one more still leaves a half plane uncovered
        with pytest.raises(NotCompleteError):
            build_fan([(1, 0), (-1, 0), (1, 1)])

    def test_negated(self):
        fan = preset("P2")
        neg = fan.negated()
        assert sorted(r.as_tuple() for r in neg.rays) == [(-1, 0), (0, -1), (1, 1)]
        assert smoothness(neg).smooth

    def test_index_of(self):
        fan = preset("P1xP1")
        assert fan.index_of(vec(0, 1)) == 3
        with pytest.raises(ValueError):
            fan.index_of(vec(1, 1))


class TestPresets:
    def test_p2(self):
        fan = preset("P2")
        assert [r.as_tuple() for r in fan.rays] == [(-1, -1), (1, 0), (0, 1)]
        assert smoothness(fan).smooth

    def test_p1xp1(self):
        fan = preset("P1xP1")
        assert [r.as_tuple() for r in fan.rays] == [(-1, 0), (0, -1), (1, 0), (0, 1)]
        assert smoothness(fan).smooth

    def test_hirzebruch(self):
        fan = preset("Hirzebruch", a=1)
        assert {r.as_tuple() for r in fan.rays} == {(1, 0), (0, 1), (-1, 1), (0, -1)}
        assert smoothness(fan).smooth
        with pytest.raises(SchemaError):
            preset("Hirzebruch")

    def test_bl3p2(self):
        fan = preset("Bl3P2")
        assert [r.as_tuple() for r in fan.rays] == [
            (-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0),
        ]
        assert smoothness(fan).smooth

    def test_fake_plane_preset(self):
        fan = preset("FakePlane", n1=(2, -1), n2=(-1, 2))
        rep = smoothness(fan)
        assert not rep.smooth
        assert rep.cone_indices == (3, 3, 3)
        with pytest.raises(SchemaError):
            preset("FakePlane", n1=(2, -1))

    def test_unknown(self):
        with pytest.raises(SchemaError):
            preset("P3")


class TestBlowUp:
    def test_tower_from_p2_to_bl3p2(self):
        fan = preset("P2")
        for target in [(0, -1), (1, 1), (-1, 0)]:
            for i in range(fan.ray_count):
                u, v = fan.cone(i)
                if (u + v).as_tuple() == target:
                    fan = blow_up(fan, i)
                    break
            else:
                pytest.fail(f"no cone summing to {target}")
        assert fan == preset("Bl3P2")

    def test_stays_smooth(self):
        fan = preset("Hirzebruch", a=2)
        for i in (0, 2, 1):
            fan = blow_up(fan, i)
            assert smoothness(fan).smooth

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            blow_up(preset("P2"), 3)

    def test_singular_cone_refuses(self):
        fake = preset("FakePlane", n1=(2, -1), n2=(-1, 2))
        with pytest.raises(SingularConeError):
            blow_up(fake, 0)


class TestDeleteRays:
    def test_round_trip_with_blow_up(self):
        fan = preset("P1xP1")
        bigger = blow_up(fan, 0)
        new_ray = vec(-1, -1)
        j = bigger.index_of(new_ray)
        keep = [i for i in range(bigger.ray_count) if i != j]
        assert delete_rays(bigger, keep) == fan

    def test_deleting_can_fail_completeness(self):
        fan = preset("P1xP1")
        with pytest.raises(TooFewRaysError):
            delete_rays(fan, [0, 1])

    def test_bad_index(self):
        with pytest.raises(IndexError):
            delete_rays(preset("P2"), [0, 7])


class TestPairsAndTriples:
    def test_p2(self):
        fan = preset("P2")
        assert opposite_ray_pairs(fan) == []
        # the plane's own three rays are its single zero-sum triple
        triples = zero_sum_triples(fan)
        assert len(triples) == 1
        assert triples[0][0] == (0, 1, 2)
        assert triples[0][1].is_projective_plane

    def test_p1xp1(self):
        fan = preset("P1xP1")
        pairs = opposite_ray_pairs(fan)
        assert pairs == [(0, 2), (1, 3)]
        assert zero_sum_triples(fan) == []

    def test_bl3p2(self):
        fan = preset("Bl3P2")
        assert len(opposite_ray_pairs(fan)) == 3
        triples = zero_sum_triples(fan)
        assert len(triples) == 2
        for t, plane in triples:
            assert plane.is_projective_plane
            assert sum((fan.rays[i] for i in t), vec(0, 0)).is_zero()

    def test_nine_ray_fan(self):
        fan = build_fan(NINE_RAY_FIXED)
        assert smoothness(fan).smooth
        assert len(opposite_ray_pairs(fan)) == 3
        triples = zero_sum_triples(fan)
        assert len(triples) == 6
        fake = [p for _, p in triples if not p.is_projective_plane]
        assert len(fake) == 1
        assert {r.as_tuple() for r in fake[0].rays} == {(2, -1), (-1, 2), (-1, -1)}
        assert fake[0].cone_indices == (3, 3, 3)


class TestFakePlane:
    def test_projective_plane_detection(self):
        plane = make_fake_plane([(1, 0), (0, 1), (-1, -1)])
        assert plane.is_projective_plane
        assert plane.cone_indices == (1, 1, 1)

    def test_index_three(self):
        plane = make_fake_plane([(2, -1), (-1, 2), (-1, -1)])
        assert not plane.is_projective_plane
        assert plane.cone_indices == (3, 3, 3)
        assert smoothness(plane.fan()).cone_indices == (3, 3, 3)

    def test_rejects_nonzero_sum(self):
        from toricbn import DomainError

        with pytest.raises(DomainError):
            make_fake_plane([(1, 0), (0, 1), (-1, -2)])

    def test_rejects_wrong_count(self):
        from toricbn import DomainError

        with pytest.raises(DomainError):
            make_fake_plane([(1, 0), (-1, 0)])


class TestClassGroup:
    def test_p2_all_rays_equivalent(self):
        cg = class_group(preset("P2"))
        assert cg.rank == 1
        assert cg.torsion == ()
        assert len(set(cg.ray_classes)) == 1

    def test_p1xp1_opposite_rays_equivalent(self):
        fan = preset("P1xP1")
        cg = class_group(fan)
        assert cg.rank == 2
        assert cg.torsion == ()
        for i, j in opposite_ray_pairs(fan):
            assert cg.ray_classes[i] == cg.ray_classes[j]
        # the two distinct classes generate
        assert len(set(cg.ray_classes)) == 2

    def test_hirzebruch_relation(self):
        a = 2
        fan = preset("Hirzebruch", a=a)
        cg = class_group(fan)
        assert cg.rank == 2
        i = fan.index_of(vec(1, 0))
        j = fan.index_of(vec(-1, a))
        assert cg.ray_classes[i] == cg.ray_classes[j]

    def test_fake_plane_torsion(self):
        cg = class_group(preset("FakePlane", n1=(2, -1), n2=(-1, 2)))
        assert cg.rank == 1
        assert cg.torsion == (3,)
        # free parts agree, torsion residues pairwise distinct
        assert len({v[0] for v in cg.ray_classes}) == 1
        assert sorted(v[1] for v in cg.ray_classes) == [0, 1, 2]

    def test_rank_counts_rays(self):
        # rank == ray count - 2 for every smooth complete fan
        for name, kw in [("P2", {}), ("P1xP1", {}), ("Bl3P2", {}), ("Hirzebruch", {"a": 3})]:
            fan = preset(name, **kw)
            assert class_group(fan).rank == fan.ray_count - 2

    def test_blow_up_raises_rank(self):
        fan = preset("P2")
        assert class_group(fan).rank == 1
        assert class_group(blow_up(fan, 0)).rank == 2


class TestAnticanonicalPairing:
    def test_sum(self):
        fan = preset("P2")
        assert anticanonical_pairing(fan, (2, 2, 2)) == 6
        assert anticanonical_pairing(fan, (0, 0, 0)) == 0

    def test_four_ray_blow_up(self):
        fan = blow_up(preset("P2"), 1)
        assert anticanonical_pairing(fan, (2, 1, 1, 1)) == 5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            anticanonical_pairing(preset("P2"), (1, 1))


class TestConeTiling:
    """A complete fan's cones cover the plane without overlap.

    With boundary rays assigned to the counter-clockwise cone, every
    nonzero primitive vector in a box lands in exactly one cone.
    """

    @staticmethod
    def _cone_count(fan, v):
        hits = 0
        rays = fan.rays
        c = len(rays)
        for i in range(c):
            lo, hi = rays[i], rays[(i + 1) % c]
            if det2(lo, v) >= 0 and det2(v, hi) > 0:
                hits += 1
        return hits

    @pytest.mark.parametrize(
        "fan",
        [
            preset("P2"),
            preset("P1xP1"),
            preset("Bl3P2"),
            preset("Hirzebruch", a=2),
            build_fan(NINE_RAY_FIXED),
        ],
        ids=["p2", "p1xp1", "bl3p2", "hirzebruch2", "nine_ray"],
    )
    def test_exhaustive_membership(self, fan):
        for x in range(-10, 11):
            for y in range(-10, 11):
                v = vec(x, y)
                if v.is_zero() or not v.is_primitive():
                    continue
                assert self._cone_count(fan, v) == 1


class TestFanJson:
    def test_round_trip(self):
        fan = build_fan(NINE_RAY_FIXED)
        assert fan_from_json(to_json(fan)) == fan

    def test_preset_documents(self):
        assert fan_from_json({"preset": "P2"}) == preset("P2")
        assert fan_from_json({"preset": "Hirzebruch", "a": 2}) == preset("Hirzebruch", a=2)
        assert fan_from_json(
            {"preset": "FakePlane", "n1": [2, -1], "n2": [-1, 2]}
        ) == preset("FakePlane", n1=(2, -1), n2=(-1, 2))

    def test_schema_errors(self):
        for doc in (
            [],
            {"rays": [[1, 0], [0, 1], [-1, -1]], "preset": "P2"},
            {"rays": "nope"},
            {"rays": [[1, 0], [0, 1], [True, False]]},
            {"preset": 7},
            {"preset": "Hirzebruch", "a": "two"},
            {},
        ):
            with pytest.raises(SchemaError):
                fan_from_json(doc)

    def test_math_errors_keep_their_type(self):
        with pytest.raises(NonPrimitiveRayError):
            fan_from_json({"rays": [[2, 0], [0, 1], [-1, -1]]})


class TestInternalGuards:
    def test_unequal_triple_indices_are_impossible(self):
        # any zero-sum triple has all three pairwise determinants equal, so
        # constructing one with unequal indices must be impossible by search
        found = []
        rng_range = range(-3, 4)
        for ax in rng_range:
            for ay in rng_range:
                for bx in rng_range:
                    for by in rng_range:
                        a, b = vec(ax, ay), vec(bx, by)
                        c = -(a + b)
                        if not (a.is_primitive() and b.is_primitive() and c.is_primitive()):
                            continue
                        d1, d2, d3 = abs(det2(a, b)), abs(det2(b, c)), abs(det2(c, a))
                        if d1 == 0:
                            continue
                        found.append((d1, d2, d3))
        assert found, "search space should not be empty"
        assert all(d1 == d2 == d3 for d1, d2, d3 in found)
        # and therefore make_fake_plane never raises InternalContradictionError
        plane = make_fake_plane([(3, 1), (-1, 0), (-2, -1)])
        assert plane.cone_indices[0] == plane.cone_indices[1] == plane.cone_indices[2]
