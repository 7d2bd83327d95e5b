import random

import pytest

from fractions import Fraction

from helpers import (
    a1,
    a2,
    blowup_p2,
    ex13_r1_q2,
    ex13_r2_q2,
    p1,
    p2,
    p112,
    p123,
    product_fan,
    random_wps_fan,
    to_a1,
)
from toricmld.divisors import zero_divisor
from toricmld.errors import (
    NotComplete,
    NotMfsShape,
    NotRelativelyAmple,
    RelativeDimensionTooSmall,
    WrongRayCount,
)
from toricmld.fans import fan, point_fan, star_subdivision
from toricmld.fibration import generic_fiber_fan, morphism, validate_morphism
from toricmld.intlinalg import mat_mul, primitive, vec_scale
from toricmld.mfs import extremal_log_discrepancies, factor_mfs, q_vector
from toricmld.singularities import log_discrepancy


class TestQVector:
    def test_projective_plane(self):
        assert q_vector(p2()).q == (1, 1, 1)
        assert extremal_log_discrepancies(p2()) == (2, 2, 2)

    def test_weighted_112(self):
        f = p112()
        by_ray = dict(zip(f.rays, q_vector(f).q))
        assert by_ray == {(1, 0): 1, (0, 1): 2, (-1, -2): 1}
        a = dict(zip(f.rays, extremal_log_discrepancies(f)))
        assert a == {(1, 0): 3, (0, 1): 1, (-1, -2): 3}

    def test_weighted_123(self):
        f = p123()
        by_ray = dict(zip(f.rays, q_vector(f).q))
        assert by_ray == {(1, 0): 2, (0, 1): 3, (-2, -3): 1}

    def test_projective_line(self):
        assert q_vector(p1()).q == (1, 1)
        assert extremal_log_discrepancies(p1()) == (1, 1)

    def test_wrong_ray_count(self):
        with pytest.raises(WrongRayCount):
            q_vector(blowup_p2())
        with pytest.raises(WrongRayCount):
            q_vector(a2())

    def test_not_complete(self):
        quadrant = fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
        with pytest.raises(NotComplete):
            q_vector(quadrant)

    def test_relation_really_vanishes(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_wps_fan(rng, rng.randrange(1, 4))
            q = q_vector(f).q
            for j in range(f.rank):
                assert sum(qi * v[j] for qi, v in zip(q, f.rays)) == 0

    def test_discrepancies_match_valuations(self):
        # a_i equals the log discrepancy of the fan at -v_i
        rng = random.Random(11)
        fans = [p2(), p112(), p123(), p1()]
        fans += [random_wps_fan(rng, rng.randrange(1, 4)) for _ in range(10)]
        for f in fans:
            a = extremal_log_discrepancies(f)
            for i, v in enumerate(f.rays):
                w = primitive(vec_scale(-1, v))
                assert a[i] == log_discrepancy(f, zero_divisor(f), w)


class TestFactorMfs:
    def test_product_with_plane(self):
        f = to_a1(product_fan(p2(), a1()))
        res = factor_mfs(f)
        assert res.a_e == 2
        assert res.e_ray == (1, 1, 0)
        assert res.pi.source is res.w
        assert res.g.target.rank == 2
        assert mat_mul(res.h.matrix, res.g.matrix) == f.matrix

    def test_rank_three_family_instance(self):
        f = to_a1(ex13_r2_q2())
        _, fib = generic_fiber_fan(f)
        assert dict(zip(fib.rays, q_vector(fib).q)) == {
            (-2, 1): 7,
            (-1, -1): 1,
            (5, -2): 3,
        }
        res = factor_mfs(f)
        assert res.a_e == Fraction(4, 7)
        assert res.e_ray == (-1, 2, 0)
        assert fib.rays[res.e] == (-2, 1)

    def test_plane_over_a_point(self):
        """P^2 over the rank-0 fan: the generic fiber is P^2 itself."""
        f = morphism((), p2(), point_fan())
        res = factor_mfs(f)
        assert res.w.rank == 2 and res.h.target == point_fan()
        assert mat_mul(res.h.matrix, res.g.matrix) == f.matrix

    def test_largest_weight_is_chosen(self):
        f = to_a1(ex13_r2_q2())
        _, fib = generic_fiber_fan(f)
        q = q_vector(fib).q
        res = factor_mfs(f)
        assert q[res.e] == max(q)

    def test_factor_dimensions(self):
        f = to_a1(product_fan(p112(), a1()))
        res = factor_mfs(f)
        assert validate_morphism(res.g).relative_dimension == 1
        assert validate_morphism(res.h).relative_dimension == 1
        assert res.w.rank == f.source.rank
        assert res.g.target.rank == f.source.rank - 1

    def test_discrepancy_bounded_by_relative_dimension(self):
        rng = random.Random(3)
        for _ in range(8):
            rank = rng.randrange(2, 4)
            src = product_fan(random_wps_fan(rng, rank), a1())
            res = factor_mfs(to_a1(src))
            assert 0 < res.a_e <= rank

    def test_relative_dimension_too_small(self):
        with pytest.raises(RelativeDimensionTooSmall):
            factor_mfs(to_a1(ex13_r1_q2()))
        with pytest.raises(RelativeDimensionTooSmall):
            factor_mfs(to_a1(product_fan(p1(), a1())))

    def test_wrong_fiber_shape(self):
        with pytest.raises(NotMfsShape):
            factor_mfs(to_a1(product_fan(blowup_p2(), a1())))

    def test_not_relatively_ample(self):
        # weighted point blowup: fibers stay rank 2 with 3 rays but are no
        # longer Fano
        src = star_subdivision(product_fan(p2(), a1()), (2, 1, 3))
        with pytest.raises(NotRelativelyAmple):
            factor_mfs(to_a1(src))

    def test_exceptional_ray_sits_in_subdivision(self):
        f = to_a1(ex13_r2_q2())
        res = factor_mfs(f)
        assert res.e_ray in res.w.rays
        assert res.e_ray not in f.source.rays
        assert res.a_e == log_discrepancy(
            f.source, zero_divisor(f.source), res.e_ray
        )
