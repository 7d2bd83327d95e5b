import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    a2,
    blowup_p2,
    certified_search_radius,
    ex13_r1_q2,
    p2,
    p112,
    p123,
    random_fan,
    random_gl,
    twist_divisor,
)
from toricmld.divisors import boundary_divisor, divisor, zero_divisor
from toricmld.errors import DomainError, NotACone, OutsideSupport
from toricmld.fans import Fan
from toricmld.singularities import (
    MINUS_INFINITY,
    brute_force_mld_in_ball,
    global_mld,
    is_eps_lc,
    log_discrepancy,
    mld_at_cone,
)


def ray_index(f: Fan, ray) -> int:
    return f.rays.index(tuple(ray))


class TestLogDiscrepancy:
    def test_smooth_point_p2(self):
        f = p2()
        assert log_discrepancy(f, zero_divisor(f), (1, 1)) == 2

    def test_p112_box_point(self):
        f = p112()
        assert log_discrepancy(f, zero_divisor(f), (0, -1)) == 1

    def test_boundary_pair_vanishes(self):
        f = p123()
        b = boundary_divisor(f)
        for v in [(1, 0), (5, -7), (-2, -3), (1, 1)]:
            assert log_discrepancy(f, b, v) == 0

    def test_outside_support(self):
        f = ex13_r1_q2()
        with pytest.raises(OutsideSupport):
            log_discrepancy(f, zero_divisor(f), (0, -1))

    def test_zero_rejected(self):
        f = p2()
        with pytest.raises(DomainError):
            log_discrepancy(f, zero_divisor(f), (0, 0))

    def test_homogeneous(self):
        f = p112()
        b = divisor(f, [Fraction(1, 3), Fraction(1, 2), 0])
        v = (3, -4)
        for k in [2, 5, 11]:
            kv = tuple(k * x for x in v)
            assert log_discrepancy(f, b, kv) == k * log_discrepancy(f, b, v)


class TestGlobalMld:
    def test_smooth_complete_surface(self):
        rep = global_mld(p2(), zero_divisor(p2()))
        assert rep.value == 1
        assert rep.status == "exact"
        assert rep.witness in p2().rays

    def test_weighted_planes_are_canonical(self):
        for build in [p112, p123]:
            f = build()
            rep = global_mld(f, zero_divisor(f))
            assert rep.value == 1
            assert rep.status == "exact"

    def test_half_plane_fibration_fixture(self):
        f = ex13_r1_q2()
        rep = global_mld(f, zero_divisor(f))
        assert rep.value == Fraction(3, 5)
        assert rep.status == "exact"
        assert log_discrepancy(f, zero_divisor(f), rep.witness) == rep.value

    def test_boundary_pair(self):
        f = blowup_p2()
        rep = global_mld(f, boundary_divisor(f))
        assert rep.value == 0
        assert rep.status == "exact"

    def test_coefficient_above_one(self):
        f = p2()
        b = divisor(f, [2, 0, 0])
        rep = global_mld(f, b)
        assert rep.value is MINUS_INFINITY
        assert rep.status == "minus_infinity"

    def test_witness_consistency(self):
        f = p123()
        b = divisor(f, [Fraction(1, 2), 0, Fraction(1, 3)])
        rep = global_mld(f, b)
        assert log_discrepancy(f, b, rep.witness) == rep.value


class TestEpsLc:
    def test_thresholds(self):
        f = ex13_r1_q2()
        b = zero_divisor(f)
        assert is_eps_lc(f, b, Fraction(3, 5))
        assert is_eps_lc(f, b, Fraction(1, 2))
        assert not is_eps_lc(f, b, Fraction(3, 5) + Fraction(1, 100))

    def test_boundary_pair_is_zero_lc_only(self):
        f = p2()
        b = boundary_divisor(f)
        assert is_eps_lc(f, b, 0)
        assert not is_eps_lc(f, b, Fraction(1, 10))

    def test_not_lc(self):
        f = p2()
        assert not is_eps_lc(f, divisor(f, [Fraction(3, 2), 0, 0]), 0)


class TestMldAtCone:
    def test_smooth_maximal_cone(self):
        f = p2()
        tau = tuple(sorted([ray_index(f, (1, 0)), ray_index(f, (0, 1))]))
        rep = mld_at_cone(f, zero_divisor(f), tau)
        assert rep.value == 2
        assert rep.witness == (1, 1)
        assert rep.status == "exact"

    def test_quotient_singularity(self):
        f = p112()
        tau = tuple(sorted([ray_index(f, (1, 0)), ray_index(f, (-1, -2))]))
        rep = mld_at_cone(f, zero_divisor(f), tau)
        assert rep.value == 1
        assert rep.witness == (0, -1)

    def test_along_a_ray(self):
        f = p2()
        i = ray_index(f, (-1, -1))
        rep = mld_at_cone(f, zero_divisor(f), (i,))
        assert rep.value == 1
        assert rep.witness == (-1, -1)

    def test_boundary_pair_attained(self):
        f = a2()
        rep = mld_at_cone(f, boundary_divisor(f), (0, 1))
        assert rep.value == 0
        assert rep.status == "exact"

    def test_zero_on_boundary_infimum(self):
        """A vanishes on the ray (1, 0) and the closed cone's infimum is 0,
        but the minimum over relint(tau) is 1, at (1, 1)."""
        f = a2()
        coeffs = [0, 0]
        coeffs[ray_index(f, (1, 0))] = 1
        rep = mld_at_cone(f, divisor(f, coeffs), (0, 1))
        assert (rep.value, rep.witness, rep.status) == (1, (1, 1), "exact")

    def test_minus_infinity(self):
        f = a2()
        rep = mld_at_cone(f, divisor(f, [0, 2]), (0, 1))
        assert rep.value is MINUS_INFINITY
        b = divisor(f, [0, 2])
        assert log_discrepancy(f, b, rep.witness) < 0

    def test_not_a_cone(self):
        f = p2()
        with pytest.raises(NotACone):
            mld_at_cone(f, zero_divisor(f), (0, 1, 2))
        with pytest.raises(DomainError):
            mld_at_cone(f, zero_divisor(f), ())

    def test_partition_recovers_global(self):
        for build in [p2, p112, p123, ex13_r1_q2, blowup_p2]:
            f = build()
            b = divisor(f, [Fraction(1, 3)] * len(f.rays))
            pieces = set()
            for c in f.max_cones:
                for k in range(1, len(c) + 1):
                    from itertools import combinations

                    for tau in combinations(c, k):
                        pieces.add(tau)
            vals = [mld_at_cone(f, b, tau).value for tau in pieces]
            assert min(vals) == global_mld(f, b).value


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
# the witness (-97, 35) lies outside the sup-norm ball of radius 40
@example(seed=7475, denom=4)
def test_matches_brute_force(seed, denom):
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=2, subdivisions=2)
    coeffs = [Fraction(rng.randrange(0, denom + 1), denom) for _ in f.rays]
    b = divisor(f, coeffs)
    rep = global_mld(f, b)
    if rep.value is MINUS_INFINITY:
        assert any(1 - c < 0 for c in coeffs)
        return
    if rep.value == 0:
        assert any(1 - c == 0 for c in coeffs)
        return
    radius = certified_search_radius(f, b, rep.value)
    if radius > 40:
        # stay cheap, but keep the witness in the ball: the ball confirms
        # no better point nearby and finds the witness's value
        radius = max(40, *(abs(x) for x in rep.witness))
    val, wit = brute_force_mld_in_ball(f, b, radius)
    assert val == rep.value


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_global_mld_coordinate_invariant(seed):
    """A GL_n(Z) change of coordinates (orientation reversing too) leaves the
    global mld unchanged."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=3, subdivisions=2)
    coeffs = [rng.choice([0, Fraction(1, 3), Fraction(1, 2), 1, 2]) for _ in f.rays]
    b = divisor(f, coeffs)
    moved = twist_divisor(b, random_gl(rng, f.rank))
    assert global_mld(moved.fan, moved).value == global_mld(f, b).value
