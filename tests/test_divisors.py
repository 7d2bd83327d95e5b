import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    a1,
    a2,
    cone_over_square,
    ex13_r1_q2,
    identity_morphism,
    p1,
    p2,
    p112,
    p123,
    product_fan,
    random_fan,
    random_support_point,
    reference_wall_mismatch,
    to_a1,
)
from toricmld import divisors
from toricmld.divisors import (
    boundary_divisor,
    divisor,
    is_ample_over,
    is_q_cartier,
    log_discrepancy_function,
    pl_function,
    rel_trivial_witness,
    support_function,
    zero_divisor,
)
from toricmld.errors import ValidationError
from toricmld.fans import point_fan
from toricmld.fibration import average_boundary
from toricmld.intlinalg import dot, mat_vec


class TestDivisorBasics:
    def test_boundary_p2(self):
        assert boundary_divisor(p2()).coeffs == (1, 1, 1)

    def test_boundary_of_torus_is_empty(self):
        assert boundary_divisor(point_fan()).coeffs == ()

    def test_length_mismatch(self):
        with pytest.raises(ValidationError) as err:
            divisor(p2(), [1, 2])
        assert err.value.violations[0][0] == "LengthMismatch"


class TestLogDiscrepancyFunction:
    def test_boundary_gives_zero(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_fan(rng, max_rank=3, subdivisions=2)
            a = log_discrepancy_function(f, boundary_divisor(f))
            for r in f.rays:
                assert a(r) == 0
            for _ in range(5):
                assert a(random_support_point(rng, f)) == 0

    def test_p2_smooth_value(self):
        f = p2()
        a = log_discrepancy_function(f, zero_divisor(f))
        assert a((1, 1)) == 2

    def test_p112_functional(self):
        f = p112()
        a = log_discrepancy_function(f, zero_divisor(f))
        assert a((0, -1)) == 1

    def test_average_scales_the_function(self):
        f = p123()
        b = divisor(f, [Fraction(1, 2), Fraction(1, 3), 0])
        a_b = log_discrepancy_function(f, b)
        for alpha in [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0)]:
            avg = average_boundary(b, f, alpha)
            a_avg = log_discrepancy_function(f, avg)
            for v in [(1, 0), (1, 1), (-2, -3), (3, -5), (-1, -1)]:
                assert a_avg(v) == alpha * a_b(v)


class TestPLFunction:
    def test_wall_mismatch_rejected(self):
        f = p2()
        fns = [(1, 0)] + [(0, 0)] * (len(f.max_cones) - 1)
        with pytest.raises(ValidationError) as err:
            pl_function(f, fns)
        assert any(code == "WallMismatch" for code, _ in err.value.violations)

    def test_mismatch_between_second_and_third_cones(self):
        """On P2 the cones are (0, 1), (0, 2), (1, 2): the first agrees with
        the others at rays 0 and 1, and only the other two disagree, at ray
        2, which the first cone does not contain."""
        f = p2()
        assert f.max_cones == ((0, 1), (0, 2), (1, 2)) and f.rays[2] == (1, 0)
        with pytest.raises(ValidationError) as err:
            pl_function(f, [(0, 0), (1, -1), (2, 0)])
        assert err.value.violations == (
            ("WallMismatch", "cones disagree at shared ray 2: 1 vs 2"),
        )
        assert pl_function(f, [(0, 0), (1, -1), (1, 0)]).functionals[2] == (1, 0)

    def test_mismatch_message_prints_fractions(self):
        """Values compared as integers are printed as the Fractions they are."""
        f = p2()
        half = Fraction(1, 2)
        with pytest.raises(ValidationError) as err:
            pl_function(f, [(0, 0), (half, -half), (3 * half, 0)])
        assert err.value.violations == (
            ("WallMismatch", "cones disagree at shared ray 2: 1/2 vs 3/2"),
        )

    def test_wall_mismatch_verdict_matches_pairwise_check(self):
        """Checking each ray against the first cone holding it accepts
        exactly the functionals that agree on every ray shared by a pair of
        maximal cones, and names the mismatch as the Fraction check did."""
        rng = random.Random(11)
        verdicts = set()
        for _ in range(200):
            f = random_fan(rng, max_rank=3, subdivisions=2)
            values = [Fraction(rng.randrange(-2, 3), 2) for _ in f.rays]
            fns = list(support_function(f, values).functionals)
            for _ in range(rng.randrange(2)):
                k = rng.randrange(len(fns))
                fns[k] = tuple(x + rng.randint(-1, 1) for x in fns[k])
            pairwise = all(
                dot(fns[a], f.rays[i]) == dot(fns[b], f.rays[i])
                for a in range(len(fns))
                for b in range(a + 1, len(fns))
                for i in set(f.max_cones[a]) & set(f.max_cones[b])
            )
            try:
                pl_function(f, fns)
                accepted = True
            except ValidationError as exc:
                assert exc.violations == reference_wall_mismatch(f, fns)
                accepted = False
            assert accepted == pairwise
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_support_function_unsolvable(self):
        f = cone_over_square()
        assert support_function(f, [1, 0, 0, 0]) is None


class TestQCartier:
    def test_simplicial_always_solvable(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_fan(rng, max_rank=3, subdivisions=2)
            coeffs = [Fraction(rng.randrange(-3, 4), 2) for _ in f.rays]
            assert is_q_cartier(f, divisor(f, coeffs)) is not None

    def test_cone_over_square_boundary(self):
        f = cone_over_square()
        psi = is_q_cartier(f, boundary_divisor(f))
        assert psi is not None
        assert psi.functionals == ((0, 0, -1),)

    def test_cone_over_square_single_ray(self):
        f = cone_over_square()
        coeffs = [0] * 4
        coeffs[0] = 1
        assert is_q_cartier(f, divisor(f, coeffs)) is None


class TestRelTrivial:
    def test_boundary_witness_is_zero(self):
        f = to_a1(ex13_r1_q2())
        w = rel_trivial_witness(f, boundary_divisor(f.source))
        assert w is not None
        assert all(x == 0 for x in w.m)
        assert all(all(x == 0 for x in fn) for fn in w.ell.functionals)

    def test_product_horizontal_boundary(self):
        src = product_fan(p1(), a1())
        f = to_a1(src)
        coeffs = [1 if r[1] == 0 else 0 for r in src.rays]
        w = rel_trivial_witness(f, divisor(src, coeffs))
        assert w is not None
        # A(x, y) = y decomposes through the base
        v = (3, 2)
        assert dot(w.m, v) + w.ell(mat_vec(f.matrix, v)) == 2

    def test_fibration_with_multiple_fiber_not_trivial(self):
        f = to_a1(ex13_r1_q2())
        assert rel_trivial_witness(f, zero_divisor(f.source)) is None

    @pytest.mark.parametrize("entry", [0, -1])
    def test_off_witness_fails_verification(self, monkeypatch, entry):
        """The re-verification, in integers, catches a solution of the
        gluing system that is off by 1/7 in m (entry 0) or in ell (entry
        -1); the per-cone solves of A are left alone."""
        solve = divisors.solve_exact

        def off(rows, rhs):
            sol = solve(rows, rhs)
            if len(rows[0]) > 2:  # the gluing system, not a cone of A
                sol = list(sol)
                sol[entry] += Fraction(1, 7)
            return tuple(sol)

        src = product_fan(p1(), a1())
        b = divisor(src, [1 if r[1] == 0 else 0 for r in src.rays])
        monkeypatch.setattr(divisors, "solve_exact", off)
        with pytest.raises(AssertionError, match="relative-triviality witness failed verification"):
            rel_trivial_witness(to_a1(src), b)


class TestAmpleOver:
    def test_anticanonical_on_singular_fibration(self):
        f = to_a1(ex13_r1_q2())
        assert is_ample_over(f, boundary_divisor(f.source))

    def test_pullback_never_strictly_convex(self):
        src = ex13_r1_q2()
        f = to_a1(src)
        coeffs = [5 if r == (-2, 5) else 0 for r in src.rays]
        assert not is_ample_over(f, divisor(src, coeffs))

    def test_zero_divisor_on_identity(self):
        assert not is_ample_over(identity_morphism(p2()), zero_divisor(p2()))
        assert is_ample_over(identity_morphism(a2()), zero_divisor(a2()))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 7))
def test_homogeneity(seed, k):
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=3, subdivisions=2)
    b = divisor(f, [Fraction(rng.randrange(0, 5), 4) for _ in f.rays])
    a = log_discrepancy_function(f, b)
    v = random_support_point(rng, f)
    kv = tuple(k * x for x in v)
    assert a(kv) == k * a(v)
