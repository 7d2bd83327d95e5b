import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    a1,
    a2,
    ex13_r1_q2,
    identity_morphism,
    p1,
    p2,
    random_fan,
    random_gl,
    random_unimodular,
    to_a1,
    product_fan,
    twist_divisor,
    twist_fan,
)
from toricmld.cones import hrep
from toricmld.divisors import boundary_divisor, divisor, zero_divisor
from toricmld.errors import (
    DomainError,
    NotACone,
    NotLogCanonicalOverBase,
    NotRelTrivial,
    ValidationError,
)
from toricmld.fans import fan, locate, point_fan
from toricmld.fibration import (
    _faces_of,
    _relint_test,
    CertifiedAtLeast,
    Exact,
    Indeterminate,
    Witness,
    average_boundary,
    discriminant_divisor,
    generic_fiber_fan,
    lc_threshold_over,
    morphism,
    pullback_multiplicities,
    relative_mld,
    validate_morphism,
)
from toricmld.intlinalg import mat_mul, mat_vec, unimodular_inverse
from toricmld.singularities import MINUS_INFINITY, global_mld


def p1a1():
    return product_fan(p1(), a1())


def tower():
    """X = P1 x P1 x A1 over Y = P1 x A1 over Z = A1."""
    x = product_fan(p1(), p1a1())
    y = p1a1()
    g = morphism([[0, 1, 0], [0, 0, 1]], x, y)
    h = morphism([[0, 1]], y, a1())
    f = morphism([[0, 0, 1]], x, a1())
    return f, g, h


class TestValidate:
    def test_half_plane_projection(self):
        d = validate_morphism(to_a1(ex13_r1_q2()))
        assert d.compatible and d.is_contraction and d.is_proper
        assert d.relative_dimension == 1

    def test_identity(self):
        d = validate_morphism(identity_morphism(p2()))
        assert d.compatible and d.is_contraction and d.is_proper
        assert d.relative_dimension == 0

    def test_index_two_cover(self):
        f = morphism([[2]], a1(), a1())
        d = validate_morphism(f)
        assert d.compatible and not d.is_contraction
        assert d.is_proper

    def test_affine_plane_over_line_not_proper(self):
        f = morphism([[0, 1]], a2(), a1())
        d = validate_morphism(f)
        assert d.compatible and d.is_contraction
        assert not d.is_proper

    def test_projection_to_point(self):
        assert validate_morphism(morphism([], p2(), point_fan())).is_proper
        assert not validate_morphism(morphism([], a2(), point_fan())).is_proper

    def test_incompatible_rejected(self):
        # the diagonal does not map the quadrant cones into half-lines
        with pytest.raises(ValidationError):
            morphism([[1, -1]], p2(), a1())


class TestGenericFiber:
    def test_half_plane_fiber_is_line(self):
        basis, fiber = generic_fiber_fan(to_a1(ex13_r1_q2()))
        assert basis == ((1, 0),)
        assert fiber == p1()

    def test_product_fiber(self):
        basis, fiber = generic_fiber_fan(to_a1(p1a1()))
        assert fiber == p1()

    def test_identity_fiber_is_point(self):
        basis, fiber = generic_fiber_fan(identity_morphism(p2()))
        assert basis == ()
        assert fiber == point_fan()


class TestPullback:
    def test_multiple_fiber(self):
        f = to_a1(ex13_r1_q2())
        assert pullback_multiplicities(f, 0) == (((-2, 5), 5),)

    def test_identity(self):
        f = identity_morphism(p2())
        for w, ray in enumerate(p2().rays):
            assert pullback_multiplicities(f, w) == ((ray, 1),)

    def test_reduced_fiber(self):
        f = to_a1(p1a1())
        assert pullback_multiplicities(f, 0) == (((0, 1), 1),)


class TestLcThreshold:
    def test_boundary_pair_gives_zero(self):
        for f in [to_a1(ex13_r1_q2()), to_a1(p1a1()), tower()[0]]:
            assert lc_threshold_over(f, boundary_divisor(f.source), 0) == 0

    def test_multiple_fiber_threshold(self):
        f = to_a1(ex13_r1_q2())
        assert lc_threshold_over(f, zero_divisor(f.source), 0) == Fraction(1, 5)

    def test_smooth_trivial_family(self):
        f = to_a1(p1a1())
        assert lc_threshold_over(f, zero_divisor(f.source), 0) == 1

    def test_unbounded_when_not_lc_on_fiber(self):
        src = p1a1()
        f = to_a1(src)
        coeffs = [2 if r == (1, 0) else 0 for r in src.rays]
        with pytest.raises(NotLogCanonicalOverBase):
            lc_threshold_over(f, divisor(src, coeffs), 0)

    def test_unimodular_invariance(self):
        rng = random.Random(11)
        src = ex13_r1_q2()
        f = to_a1(src)
        t0 = lc_threshold_over(f, zero_divisor(src), 0)
        for _ in range(5):
            u = random_unimodular(rng, 2)
            uinv = unimodular_inverse(u)
            twisted = fan(2, [tuple(r2 for r2 in _mv(u, r)) for r in src.rays], src.max_cones)
            g = morphism(mat_mul(f.matrix, uinv), twisted, a1())
            assert lc_threshold_over(g, zero_divisor(twisted), 0) == t0


def _mv(m, v):
    from toricmld.intlinalg import mat_vec

    return mat_vec(m, v)


class TestDiscriminant:
    def test_boundary_maps_to_boundary(self):
        for f in [to_a1(ex13_r1_q2()), to_a1(p1a1()), tower()[0], identity_morphism(p2())]:
            res = discriminant_divisor(f, boundary_divisor(f.source))
            assert res.divisor.coeffs == boundary_divisor(f.target).coeffs
            assert res.moduli_is_zero

    def test_horizontal_boundary_trivial_family(self):
        src = p1a1()
        f = to_a1(src)
        coeffs = [1 if r[1] == 0 else 0 for r in src.rays]
        res = discriminant_divisor(f, divisor(src, coeffs))
        assert res.divisor.coeffs == (0,)
        assert res.thresholds == (1,)

    def test_requires_rel_trivial(self):
        f = to_a1(ex13_r1_q2())
        with pytest.raises(NotRelTrivial):
            discriminant_divisor(f, zero_divisor(f.source))

    def test_composition_through_tower(self):
        f, g, h = tower()
        src = f.source
        coeffs = [0 if r == (0, 0, 1) else 1 for r in src.rays]
        b = divisor(src, coeffs)
        direct = discriminant_divisor(f, b).divisor
        mid = discriminant_divisor(g, b).divisor
        pushed = discriminant_divisor(h, mid).divisor
        assert direct.coeffs == pushed.coeffs


class TestAverage:
    def test_endpoints(self):
        src = ex13_r1_q2()
        b = divisor(src, [Fraction(1, 2), 0, Fraction(1, 3)])
        assert average_boundary(b, src, 1).coeffs == b.coeffs
        assert average_boundary(b, src, 0).coeffs == (1, 1, 1)

    def test_halfway_from_zero(self):
        src = p2()
        avg = average_boundary(zero_divisor(src), src, Fraction(1, 2))
        assert avg.coeffs == (Fraction(1, 2),) * 3

    def test_domain(self):
        with pytest.raises(DomainError):
            average_boundary(zero_divisor(p2()), p2(), 2)


class TestRelativeMld:
    def test_multiple_fiber_exact(self):
        f = to_a1(ex13_r1_q2())
        res = relative_mld(f, zero_divisor(f.source), (0,), Fraction(1, 2))
        assert res == Exact(Fraction(3, 5), (0, 1))

    def test_boundary_pair(self):
        f = to_a1(p1a1())
        res = relative_mld(f, boundary_divisor(f.source), (0,), Fraction(1, 2))
        assert isinstance(res, Exact)
        assert res.value == 0

    def test_identity_over_a_ray(self):
        f = identity_morphism(p2())
        res = relative_mld(f, zero_divisor(p2()), (0,), 1)
        assert isinstance(res, Exact)
        assert res.value == 1
        assert res.witness == p2().rays[0]

    def test_at_least_certificate(self):
        src = ex13_r1_q2()
        f = to_a1(src)
        coeffs = [1 if r == (-1, 0) else 0 for r in src.rays]
        res = relative_mld(f, divisor(src, coeffs), (0,), Fraction(1, 10))
        assert res == CertifiedAtLeast(Fraction(1, 5))

    def test_exact_found_by_search(self):
        src = ex13_r1_q2()
        f = to_a1(src)
        coeffs = [1 if r == (-1, 0) else 0 for r in src.rays]
        res = relative_mld(f, divisor(src, coeffs), (0,), Fraction(1, 2))
        assert res == Exact(Fraction(1, 5), (-1, 1))

    def test_witness_status(self):
        src = a2()
        f = identity_morphism(src)
        coeffs = [1 if r == (0, 1) else 0 for r in src.rays]
        res = relative_mld(f, divisor(src, coeffs), (0, 1), 2, radius=3)
        assert res == Witness((1, 1), 1)

    def test_indeterminate_status(self):
        src = a2()
        f = identity_morphism(src)
        coeffs = [1 if r == (0, 1) else 0 for r in src.rays]
        res = relative_mld(f, divisor(src, coeffs), (0, 1), Fraction(1, 2), radius=3)
        assert res == Indeterminate(3)

    def test_minus_infinity(self):
        src = p1a1()
        f = to_a1(src)
        coeffs = [2 if r == (1, 0) else 0 for r in src.rays]
        res = relative_mld(f, divisor(src, coeffs), (0,), Fraction(1, 2))
        assert isinstance(res, Exact)
        assert res.value is MINUS_INFINITY
        from toricmld.divisors import log_discrepancy_function

        a = log_discrepancy_function(src, divisor(src, coeffs))
        assert a(res.witness) < 0

    def test_dominates_global_mld(self):
        f = to_a1(ex13_r1_q2())
        b = zero_divisor(f.source)
        rel = relative_mld(f, b, (0,), Fraction(1, 2))
        assert rel.value == global_mld(f.source, b).value == Fraction(3, 5)

    def test_bad_cone(self):
        f = to_a1(ex13_r1_q2())
        with pytest.raises(DomainError):
            relative_mld(f, zero_divisor(f.source), (), 1)
        with pytest.raises(NotACone):
            relative_mld(f, zero_divisor(f.source), (0, 1), 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_relint_test_matches_locate(seed):
    """The pulled-back H-representation test that relative_mld uses agrees
    with locate on the target fan, for every nonempty cone of a random fan.
    The source is the target in other coordinates, so the pull-back through
    the matrix is exercised too."""
    rng = random.Random(seed)
    tgt = random_fan(rng)
    n = tgt.rank
    u = random_gl(rng, n)
    f = morphism(unimodular_inverse(u), twist_fan(tgt, u), tgt)
    taus = sorted(
        {
            tuple(c[i] for i in face)
            for c in tgt.max_cones
            for face in _faces_of(tgt.cone_gens(c), n)
            if face
        }
    )
    ys = [(0,) * n] + [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
    for tau in taus:
        gens = tgt.cone_gens(tau)
        ys.append(tuple(sum(rng.randint(1, 3) * g[j] for g in gens) for j in range(n)))
    located = [(mat_vec(u, y), locate(tgt, y)) for y in ys]
    for tau in taus:
        in_relint = _relint_test(f, *hrep(tgt.cone_gens(tau), n))
        for x, loc in located:
            assert in_relint(x) == (loc is not None and loc.cone == tau)


def _rel_mld_cases():
    """(morphism, boundary, base cone, eps) reaching each Exact path: the
    sublevel enumeration, the LP bound, the capped search and -infinity."""
    ex13 = ex13_r1_q2()
    p1a1_src = p1a1()
    toward = [1 if r == (-1, 0) else 0 for r in ex13.rays]
    above_one = [2 if r == (1, 0) else 0 for r in p1a1_src.rays]
    return [
        (to_a1(ex13), zero_divisor(ex13), (0,), Fraction(1, 2)),
        (to_a1(p1a1_src), boundary_divisor(p1a1_src), (0,), Fraction(1, 2)),
        (identity_morphism(p2()), zero_divisor(p2()), (0,), 1),
        (to_a1(ex13), divisor(ex13, toward), (0,), Fraction(1, 2)),
        (to_a1(p1a1_src), divisor(p1a1_src, above_one), (0,), Fraction(1, 2)),
    ]


@pytest.mark.parametrize("case", range(len(_rel_mld_cases())))
def test_relative_mld_coordinate_invariant(case):
    """GL(Z) changes of coordinates on source and target leave every Exact
    relative mld value unchanged.  These cones are simplicial, so the search
    radius caps multiples of the cone generators, which a change of
    coordinates carries along; a small radius keeps the search case cheap."""
    rng = random.Random(case)
    f, b, tau, eps = _rel_mld_cases()[case]
    res = relative_mld(f, b, tau, eps, radius=100)
    assert isinstance(res, Exact)
    for _ in range(4):
        u, w = random_gl(rng, f.source.rank), random_gl(rng, f.target.rank)
        moved_b = twist_divisor(b, u)
        moved_tgt = twist_fan(f.target, w)
        g = morphism(
            mat_mul(mat_mul(w, f.matrix), unimodular_inverse(u)), moved_b.fan, moved_tgt
        )
        moved_tau = tuple(
            sorted(moved_tgt.rays.index(mat_vec(w, f.target.rays[i])) for i in tau)
        )
        moved = relative_mld(g, moved_b, moved_tau, eps, radius=100)
        assert isinstance(moved, Exact)
        assert moved.value == res.value
