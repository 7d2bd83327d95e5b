import math
import operator
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gens_with_invariant_factors, reference_box_points
from toricmld.cones import (
    barycentric,
    box_points,
    contains,
    covered_by,
    cut,
    extreme_rays,
    hrep,
    is_pointed,
    relint_contains,
    relint_point,
    triangulate,
)
from toricmld.errors import NotACone
from toricmld.intlinalg import dot, rank
from toricmld.ratlp import Optimal, cone_lp, solve_min


def in_cone_lp(gens, x):
    """Independent membership test: feasibility of x = G lam, lam >= 0."""
    dim = len(x)
    eq = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    # constraint matrix applied to points of the cone: identity => G lam = x
    p = cone_lp(gens, eq, [Fraction(c) for c in x], [Fraction(0)] * dim)
    return isinstance(solve_min(p), Optimal)


small = st.integers(min_value=-4, max_value=4)


def gen_sets(dim_max=3, n_max=4):
    return st.integers(min_value=1, max_value=dim_max).flatmap(
        lambda d: st.lists(
            st.lists(small, min_size=d, max_size=d).map(tuple).filter(lambda v: any(v)),
            min_size=1,
            max_size=n_max,
        ).map(tuple)
    )


@settings(max_examples=120, deadline=None)
@given(gen_sets(), st.data())
def test_hrep_matches_lp_membership(gens, data):
    dim = len(gens[0])
    eqs, ineqs = hrep(gens, dim)
    for g in gens:
        assert contains(gens, dim, g)
    x = tuple(data.draw(st.lists(small, min_size=dim, max_size=dim)))
    assert contains(gens, dim, x) == in_cone_lp(gens, x)


@settings(max_examples=100, deadline=None)
@given(gen_sets(), st.data())
def test_cut_is_intersection(gens, data):
    dim = len(gens[0])
    m = tuple(data.draw(st.lists(small, min_size=dim, max_size=dim)))
    if all(x == 0 for x in m):
        m = (1,) + (0,) * (dim - 1)
    half = cut(gens, dim, m, 1)
    x = tuple(data.draw(st.lists(small, min_size=dim, max_size=dim)))
    lhs = bool(half) and in_cone_lp(half, x)
    rhs = in_cone_lp(gens, x) and dot(m, x) >= 0
    if not any(x):
        lhs = True
    assert lhs == rhs


def test_relint():
    quad = ((1, 0), (0, 1))
    assert relint_contains(quad, 2, (1, 1))
    assert not relint_contains(quad, 2, (1, 0))
    assert relint_point(quad) == (1, 1)
    ray = ((1, 0),)
    assert relint_contains(ray, 2, (3, 0))
    assert not relint_contains(ray, 2, (0, 0))
    assert not relint_contains(ray, 2, (1, 1))


def test_pointedness():
    assert is_pointed(((1, 0), (0, 1)), 2)
    assert not is_pointed(((1, 0), (-1, 0)), 2)
    assert is_pointed(((1, 0, 0), (0, 0, 1), (-1, 0, 5)), 3)


def test_extreme_rays_drop_redundant():
    gens = ((1, 0), (1, 1), (0, 1), (2, 2))
    assert extreme_rays(gens, 2) == ((0, 1), (1, 0))


def test_covered_by_complete_fan():
    p2 = (((1, 0), (0, 1)), ((0, 1), (-1, -1)), ((-1, -1), (1, 0)))
    assert covered_by(((1, 1), (-1, 0)), 2, p2) is None
    assert covered_by(((1, 0), (0, 1)), 2, [((1, 0), (1, 1))]) is not None


def test_triangulate_square_cone():
    sq = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    tri = triangulate(sq, 3)
    assert all(len(t) == 3 for t in tri)
    eqs, ineqs = hrep(sq, 3)
    for t in tri:
        for i in t:
            assert contains(sq, 3, sq[i])


def test_triangulate_rejects_lines():
    with pytest.raises(NotACone):
        triangulate(((1, 0), (-1, 0)), 2)


@settings(max_examples=80, deadline=None)
@given(gen_sets(), st.data())
def test_triangulation_covers(gens, data):
    dim = len(gens[0])
    if not is_pointed(gens, dim):
        return
    tri = triangulate(gens, dim)
    x = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=5), min_size=dim, max_size=dim)))
    inside = contains(gens, dim, x)
    in_simplex = any(
        (b := barycentric(tuple(gens[i] for i in t), x)) is not None and all(c >= 0 for c in b)
        for t in tri
        if t
    )
    if not any(x):
        in_simplex = True
    assert inside == in_simplex


def test_box_points_example():
    pts = box_points(((1, 0), (1, 2)), 2)
    assert sorted(p for p, _ in pts) == [(0, 0), (1, 1)]
    for p, c in pts:
        assert all(0 <= t < 1 for t in c)


def test_box_points_lower_dimensional():
    pts = box_points(((1, 1, 0), (1, -1, 0)), 3)
    assert sorted(p for p, _ in pts) == [(0, 0, 0), (1, 0, 0)]


@settings(max_examples=80, deadline=None)
@given(gen_sets(dim_max=3, n_max=3))
def test_box_count_is_index(gens):
    from toricmld.intlinalg import rank

    dim = len(gens[0])
    if rank(gens) != len(gens):
        return
    pts = box_points(gens, dim)
    assert len(set(p for p, _ in pts)) == len(pts)
    for p, c in pts:
        assert all(0 <= t < 1 for t in c)
        assert tuple(sum(c[i] * g[j] for i, g in enumerate(gens)) for j in range(dim)) == p


def _assert_same_as_reference(gens, dim):
    new = box_points(gens, dim)
    ref = reference_box_points(gens, dim)
    assert new == ref
    # Fractions compare by value; the reprs pin the exact reduced form too
    assert [repr(c) for _, c in new] == [repr(c) for _, c in ref]


@settings(max_examples=120, deadline=None)
@given(gen_sets(dim_max=4, n_max=4))
def test_box_points_match_fraction_reference(gens):
    """Residue enumeration equals the Fraction path, point for point and in
    order, on full-rank and lower-dimensional generator sets."""
    if rank(gens) != len(gens):
        return
    _assert_same_as_reference(gens, len(gens[0]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([1, 1, 2, 3]), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10_000),
)
def test_box_points_match_reference_repeated_factors(steps, extra_dim, seed):
    """Generators whose Smith form has repeated invariant factors, e.g.
    (2, 2) or (1, 3, 3), in a span of dimension d inside Z^(d + extra_dim)."""
    factors = list(accumulate(steps, operator.mul))
    dim = len(factors) + extra_dim
    gens = gens_with_invariant_factors(random.Random(seed), factors, dim)
    _assert_same_as_reference(gens, dim)
    assert len(box_points(gens, dim)) == math.prod(factors)


def test_box_points_repeated_factor_examples():
    # det 4 with invariant factors (2, 2): the four half-lattice corners
    pts = box_points(((2, 0), (0, 2)), 2)
    assert [p for p, _ in pts] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    _assert_same_as_reference(((2, 0), (0, 2)), 2)
    _assert_same_as_reference(((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)), 4)
