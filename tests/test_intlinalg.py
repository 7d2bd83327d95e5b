import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from toricmld.errors import DomainError, NotPrimitive, ZeroVector
from toricmld.intlinalg import (
    _det_adjugate,
    adjugate,
    content,
    det,
    dot,
    hermite_normal_form,
    identity,
    is_primitive,
    is_zero,
    kernel_basis,
    lll_reduce,
    mat_mul,
    mat_vec,
    minor_normal,
    primitive,
    quotient_projection,
    rank,
    smith_normal_form,
    solve_exact,
    transpose,
    vec_add,
)

ints = st.integers(min_value=-30, max_value=30)


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda n: st.lists(
                st.lists(ints, min_size=n, max_size=n).map(tuple),
                min_size=m,
                max_size=m,
            ).map(tuple)
        )
    )


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((-3, 6, 9)) == (-1, 2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert is_primitive((2, 3))
    assert not is_primitive((2, 4))


def test_primitive_zero_rejected():
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))


def test_hnf_example():
    m = ((2, 4), (1, 3))
    h, u = hermite_normal_form(m)
    assert h == ((1, 1), (0, 2))
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1


def test_hnf_zero_rows_sink():
    m = ((0, 0), (3, 6))
    h, u = hermite_normal_form(m)
    assert h == ((3, 6), (0, 0))
    assert mat_mul(u, m) == h


def hnf_shape_ok(h):
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        if pivots and pivots[-1] is None:
            return False
        j = nz[0]
        if pivots and pivots[-1] is not None and j <= pivots[-1]:
            return False
        if row[j] <= 0:
            return False
        pivots.append(j)
    cols = {}
    for i, j in enumerate(pivots):
        if j is not None:
            cols[j] = i
    for j, i in cols.items():
        piv = h[i][j]
        for k in range(i):
            if not (0 <= h[k][j] < piv):
                return False
    return True


@settings(max_examples=200)
@given(matrices())
def test_hnf_properties(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1
    assert hnf_shape_ok(h)


@settings(max_examples=200)
@given(matrices())
def test_kernel_is_saturated_kernel(m):
    ker = kernel_basis(m)
    cols = len(m[0])
    assert len(ker) == cols - rank(m)
    for v in ker:
        assert mat_vec(m, v) == (0,) * len(m)
    if ker:
        d, _, _ = smith_normal_form(ker)
        facs = [d[i][i] for i in range(len(ker))]
        assert facs == [1] * len(ker)


def test_kernel_example():
    ker = kernel_basis(((1, 2, 3),))
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    # saturation: (1,1,-1) must be an integer combination
    sol = solve_exact(transpose(ker), (1, 1, -1))
    assert sol is not None and all(c.denominator == 1 for c in sol)


@settings(max_examples=150)
@given(matrices())
def test_snf_properties(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0


@settings(max_examples=150)
@given(matrices(3), st.lists(ints, min_size=1, max_size=3))
def test_solve_exact_solves(m, b):
    b = tuple(b[: len(m)]) + (0,) * max(0, len(m) - len(b))
    x = solve_exact(m, b)
    if x is not None:
        assert mat_vec(m, x) == tuple(Fraction(c) for c in b)


def test_solve_exact_inconsistent():
    assert solve_exact(((1, 1), (2, 2)), (1, 3)) is None


def test_det_examples():
    assert det(((2, 4), (1, 3))) == 2
    assert det(((0, 1), (1, 0))) == -1
    assert det(identity(5)) == 1
    assert det(((1, 2), (2, 4))) == 0


@settings(max_examples=200)
@given(st.lists(ints, min_size=2, max_size=5))
def test_quotient_projection_properties(entries):
    v = tuple(entries)
    if all(x == 0 for x in v):
        return
    v = primitive(v)
    p = quotient_projection(v)
    assert len(p) == len(v) - 1
    assert mat_vec(p, v) == (0,) * (len(v) - 1)
    d, _, _ = smith_normal_form(p)
    assert [d[i][i] for i in range(len(p))] == [1] * len(p)


def test_quotient_projection_rejects():
    with pytest.raises(NotPrimitive):
        quotient_projection((2, 4))
    with pytest.raises(ZeroVector):
        quotient_projection((0, 0))


small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(small, min_size=n, max_size=n).map(tuple), min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_minor_normal_is_orthogonal_and_zero_iff_rank_drops(case):
    n, rows = case
    normal = minor_normal(tuple(rows), n)
    assert len(normal) == n
    assert all(sum(a * b for a, b in zip(row, normal)) == 0 for row in rows)
    assert (normal == (0,) * n) == (rank(tuple(rows)) < n - 1)
    if n > 1 and any(normal):
        assert kernel_basis(tuple(rows)) in ((primitive(normal),), (primitive(tuple(-x for x in normal)),))


def test_minor_normal_examples():
    assert minor_normal((), 1) == (1,)
    assert minor_normal(((1, 0, 0), (0, 1, 0)), 3) == (0, 0, 1)
    assert minor_normal(((1, 2),), 2) == (2, -1)
    assert minor_normal(((1, 2, 3), (2, 4, 6)), 3) == (0, 0, 0)


def gram_schmidt(basis):
    """Fraction Gram–Schmidt: the orthogonal vectors b*_i and mu[i][j]."""
    ortho, mu = [], [[Fraction(0)] * len(basis) for _ in basis]
    for i, v in enumerate(basis):
        w = [Fraction(x) for x in v]
        for j, o in enumerate(ortho):
            mu[i][j] = sum(a * b for a, b in zip(v, o)) / sum(a * a for a in o)
            w = [a - mu[i][j] * b for a, b in zip(w, o)]
        ortho.append(w)
    return ortho, mu


def random_basis(rng, n, dim):
    """n independent vectors of Z^dim, often with one long, skewed vector
    so that the reduction has work to do."""
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(n)]
        if rng.random() < 0.5:
            k = rng.randint(10, 10**4)
            rows[-1] = [a + k * b for a, b in zip(rows[-1], rows[0])]
        rows = tuple(map(tuple, rows))
        if rank(rows) == n:
            return rows


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 10**6))
def test_lll_reduce_is_unimodular_size_reduced_and_lovasz(n, extra, seed):
    basis = random_basis(random.Random(seed), n, n + extra)
    h = lll_reduce(basis)
    assert abs(det(h)) == 1
    reduced = mat_mul(h, basis)
    ortho, mu = gram_schmidt(reduced)
    norm = [sum(a * a for a in o) for o in ortho]
    for i in range(n):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
    for k in range(1, n):
        assert norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norm[k - 1]


def test_lll_reduce_rejects_dependent_vectors():
    with pytest.raises(DomainError):
        lll_reduce(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


scalars = st.one_of(ints, st.fractions(min_value=-30, max_value=30, max_denominator=7))


@st.composite
def vector_pairs(draw):
    """Two int or Fraction vectors of one length, 0-5."""
    n = draw(st.integers(0, 5))
    vec = st.lists(scalars, min_size=n, max_size=n).map(tuple)
    return draw(vec), draw(vec)


@settings(max_examples=300)
@given(vector_pairs())
def test_vector_kernels_match_generator_forms(pair):
    """dot, is_zero, content and vec_add on int and Fraction vectors of
    length 0-5 agree, value and type, with the generator forms they
    replaced."""
    u, v = pair
    for got, want in (
        (dot(u, v), helpers.reference_dot(u, v)),
        (is_zero(u), helpers.reference_is_zero(u)),
        (is_zero(tuple(0 * x for x in u)), True),
        (content(u), helpers.reference_content(u)),
        (vec_add(u, v), helpers.reference_vec_add(u, v)),
    ):
        assert got == want and type(got) is type(want)
        if isinstance(got, tuple):
            assert [type(x) for x in got] == [type(x) for x in want]


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        vec_add((1, 2), (1,))
    with pytest.raises(ValueError):
        mat_vec(((1, 2, 3), (4, 5)), (1, 1, 1))


@settings(max_examples=200)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple),
            min_size=n,
            max_size=n,
        ).map(tuple)
    )
)
def test_one_pass_det_adjugate_matches_det_and_adjugate(m):
    """_det_adjugate gives det's value, and adjugate's matrix exactly when
    the matrix is nonsingular (None otherwise)."""
    d, adj = _det_adjugate(m)
    assert d == det(m)
    if d:
        assert adj == adjugate(m)
        assert mat_mul(m, adj) == tuple(tuple(d * x for x in row) for row in identity(len(m)))
    else:
        assert adj is None
        with pytest.raises(DomainError):
            adjugate(m)
