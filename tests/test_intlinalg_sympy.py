"""sympy as an independent oracle for intlinalg: solve_exact, det, rank,
the adjugate and the Smith normal form.  sympy is a test dependency only; without it these
tests are skipped."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402

from toricmld.errors import DomainError  # noqa: E402
from toricmld.intlinalg import adjugate, det, rank, smith_normal_form, solve_exact  # noqa: E402

ints = st.integers(min_value=-9, max_value=9)
rationals = st.one_of(ints, st.fractions(min_value=-5, max_value=5, max_denominator=7))


def to_sympy(rows, ncols):
    entries = [Fraction(x) for row in rows for x in row]
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator) for x in entries])


@st.composite
def matrices(draw, entries, max_rows=4, max_cols=4, square=False):
    """Matrices whose later rows are often combinations of earlier ones,
    so that rank-deficient matrices are common."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            s, t = draw(entries), draw(entries)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(s * x + t * y for x, y in zip(u, v)))
        else:
            rows.append(tuple(draw(st.lists(entries, min_size=ncols, max_size=ncols))))
    return tuple(rows)


@settings(max_examples=150, deadline=None)
@given(matrices(rationals), st.data())
def test_solve_exact_matches_sympy(a, data):
    """None exactly when rank(A) < rank([A|b]); otherwise sympy's
    gauss_jordan_solve with every free parameter set to 0."""
    ncols = len(a[0])
    if data.draw(st.booleans()):
        # a consistent right-hand side: b = A x for some x
        x = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        b = tuple(sum(Fraction(r) * Fraction(v) for r, v in zip(row, x)) for row in a)
    else:
        b = tuple(data.draw(st.lists(rationals, min_size=len(a), max_size=len(a))))
    sa = to_sympy(a, ncols)
    sb = to_sympy([(v,) for v in b], 1)
    ours = solve_exact(a, b)
    if sa.rank() < sa.row_join(sb).rank():
        assert ours is None
        return
    sol, params = sa.gauss_jordan_solve(sb)
    sol = sol.subs({p: 0 for p in params})
    expected = tuple(Fraction(int(v.p), int(v.q)) for v in sol)
    assert ours == expected
    assert all(type(v) is Fraction for v in ours)


@settings(max_examples=150, deadline=None)
@given(matrices(ints, max_rows=5, square=True))
def test_det_matches_sympy(m):
    assert det(m) == to_sympy(m, len(m)).det()


@st.composite
def factored_matrices(draw):
    """(A B, rows, cols) for a random rows x k factor A and k x cols factor
    B, so that the rank is at most k: rank-deficient and non-square
    matrices are common, and 0 rows or 0 columns occur."""
    nrows, ncols, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    cols = list(zip(*b)) if b else [()] * ncols
    m = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)
    return m, nrows, ncols


@settings(max_examples=300, deadline=None)
@given(factored_matrices())
def test_rank_matches_sympy(case):
    m, nrows, ncols = case
    assert rank(m) == to_sympy(m, ncols).rank()


@st.composite
def nonsingular_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = st.lists(st.lists(ints, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n)
    return tuple(draw(rows.filter(lambda m: det(tuple(m)) != 0)))


@settings(max_examples=200, deadline=None)
@given(nonsingular_matrices())
def test_adjugate_matches_sympy(m):
    expected = to_sympy(m, len(m)).adjugate()
    assert adjugate(m) == tuple(tuple(int(x) for x in row) for row in expected.tolist())


@settings(max_examples=100, deadline=None)
@given(matrices(ints, max_rows=6, square=True).filter(lambda m: det(m) == 0))
def test_adjugate_of_a_singular_matrix_raises(m):
    with pytest.raises(DomainError):
        adjugate(m)


@settings(max_examples=150, deadline=None)
@given(matrices(ints, max_rows=4, max_cols=4))
def test_snf_diagonal_matches_sympy(m):
    """The invariant factors agree up to units (sign)."""
    d, _, _ = smith_normal_form(m)
    expected = sympy_snf(to_sympy(m, len(m[0])), domain=ZZ)
    k = min(len(m), len(m[0]))
    assert [d[i][i] for i in range(k)] == [abs(int(expected[i, i])) for i in range(k)]


def test_examples():
    assert solve_exact(((1, 1), (2, 2)), (1, 3)) is None
    a = ((Fraction(1, 2), 1, 0), (1, 2, 0))
    assert solve_exact(a, (1, 2)) == (Fraction(2), Fraction(0), Fraction(0))
    assert det(((0, 2, 1), (3, 0, 0), (1, 1, 1))) == to_sympy(((0, 2, 1), (3, 0, 0), (1, 1, 1)), 3).det()
