"""Differential properties of the fraction-free exact elimination.

ratlp.simplex_min/solve_min/minimize, intlinalg.solve_exact and the test
helper invert_rational (intlinalg.gauss_jordan on [m | I]) keep each row
as integer numerators over one positive row denominator and make the
pivots of the all-Fraction versions they replaced (tests/helpers.py keeps
those as reference_simplex_min, reference_solve_min,
reference_solve_exact_fractions and reference_invert_rational).
Every result must equal the reference's to the repr: the outcome, every
Fraction of the certificate, and the types.  That holds too when one
ratlp.cone_region, phase one run once, is minimized under many objectives
in turn.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    invert_rational,
    reference_invert_rational,
    reference_simplex_min,
    reference_solve_exact_fractions,
    reference_solve_min,
    unimodular_inverse,
)
from toricmld.errors import MalformedProgram
from toricmld.intlinalg import identity, mat_mul, solve_exact
from toricmld.ratlp import (
    Infeasible,
    Optimal,
    Unbounded,
    cone_lp,
    cone_region,
    minimize,
    simplex_min,
    solve_min,
)

small = st.integers(min_value=-3, max_value=3)
# ints and Fractions with denominators up to 6, so rows need different
# row denominators and the objective its own
rationals = st.one_of(
    small,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the exception, not only the result, must agree
        return f"raised {type(exc).__name__}: {exc}"


@st.composite
def systems(draw, ncols=None, min_rows=0, max_rows=4):
    """(a, b): some rows repeated or scaled copies of others, some zero,
    and rhs of either sign, so redundant, inconsistent and
    underdetermined systems all occur."""
    nrows = draw(st.integers(min_rows, max_rows))
    if ncols is None:
        ncols = draw(st.integers(1, 5))
    a = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["new", "new", "copy", "zero"]))
        if kind == "copy" and a:
            s = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            a.append([s * x for x in draw(st.sampled_from(a))])
        elif kind == "zero":
            a.append([0] * ncols)
        else:
            a.append(draw(st.lists(rationals, min_size=ncols, max_size=ncols)))
    b = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    return a, b


@st.composite
def programs(draw):
    """Cone programs with Fraction equations, rhs and objective; repeated
    generators and rhs 0 make degenerate and tied ratio tests common."""
    dim = draw(st.integers(1, 4))
    gens = draw(
        st.lists(
            st.lists(small, min_size=dim, max_size=dim).filter(any).map(tuple),
            min_size=1,
            max_size=6,
        )
    )
    if draw(st.booleans()):
        gens.append(draw(st.sampled_from(gens)))
    eq, rhs = draw(systems(ncols=dim, max_rows=3))
    objective = draw(st.lists(rationals, min_size=dim, max_size=dim))
    return cone_lp(gens, eq, rhs, objective)


@settings(max_examples=250, deadline=None)
@given(programs())
def test_solve_min_matches_fraction_simplex(p):
    assert outcome(solve_min, p) == outcome(reference_solve_min, p)


@settings(max_examples=150, deadline=None)
@given(programs(), st.data())
def test_one_region_serves_every_objective(p, data):
    """One region is minimized under several objectives, interleaved, each
    asked twice; every result equals a solve from scratch by the reference.
    Phase two must leave the region's tableau as it found it."""
    region = cone_region(p.generators, p.eq_matrix, p.rhs)
    before = repr(region)
    dim = len(p.objective)
    objectives = [p.objective, (0,) * dim]
    objectives += data.draw(st.lists(st.lists(rationals, min_size=dim, max_size=dim), max_size=3))
    objectives.append([-x for x in objectives[-1]])
    order = data.draw(st.permutations(list(range(len(objectives))) * 2))
    for i in order:
        q = cone_lp(p.generators, p.eq_matrix, p.rhs, objectives[i])
        assert outcome(minimize, region, objectives[i]) == outcome(reference_solve_min, q)
    assert repr(region) == before


def test_region_reuse_meets_every_outcome():
    """Over fixed random programs, each region minimized under five
    objectives in turn: empty regions, unbounded objectives and optima all
    occur often, on regions that also gave another outcome before."""
    rng = random.Random(2025)
    kinds = Counter()
    for _ in range(400):
        p = _random_program(rng)
        region = cone_region(p.generators, p.eq_matrix, p.rhs)
        seen = set()
        for _ in range(5):
            c = [rng.choice([0, 1, -1, Fraction(1, 3), Fraction(-5, 4)]) for _ in p.objective]
            res = minimize(region, c)
            q = cone_lp(p.generators, p.eq_matrix, p.rhs, c)
            assert repr(res) == repr(reference_solve_min(q))
            kinds[type(res)] += 1
            seen.add(type(res))
        kinds["both_optimal_and_unbounded"] += seen == {Optimal, Unbounded}
    assert kinds[Infeasible] >= 100
    assert kinds[Unbounded] >= 100
    assert kinds[Optimal] >= 100
    assert kinds["both_optimal_and_unbounded"] >= 30


def test_region_shape_checks():
    with pytest.raises(MalformedProgram):
        cone_region([], [], [])
    with pytest.raises(MalformedProgram):
        cone_region([(1, 0), (1,)], [], [])
    with pytest.raises(MalformedProgram):
        cone_region([(0, 0)], [], [])
    with pytest.raises(MalformedProgram):
        cone_region([(1, 0)], [(1, 0)], [])
    with pytest.raises(MalformedProgram):
        minimize(cone_region([(1, 0)], [], []), [1])


@settings(max_examples=200, deadline=None)
@given(systems(), st.data())
def test_simplex_min_matches_fraction_simplex(system, data):
    """simplex_min on raw data: Fraction costs, negative rhs (flipped rows),
    zero and redundant rows."""
    a, b = system
    ncols = len(a[0]) if a else data.draw(st.integers(1, 5))
    c = data.draw(st.lists(rationals, min_size=ncols, max_size=ncols))
    assert outcome(simplex_min, c, a, b) == outcome(reference_simplex_min, c, a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_simplex_min_matches_on_degenerate_programs(data):
    """Small nonnegative entries and rhs in {0, 1, 2} make the ratio test tie
    often, after the first pivots too, where basis order and row order
    differ."""
    nrows, ncols = data.draw(st.integers(2, 4)), data.draw(st.integers(3, 6))
    entry = st.integers(0, 2)
    a = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    b = data.draw(st.lists(entry, min_size=nrows, max_size=nrows))
    c = data.draw(st.lists(st.integers(-2, 1), min_size=ncols, max_size=ncols))
    assert outcome(simplex_min, c, a, b) == outcome(reference_simplex_min, c, a, b)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_exact_matches_fraction_elimination(system):
    a, b = system
    assert outcome(solve_exact, a, b) == outcome(reference_solve_exact_fractions, a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: systems(ncols=n, min_rows=n, max_rows=n)))
def test_invert_rational_matches_fraction_elimination(system):
    """Square matrices, singular ones (zero or repeated rows) included."""
    m, _ = system
    assert outcome(invert_rational, m) == outcome(reference_invert_rational, m)


def test_unimodular_inverse():
    m = ((2, 3), (1, 2))
    inv = unimodular_inverse(m)
    assert mat_mul(m, inv) == identity(2)
    with pytest.raises(ValueError):
        unimodular_inverse(((2, 0), (0, 1)))


def test_invert_rational():
    m = ((2, 0), (0, 4))
    inv = invert_rational(m)
    assert inv == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4)))


def _random_program(rng):
    dim, ng = rng.randint(1, 4), rng.randint(1, 7)
    gens = []
    while len(gens) < ng:
        g = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(g):
            gens.append(g)
    eq = [[rng.choice([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]) for _ in range(dim)]
          for _ in range(rng.randint(0, 3))]
    rhs = [rng.choice([0, 0, 1, -1, 2, Fraction(-3, 2)]) for _ in eq]
    objective = [rng.choice([0, 1, -1, Fraction(1, 3), Fraction(-5, 4)]) for _ in range(dim)]
    return cone_lp(gens, eq, rhs, objective)


def test_every_outcome_is_compared():
    """Over fixed random programs, every outcome occurs often, and so do
    degenerate optima (a multiplier at 0)."""
    rng = random.Random(2024)
    kinds = Counter()
    for _ in range(1500):
        p = _random_program(rng)
        res = solve_min(p)
        assert repr(res) == repr(reference_solve_min(p))
        kinds[type(res)] += 1
        if isinstance(res, Optimal) and any(x == 0 for x in res.multipliers):
            kinds["optimal_with_zero_multiplier"] += 1
    assert kinds[Optimal] >= 100
    assert kinds[Infeasible] >= 100
    assert kinds[Unbounded] >= 100
    assert kinds["optimal_with_zero_multiplier"] >= 50


def test_tied_ratio_test_breaks_on_smallest_basic_index():
    """Both rows tie in the first ratio test; the row whose artificial has
    the smaller index leaves, and that decides the dual reported for this
    degenerate program: swapping the rows swaps which row carries it."""
    c = [-1, 0, 0]
    a = [[1, 1, 0], [2, 0, 1]]
    b = [1, 2]
    lam = (Fraction(1), Fraction(0), Fraction(0))
    res = simplex_min(c, a, b)
    assert repr(res) == repr(reference_simplex_min(c, a, b))
    assert res == ("optimal", lam, (Fraction(-1), Fraction(0)))
    res = simplex_min(c, a[::-1], b[::-1])
    assert repr(res) == repr(reference_simplex_min(c, a[::-1], b[::-1]))
    assert res == ("optimal", lam, (Fraction(-1, 2), Fraction(0)))


def test_negative_pivot_and_fraction_rows():
    """A negative rhs flips its row; pivots on negative entries of solve_exact
    and Fraction rows of different denominators give the reference values."""
    a = [[Fraction(-2, 3), Fraction(1, 2), 0], [0, Fraction(-5, 7), Fraction(3, 4)], [1, 1, 1]]
    b = [Fraction(-1, 5), Fraction(2, 9), -3]
    assert repr(solve_exact(a, b)) == repr(reference_solve_exact_fractions(a, b))
    assert solve_exact(a, b) is not None
    c = [Fraction(1, 2), Fraction(-1, 3), 1]
    assert repr(simplex_min(c, a, b)) == repr(reference_simplex_min(c, a, b))
