import gc
import math
import operator
import random
from fractions import Fraction
from itertools import accumulate, product
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    capped_points,
    cones_of,
    gens_with_invariant_factors,
    random_fan,
    reference_box_points,
    reference_box_points_rows,
    reference_box_residues,
    reference_hrep,
    reference_triangulate,
)
from toricmld import cones, intlinalg
from toricmld.cones import (
    _irredundant,
    barycentric,
    box_minimum,
    box_points,
    box_runs,
    box_size,
    cone_runs,
    contains,
    covered_by,
    cut,
    extreme_rays,
    hrep,
    is_pointed,
    relint_contains,
    relint_point,
    span_coordinates,
    span_lattice_basis,
    triangulate,
)
from toricmld.errors import NotACone
from toricmld.intlinalg import dot, is_zero, rank, transpose
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


@st.composite
def spanned_gen_sets(draw):
    """(gens, dim): 0-8 generators in Z^dim, dim 1-5, drawn as integer
    combinations of k <= dim random vectors, so that spans of every
    dimension occur; zero and repeated generators included."""
    dim = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=dim))
    vec = st.lists(small, min_size=dim, max_size=dim)
    basis = draw(st.lists(vec, min_size=k, max_size=k))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=k, max_size=k)
    n = draw(st.integers(min_value=0, max_value=7))
    gens = [
        tuple(sum(c * b[j] for c, b in zip(cs, basis)) for j in range(dim))
        for cs in draw(st.lists(coeffs, min_size=n, max_size=n))
    ]
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    return tuple(gens), dim


@settings(max_examples=300, deadline=None)
@given(spanned_gen_sets())
def test_hrep_matches_rational_lift_reference(case):
    gens, dim = case
    assert hrep(gens, dim) == reference_hrep(gens, dim)


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


@settings(max_examples=100, deadline=None)
@given(gen_sets(n_max=6))
def test_irredundant_spans_the_same_cone(gens):
    dim = len(gens[0])
    kept = _irredundant(gens, dim)
    assert set(kept) <= set(gens)
    assert all(contains(kept, dim, g) for g in gens)
    for g in kept:
        others = tuple(h for h in kept if h != g)
        assert not others or not contains(others, dim, g)


def test_irredundant_keeps_a_line():
    # the upper half-plane: (-1, 0) and (0, 1) lie in the cone of the rest
    gens = ((1, 0), (-1, 0), (0, 1), (1, 1), (-2, 0))
    assert _irredundant(gens, 2) == ((1, 0), (1, 1), (-2, 0))


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


def _assert_in_box(gens, pts):
    """Each point's coefficients, from an exact rational solve, lie in
    [0, 1)^d and reconstruct the point."""
    dim = len(pts[0])
    for p in pts:
        c = barycentric(gens, p)
        assert c is not None
        assert all(0 <= t < 1 for t in c)
        assert tuple(sum(c[i] * g[j] for i, g in enumerate(gens)) for j in range(dim)) == p


def test_box_points_example():
    gens = ((1, 0), (1, 2))
    pts = box_points(gens, 2)
    assert sorted(pts) == [(0, 0), (1, 1)]
    _assert_in_box(gens, pts)


def test_box_points_lower_dimensional():
    pts = box_points(((1, 1, 0), (1, -1, 0)), 3)
    assert sorted(pts) == [(0, 0, 0), (1, 0, 0)]


@settings(max_examples=80, deadline=None)
@given(gen_sets(dim_max=3, n_max=3))
def test_box_count_is_index(gens):
    from toricmld.intlinalg import rank

    dim = len(gens[0])
    if rank(gens) != len(gens):
        return
    pts = box_points(gens, dim)
    assert len(set(pts)) == len(pts)
    _assert_in_box(gens, pts)


def _assert_same_as_reference(gens, dim):
    """Equal to the Fraction path and to the row-at-a-time residues, point
    for point and in order; the residue columns are the reference rows
    transposed, and the first point is the only zero point."""
    new = box_points(gens, dim)
    assert new == reference_box_points(gens, dim)
    assert new == reference_box_points_rows(gens, dim)
    _assert_in_box(gens, new)
    basis = span_lattice_basis(gens, dim)
    vmat = transpose(tuple(span_coordinates(basis, g) for g in gens))
    n, columns = cones._box_residues(vmat)
    n_ref, rows = reference_box_residues(vmat)
    assert n == n_ref
    assert [tuple(col) for col in columns] == list(zip(*rows))
    assert is_zero(new[0])
    assert sum(map(is_zero, new)) == 1


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
    assert list(pts) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    _assert_same_as_reference(((2, 0), (0, 2)), 2)
    _assert_same_as_reference(((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)), 4)


def test_box_points_of_no_generators_is_the_origin():
    assert box_points((), 3) == ((0, 0, 0),)


def test_triangulate_independent_generators_are_one_simplex():
    for gens, dim in [
        (((1, 0), (1, 2)), 2),
        (((1, 1, 0), (1, -1, 0)), 3),
        (((2, 0, 1),), 3),
        ((), 3),
    ]:
        assert triangulate(gens, dim) == (tuple(range(len(gens))),)


@settings(max_examples=80, deadline=None)
@given(gen_sets(dim_max=4, n_max=5))
def test_triangulate_matches_pulling_reference(gens):
    """The shortcut for independent generators changes no triangulation:
    every generator set gives the pulling triangulation, or both reject a
    cone with a line; independent generators are their own simplex."""
    dim = len(gens[0])
    try:
        want = reference_triangulate(gens, dim)
    except NotACone:
        with pytest.raises(NotACone):
            triangulate(gens, dim)
        return
    assert triangulate(gens, dim) == want
    if rank(gens) == len(gens):
        assert want == (tuple(range(len(gens))),)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_triangulate_matches_pulling_reference_on_random_fans(seed):
    f = random_fan(random.Random(seed), max_rank=4, subdivisions=3)
    for c in cones_of(f):
        gens = f.cone_gens(c)
        assert triangulate(gens, f.rank) == reference_triangulate(gens, f.rank)


def scan_case(rng):
    """Generators of rank d <= 4 with prescribed invariant factors in a span
    of Z^dim, dim = d or d + 1, and a functional: random, or a nonnegative
    combination of the cone's facet normals, which vanishes on some
    generators."""
    d = rng.randint(1, 4)
    dim = d + rng.randint(0, 1)
    steps = [rng.choice([1, 1, 2]) for _ in range(d - 1)] + [rng.randint(1, (60, 30, 8, 4)[d - 1])]
    gens = gens_with_invariant_factors(rng, list(accumulate(steps, operator.mul)), dim)
    if rng.random() < 0.5:
        m = tuple(rng.randint(-4, 9) for _ in range(dim))
    else:
        eqs, ineqs = hrep(gens, dim)
        m = (0,) * dim
        for row in eqs + ineqs:
            m = tuple(a + rng.randint(0, 2) * b for a, b in zip(m, row))
    return gens, dim, m


def box_scan_points(gens, dim: int, m, cap: int):
    """Every point of the runs of box_runs at a fixed cap, in scan order."""
    runs = box_runs(gens, dim, m, [cap])
    return [point(k) for lo, hi, _, _, point in runs for k in range(lo, hi + 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_box_runs_match_reference_box_points(seed):
    """At a cap, the runs hold exactly the nonzero box points x with
    m·x <= cap, each once, and each run's values are its progression; the
    cap is a value some point takes, one between values, or below every
    value.  box_minimum returns the least (value, sup-norm, x) key of
    those points and the starting key."""
    rng = random.Random(seed)
    gens, dim, m = scan_case(rng)
    ref = [x for x in reference_box_points(gens, dim) if not is_zero(x)]
    assert box_size(gens, dim) == len(ref) + 1
    values = sorted({dot(m, x) for x in ref})
    cap = rng.choice(values + [min(values, default=0) - 1, 0, max(values, default=0) + 1])
    if rng.random() < 0.2:
        cap = rng.choice(values or [0]) - 1
    got = box_scan_points(gens, dim, m, cap)
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(x for x in ref if dot(m, x) <= cap)
    for lo, hi, n0, step, point in box_runs(gens, dim, m, [cap]):
        assert lo <= hi
        assert all(dot(m, point(k)) == n0 + step * k for k in (lo, hi))
    start = (cap, rng.choice([0, 10**9]), (0,) * dim)
    keys = [(dot(m, x), max(map(abs, x)), x) for x in got]
    assert box_minimum(gens, dim, m, start) == min(keys + [start])


def closed_cone_points(gens, dim: int, m, cap: int):
    """The lattice points x = b + Σ k_i g_i of the closed simplicial cone
    over gens with m·x <= cap, b a point of reference_box_points; m must be
    positive on gens."""
    vals = [dot(m, g) for g in gens]
    out = []
    for b in reference_box_points(gens, dim):
        ranges = [range(max(-1, (cap - dot(m, b)) // v) + 1) for v in vals]
        for ks in product(*ranges):
            x = tuple(c + sum(k * g[j] for k, g in zip(ks, gens)) for j, c in enumerate(b))
            if dot(m, x) <= cap:
                out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_runs_match_brute_force(seed):
    """The runs of cone_runs hold exactly the lattice points x of the closed
    simplicial cone with m·x <= cap, each once, and with the inequalities
    of the cone's H-representation as rows exactly those of its relative
    interior; each run's values are its progression.  Ranks go up to 4,
    spans of lower dimension included, and the cap is a value some point
    takes, one between values, or below every value."""
    rng = random.Random(seed)
    gens, dim, _ = scan_case(rng)
    eqs, ineqs = hrep(gens, dim)
    m = (0,) * dim
    for row, c in [(r, rng.randint(1, 3)) for r in ineqs] + [(e, rng.randint(-2, 2)) for e in eqs]:
        m = tuple(a + c * b for a, b in zip(m, row))
    assert all(dot(m, g) > 0 for g in gens)
    pts = closed_cone_points(gens, dim, m, max(dot(m, g) for g in gens))
    values = sorted({dot(m, x) for x in pts})
    between = [v + 1 for v in values[:-1] if v + 1 not in values] or values
    cap = rng.choice([rng.choice(values), rng.choice(between), rng.choice([-1, values[1] - 1])])
    rows = rng.choice([(), ineqs])
    want = [x for x in pts if dot(m, x) <= cap and all(dot(f, x) >= 1 for f in rows)]
    if rows:
        assert want == [x for x in pts if dot(m, x) <= cap and relint_contains(gens, dim, x)]
    runs = list(cone_runs(gens, dim, m, [cap], rows))
    got = [point(k) for lo, hi, _, _, point in runs for k in range(lo, hi + 1)]
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(want)
    for lo, hi, n0, step, point in runs:
        assert lo <= hi
        assert all(dot(m, point(k)) == n0 + step * k for k in (lo, hi))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_runs_bound_zero_level_generators_below_two(seed):
    """Where m vanishes on some generators, the runs of cone_runs hold
    exactly the lattice points x = Σ t_i g_i of the closed simplicial cone
    with m·x <= cap and t_i < 2 on each of those generators, each once, and
    with the cone's inequalities as rows exactly those of its relative
    interior.  The brute force walks box points b plus up to three
    multiples k_i of a zero-level generator, so floor(t_i) = k_i; m may
    vanish on every generator."""
    rng = random.Random(seed)
    gens, dim, _ = scan_case(rng)
    eqs, ineqs = hrep(gens, dim)
    zero = set(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
    m = (0,) * dim
    for row in ineqs:  # the facet normal opposite g_i is positive on g_i alone
        i = next(i for i, g in enumerate(gens) if dot(row, g))
        c = 0 if i in zero else rng.randint(1, 3)
        m = tuple(a + c * b for a, b in zip(m, row))
    for row in eqs:
        c = rng.randint(-2, 2)
        m = tuple(a + c * b for a, b in zip(m, row))
    vals = [dot(m, g) for g in gens]
    assert {i for i, v in enumerate(vals) if v == 0} == zero
    if box_size(gens, dim) > 200:
        return
    pts, top = [], max(vals) or 1
    for b in reference_box_points(gens, dim):
        ranges = [range((top - dot(m, b)) // v + 1) if v else range(4) for v in vals]
        for ks in product(*ranges):
            x = tuple(c + sum(k * g[j] for k, g in zip(ks, gens)) for j, c in enumerate(b))
            pts.append((x, all(k < 2 for i, k in enumerate(ks) if i in zero)))
    values = sorted({dot(m, x) for x, _ in pts} & set(range(top + 1)))
    cap = rng.choice(values + [values[0] - 1])
    rows = rng.choice([(), ineqs])
    below_two = [x for x, low in pts if low and dot(m, x) <= cap]
    want = [x for x in below_two if all(dot(f, x) >= 1 for f in rows)]
    if rows:
        assert want == [x for x in below_two if relint_contains(gens, dim, x)]
    runs = list(cone_runs(gens, dim, m, [cap], rows))
    got = [point(k) for lo, hi, _, _, point in runs for k in range(lo, hi + 1)]
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(want)
    for lo, hi, n0, step, point in runs:
        assert lo <= hi
        assert all(dot(m, point(k)) == n0 + step * k for k in (lo, hi))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_cone_runs_radius_bounds_every_generator(seed):
    """With a radius R, the runs of cone_runs hold exactly the lattice
    points x = Σ t_i g_i of the closed simplicial cone with 0 <= t_i < R + 1
    on every generator, m·x <= cap and F x >= 1 for each row F, each once.
    m vanishes on some generators, and there the radius replaces the bound
    t_i < 2: at R >= 2, a cap >= 0 and no rows, 2 g_i is a point of the
    runs.  The brute force walks box points b plus k_i <= R multiples of
    each generator, so floor(t_i) = k_i; the rows are none, the cone's
    inequalities or random ones."""
    rng = random.Random(seed)
    gens, dim, _ = scan_case(rng)
    eqs, ineqs = hrep(gens, dim)
    zero = set(rng.sample(range(len(gens)), rng.randint(1, len(gens))))
    m = (0,) * dim
    for row in ineqs:  # the facet normal opposite g_i is positive on g_i alone
        i = next(i for i, g in enumerate(gens) if dot(row, g))
        c = 0 if i in zero else rng.randint(1, 3)
        m = tuple(a + c * b for a, b in zip(m, row))
    for row in eqs:
        c = rng.randint(-2, 2)
        m = tuple(a + c * b for a, b in zip(m, row))
    radius = rng.randint(0, 3)
    if box_size(gens, dim) * (radius + 1) ** len(gens) > 2000:
        return
    pts = []
    for b in reference_box_points(gens, dim):
        for ks in product(range(radius + 1), repeat=len(gens)):
            pts.append(tuple(c + sum(k * g[j] for k, g in zip(ks, gens)) for j, c in enumerate(b)))
    cap = rng.choice(sorted({dot(m, x) for x in pts}) + [-1])
    rows = rng.choice(
        [(), ineqs, tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(2))]
    )
    want = [x for x in pts if dot(m, x) <= cap and all(dot(f, x) >= 1 for f in rows)]
    runs = list(cone_runs(gens, dim, m, [cap], rows, radius=radius))
    got = [point(k) for lo, hi, _, _, point in runs for k in range(lo, hi + 1)]
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(want)
    for lo, hi, n0, step, point in runs:
        assert lo <= hi
        assert all(dot(m, point(k)) == n0 + step * k for k in (lo, hi))
    if radius >= 2 and cap >= 0 and not rows:
        assert {tuple(2 * c for c in gens[i]) for i in zero} <= set(got)


def test_cone_runs_zero_level_generator_of_a_unimodular_cone():
    """m vanishes on g_0 = (1, 0, 0) alone.  The runs hold exactly the
    points x = Σ t_i g_i of the closed cone, and with its inequalities as
    rows of its relative interior, with m·x <= 3 and t_0 < 2.  As |det| = 1,
    the bound t_0 < 2 and the row t_0 >= 1 of the relative interior
    combine into 0 <= 0, which the elimination drops."""
    gens = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    m, cap = (0, 1, 0), 3
    for rows in ((), hrep(gens, 3)[1]):
        want = [
            x
            for x in product(range(-9, 10), repeat=3)
            if contains(gens, 3, x)
            and dot(m, x) <= cap
            and barycentric(gens, x)[0] < 2
            and all(dot(f, x) >= 1 for f in rows)
        ]
        runs = cone_runs(gens, 3, m, [cap], rows)
        got = [point(k) for lo, hi, _, _, point in runs for k in range(lo, hi + 1)]
        assert len(want) == (3 if rows else 20)
        assert sorted(got) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_box_lattice_signed_adjugate(seed):
    """_box_lattice's s adj V, from the same elimination as |det V|, is
    sign(det V) adj V: V (s adj V) = |det V| I."""
    gens, dim, _ = scan_case(random.Random(seed))
    _, vmat, index, sadj = cones._box_lattice(gens, dim)
    d, sign = len(vmat), 1 if intlinalg.det(vmat) > 0 else -1
    assert sadj == tuple(tuple(sign * x for x in row) for row in intlinalg.adjugate(vmat))
    assert [[dot(row, col) for col in zip(*sadj)] for row in vmat] == [
        [index * (i == j) for j in range(d)] for i in range(d)
    ]


def test_box_minimum_examples():
    # the box of (1, 0), (1, 2) holds (1, 1) besides 0
    assert box_minimum(((1, 0), (1, 2)), 2, (1, 1), (5, 9, (9, 9))) == (2, 1, (1, 1))
    assert box_minimum(((1, 0), (1, 2)), 2, (1, 1), (1, 9, (9, 9))) == (1, 9, (9, 9))
    # a functional vanishing on the span: every point ties at 0, and the
    # sup-norm and then the point decide
    gens = ((3, 0, 0), (0, 3, 0))
    assert box_minimum(gens, 3, (0, 0, 1), (0, 9, ())) == (0, 1, (0, 1, 0))
    assert box_minimum(gens, 3, (0, 0, 1), (-1, 9, ())) == (-1, 9, ())
    assert box_minimum((), 2, (1, 1), (3, 1, (1, 2))) == (3, 1, (1, 2))
    assert box_minimum(((1, 2),), 2, (1, 1), (3, 1, (1, 2))) == (3, 1, (1, 2))


def _with_residues(monkeypatch, edit):
    """Make box_points read the true residue columns after edit(n, columns)."""
    true_residues = cones._box_residues

    def edited(vmat):
        n, columns = true_residues(vmat)
        columns = [list(col) for col in columns]
        edit(n, columns)
        return n, columns

    monkeypatch.setattr(cones, "_box_residues", edited)


def _k0_is_n(n, cols):
    cols[0][0] = n  # k = (N, 0): the point g_0, a distinct lattice point


def _k0_minus_n(n, cols):
    cols[0][1] -= n  # k = (1 - N, 1): the point (1, 1) - g_0


def _k0_zero(n, cols):
    cols[0][1] = 0  # k = (0, 1): the point g_1 / 2


def _second_is_zero(n, cols):
    for col in cols:
        col[1] = 0  # the second point repeats the first


@pytest.mark.parametrize(
    "edit, message",
    [
        (_k0_is_n, "outside the half-open box"),
        (_k0_minus_n, "outside the half-open box"),
        (_k0_zero, "not a lattice point"),
        (_second_is_zero, "lost coset representatives"),
    ],
)
def test_box_points_column_checks_fire(monkeypatch, edit, message):
    """Each column check rejects residues that break only its own
    condition; gens ((1, 0), (1, 2)) have N = 2 and residues (0, 0), (1, 1)."""
    gens = ((1, 0), (1, 2))
    assert box_points(gens, 2) == ((0, 0), (1, 1))
    _with_residues(monkeypatch, edit)
    with pytest.raises(AssertionError, match=message):
        box_points(gens, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple), min_size=1, max_size=d
        ).map(tuple)
    ),
    st.data(),
)
def test_capped_points_match_brute_force(gens, data):
    """capped_points yields each lattice point x of the simplicial cone with
    m·x <= capn and at most radius multiples of each generator, exactly
    once; every other element of its walk is (n, None) with n > capn.  The
    reference scans a box of Z^dim with contains and reads the multiples off
    barycentric coordinates.  The functional is a nonnegative combination of
    the facet normals plus span equations, so some generators may sit at
    level zero."""
    dim = len(gens[0])
    if rank(gens) != len(gens):
        return
    eqs, ineqs = hrep(gens, dim)
    m = [0] * dim
    for row, lo in [(r, -2) for r in eqs] + [(r, 0) for r in ineqs]:
        c = data.draw(st.integers(lo, 2))
        m = [a + c * b for a, b in zip(m, row)]
    capn = data.draw(st.integers(-1, 10))
    radius = data.draw(st.integers(0, 3))
    vals = [dot(m, g) for g in gens]
    limits = [radius if v == 0 else min(radius, capn // v) for v in vals]
    ball = [sum((k + 1) * abs(g[j]) for k, g in zip(limits, gens)) for j in range(dim)]
    if math.prod(2 * r + 1 for r in ball) > 20_000:
        return

    walk = list(capped_points(gens, dim, m, capn, radius))
    for n, x in walk:
        assert n > capn if x is None else n == dot(m, x) <= capn
    got = [x for _, x in walk if x is not None]
    assert len(set(got)) == len(got)

    want = set()
    for x in product(*(range(-r, r + 1) for r in ball)):
        if not contains(gens, dim, x) or dot(m, x) > capn:
            continue
        if all(math.floor(t) <= radius for t in barycentric(gens, x)):
            want.add(x)
    assert set(got) == want


@st.composite
def square_gen_sets(draw):
    """dim generators in Z^dim, dim 1-5: random ones, mostly nonsingular,
    or with one generator an integer combination of the others (or zero),
    so that the set is singular."""
    dim = draw(st.integers(min_value=1, max_value=5))
    vec = st.lists(small, min_size=dim, max_size=dim).map(tuple)
    gens = draw(st.lists(vec, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        others = gens[:i] + gens[i + 1 :]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=dim - 1, max_size=dim - 1))
        gens[i] = tuple(sum(c * g[j] for c, g in zip(coeffs, others)) for j in range(dim))
    return tuple(gens), dim


def hrep_with_adjugates(gens, dim):
    """hrep's uncached answer and the adjugates its one elimination
    (``_det_adjugate``) returned, None for a singular set."""
    adjs = []

    def spy(m):
        out = intlinalg._det_adjugate(m)
        adjs.append(out[1])
        return out

    with patch.object(cones, "_det_adjugate", spy):
        return hrep.__wrapped__(gens, dim), adjs


@settings(max_examples=300, deadline=None)
@given(square_gen_sets())
def test_hrep_of_square_generator_sets_matches_reference(case):
    """A nonsingular square set takes the adjugate path and a singular one
    the general path; both agree with the rational-lift reference."""
    gens, dim = case
    got, adjs = hrep_with_adjugates(gens, dim)
    assert got == reference_hrep(gens, dim)
    used = adjs not in ([], [None])  # a zero generator leaves fewer than dim
    assert len(adjs) <= 1 and used == (rank(gens) == dim)
    if used:
        assert got[0] == () and len(got[1]) == dim


def test_hrep_of_coplanar_rays_takes_the_general_path():
    """The one pass finds the set singular, and no adjugate is taken: not
    through intlinalg, and not through a name bound in cones."""
    gens = ((1, 0, 0), (0, 1, 0), (1, 1, 0))
    refuse = AssertionError("adjugate of a singular set")
    with (
        patch.object(intlinalg, "adjugate", side_effect=refuse),
        patch.object(cones, "adjugate", side_effect=refuse, create=True),
    ):
        got, adjs = hrep_with_adjugates(gens, 3)
    assert adjs == [None]
    assert got == reference_hrep(gens, 3) == (((0, 0, 1),), ((0, 1, 0), (1, 0, 0)))


def test_scans_leave_no_reference_cycles():
    """A finished box scan and a cone scan abandoned after one run leave
    nothing for the cyclic garbage collector."""
    gens = ((1, 0, 0), (0, 1, 0), (1, 2, 7))
    gc.collect()
    gc.disable()
    try:
        assert box_minimum(gens, 3, (1, 1, 1), (10**6, 0, ()))[0] < 10**6
        runs = cone_runs(gens, 3, (1, 1, 1), [50])
        next(runs)
        del runs
        assert gc.collect() == 0
    finally:
        gc.enable()
