"""The lattice-point scans evaluate A as integer numerators over one common
denominator.  These properties compare each scan with its Fraction
reference in helpers.py: values, witnesses, enumeration counts, statuses
and result types must be identical."""

import io
import json
import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    a1,
    cone_over_square,
    cones_of,
    identity_morphism,
    outcome,
    p1,
    p2,
    product_fan,
    random_fan,
    random_gl,
    random_half_plane_fibration,
    random_support_point,
    reference_fiber_cones_minimum,
    reference_global_mld,
    reference_mld_at_cone,
    reference_relative_mld,
    reference_sublevel_points,
    sublevel_points,
    to_a1,
    twist_divisor,
    twist_fan,
    unimodular_inverse,
)
from toricmld import cones, fibration
from toricmld.bounds import _fiber_cones_minimum, example_family, u_sequence
from toricmld.cli import main
from toricmld.divisors import divisor, log_discrepancy_function, zero_divisor
from toricmld.fans import fan, star_subdivision
from toricmld.fibration import (
    BudgetExhausted,
    Exact,
    lc_threshold_over,
    lc_thresholds,
    morphism,
    relative_mld,
)
from toricmld.intlinalg import mat_mul
from toricmld.singularities import (
    MldReport,
    _triangulated,
    global_mld,
    log_discrepancy,
    mld_at_cone,
)


def random_coeffs(rng, n):
    """Boundary coefficients with denominators 1..7, so the functionals of
    neighbouring cones have different denominators; about 30% are 1 (A
    vanishes at the ray) and a few exceed 1 (A is negative there)."""
    out = []
    for _ in range(n):
        d = rng.randint(1, 7)
        u = rng.random()
        k = d if u < 0.3 else d + 1 if u < 0.34 else rng.randint(0, d - 1)
        out.append(Fraction(k, d))
    return out


def same(new, ref):
    """Equal results with equal types, field by field."""
    assert new == ref
    assert type(new) is type(ref)
    if hasattr(ref, "__dataclass_fields__"):
        for name in ref.__dataclass_fields__:
            assert type(getattr(new, name)) is type(getattr(ref, name)), name


def zero_level(b, tau):
    """A vanishes at a generator of tau and is negative at none, so that
    mld_at_cone's scan bounds t_i < 2 on that generator."""
    vals = [1 - b.coeffs[i] for i in tau]
    return min(vals) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_global_mld_matches_fraction_scan(seed):
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=3, subdivisions=2)
    b = divisor(f, random_coeffs(rng, len(f.rays)))
    same(global_mld(f, b), reference_global_mld(f, b))


def tie_coeffs(rng, n):
    """random_coeffs half of the time; otherwise coefficients that make
    distinct points tie at the minimum: all 0, one value on every ray, or
    values in {0, 1/3, 2/3}."""
    kind = rng.randrange(6)
    if kind < 3:
        return random_coeffs(rng, n)
    if kind == 3:
        return [Fraction(0)] * n
    if kind == 4:
        return [Fraction(rng.randint(1, 3), 4)] * n
    return [Fraction(rng.randint(0, 2), 3) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_mld_at_cone_matches_fraction_scan(seed):
    """The cap-first cone scan against the per-point reference, field by
    field, on fans of rank up to 4 in random GL_n(Z) coordinates; cones
    with zero-level generators included."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=4, subdivisions=2)
    b = divisor(f, tie_coeffs(rng, len(f.rays)))
    if rng.random() < 0.5:
        u = random_gl(rng, f.rank)
        f, b = twist_fan(f, u), twist_divisor(b, u)
    taus = cones_of(f)
    for tau in rng.sample(taus, min(6, len(taus))):
        same(mld_at_cone(f, b, tau), reference_mld_at_cone(f, b, tau))


def test_mld_at_cone_tie_goes_to_the_walk_first_point():
    """Seven points of relint(tau) take the least value 2/3.  The witness is
    the one the walk of box points plus multiples of the generators meets
    first, which is neither the lexicographically least nor the least in
    sup-norm."""
    f = fan(2, [(5, -2), (-11, 6)], [(0, 1)])
    b = divisor(f, [Fraction(1, 3)] * 2)
    tau = (0, 1)
    rep = mld_at_cone(f, b, tau)
    assert rep == MldReport(Fraction(2, 3), (3, -1), 22, "exact")
    same(rep, reference_mld_at_cone(f, b, tau))
    a = log_discrepancy_function(f, b)
    gens = f.cone_gens(tau)
    tied = [
        x
        for x in product(range(-12, 13), repeat=2)
        if cones.relint_contains(gens, 2, x) and a(x) == rep.value
    ]
    assert len(tied) == 7 and max(max(map(abs, x)) for x in tied) < 12
    assert rep.witness != min(tied)
    assert rep.witness != min(tied, key=lambda x: (max(map(abs, x)), x))


def test_mld_at_cone_counts_a_shared_face_once_per_simplex():
    """The cone over a square is triangulated into two simplices that share
    a diagonal face; each point of relint(tau) under the cap on that face
    is counted by both."""
    f = cone_over_square()
    b = zero_divisor(f)
    tau = (0, 1, 2, 3)
    gens = f.cone_gens(tau)
    simplices = [tuple(gens[i] for i in t) for t in cones.triangulate(gens, 3)]
    assert len(simplices) == 2
    a = log_discrepancy_function(f, b)
    cap = a(cones.relint_point(gens))
    under = [
        x
        for x in product(range(-9, 10), repeat=3)
        if cones.relint_contains(gens, 3, x) and a(x) <= cap
    ]
    shared = [x for x in under if all(cones.contains(s, 3, x) for s in simplices)]
    assert (len(under), len(shared)) == (44, 16)
    rep = mld_at_cone(f, b, tau)
    assert rep == MldReport(Fraction(1), (0, 0, 1), 44 + 16, "exact")
    same(rep, reference_mld_at_cone(f, b, tau))


def test_mld_at_cone_minimum_at_the_cap_is_the_relint_point():
    """When no point of relint(tau) goes below A(p0), p0 = Σ g_i, the
    witness is p0.  That happens only on a smooth simplicial cone, where p0
    is the only point at that value."""
    rng = random.Random(5)
    u = random_gl(rng, 3)
    x = product_fan(p2(), a1())
    f = twist_fan(x, u)
    b = twist_divisor(divisor(x, [Fraction(1, 2), Fraction(1, 3), 0, Fraction(2, 3)]), u)
    for tau in cones_of(f):
        rep = mld_at_cone(f, b, tau)
        p0 = cones.relint_point(f.cone_gens(tau))
        assert (rep.witness, rep.value, rep.enumerated_count) == (p0, log_discrepancy(f, b, p0), 1)
        same(rep, reference_mld_at_cone(f, b, tau))


def test_mld_at_cone_of_example_family_rank_4(monkeypatch):
    """The maximal cone (0, 1, 2, 3) of example_family(3, 2) holds 5 149 783
    points of its interior under the cap; the cone scan counts them without
    building a box point."""

    def no_walk(*args, **kwargs):
        raise AssertionError("the positive branch walked a parallelepiped")

    monkeypatch.setattr(cones, "box_points", no_walk)
    x = example_family(3, 2).x
    rep = mld_at_cone(x, zero_divisor(x), (0, 1, 2, 3))
    assert rep == MldReport(Fraction(271853, 543305), (-1, 0, 0, 602), 5149783, "exact")


def test_mld_at_cone_zero_branch_matches_fraction_scan():
    """Cones with a zero-level generator: every report is exact, and its
    value, witness and count are the reference's.  The minimum is positive
    on most of them (the closed cone's infimum is 0 on all of them)."""
    values = []
    for seed in range(25):
        rng = random.Random(seed)
        f = random_fan(rng, max_rank=3, subdivisions=2)
        b = divisor(f, random_coeffs(rng, len(f.rays)))
        for tau in cones_of(f):
            if zero_level(b, tau):
                rep = mld_at_cone(f, b, tau)
                assert rep.status == "exact"
                same(rep, reference_mld_at_cone(f, b, tau))
                values.append(rep.value)
    assert sum(v > 0 for v in values) >= 50


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_mld_at_cone_zero_level_below_ball_minimum(seed):
    """On cones with a zero-level generator the value is never above the
    least A over the points of relint(tau) in a sup-norm ball (radius 12 at
    rank 2, 6 at rank 3), equals it when the witness lies in the ball, and
    the witness lies in relint(tau) and re-evaluates to the value."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=3, subdivisions=2)
    b = divisor(f, random_coeffs(rng, len(f.rays)))
    a = log_discrepancy_function(f, b)
    radius = {1: 12, 2: 12, 3: 6}[f.rank]
    ball = list(product(range(-radius, radius + 1), repeat=f.rank))
    for tau in cones_of(f):
        if not zero_level(b, tau):
            continue
        rep = mld_at_cone(f, b, tau)
        gens = f.cone_gens(tau)
        assert rep.status == "exact"
        assert cones.relint_contains(gens, f.rank, rep.witness)
        assert a(rep.witness) == rep.value
        inside = [a(x) for x in ball if cones.relint_contains(gens, f.rank, x)]
        assert rep.value <= min(inside, default=rep.value)
        if max(map(abs, rep.witness)) <= radius:
            assert rep.value == min(inside)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_sublevel_points_match_fraction_scan(seed):
    """Same points in the same order from the per-element walk, and the
    same set from the cone scan with no rows at the radius capn, at caps
    that some lattice points attain exactly and at caps between two
    numerators."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=3, subdivisions=2)
    coeffs = [c if c < 1 else Fraction(1, 2) for c in random_coeffs(rng, len(f.rays))]
    a = log_discrepancy_function(f, divisor(f, coeffs))
    den = a.integral()[0]
    ray_cap = 1 - coeffs[rng.randrange(len(coeffs))]
    for cap in (ray_cap * rng.randint(1, 3), ray_cap + Fraction(1, 3 * den)):
        want = list(reference_sublevel_points(f, a, cap))
        assert [(x, Fraction(n, den)) for x, n in sublevel_points(f, a, cap)] == want
        # the cone scan with no rows, deduplicated, gives the same set
        capn, scanned = math.floor(cap * den), set()
        for m, simplices in zip(a.integral()[1], _triangulated(f)):
            for simplex in simplices:
                # every m·g_i >= 1, so t_i <= capn: the radius capn bounds nothing
                runs = cones.cone_runs(f.cone_gens(simplex), f.rank, m, [capn], radius=capn)
                for lo, hi, n0, step, point in runs:
                    for k in range(lo, hi + 1):
                        scanned.add((point(k), Fraction(n0 + step * k, den)))
        assert sorted(scanned - {((0,) * f.rank, 0)}) == sorted(want)


@pytest.mark.parametrize("q", [20, 37, 40])
def test_global_mld_of_example_family(q):
    """The surface of example_family(1, q) has mld (q + 1) / (q^2 + q - 1)
    with the zero boundary; its boxes hold thousands of points, each but
    the zero one counted."""
    x = example_family(1, q).x
    b = zero_divisor(x)
    rep = global_mld(x, b)
    assert rep.value == Fraction(q + 1, q * q + q - 1)
    same(rep, reference_global_mld(x, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_global_mld_matches_fraction_scan_up_to_rank_4(seed):
    """The cap-first scan against the reference that builds every box
    point, on fans of rank up to 4 whose boundaries put coefficient 1 (A
    vanishes at the ray, so the cap can be 0) and above 1 on some rays."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=4, subdivisions=2)
    b = divisor(f, random_coeffs(rng, len(f.rays)))
    same(global_mld(f, b), reference_global_mld(f, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_global_mld_is_invariant_under_gl_n_z(seed):
    """The value and status do not depend on the coordinates; the witness
    and the tie-break by sup-norm do."""
    rng = random.Random(seed)
    f = random_fan(rng, max_rank=4, subdivisions=2)
    b = divisor(f, random_coeffs(rng, len(f.rays)))
    u = random_gl(rng, f.rank)
    rep, moved = global_mld(f, b), global_mld(twist_fan(f, u), twist_divisor(b, u))
    assert (moved.value, moved.status) == (rep.value, rep.status)


def closed_form(r, q):
    """u / (q (u - 1)) with u = u_(r+1, q): the mld of example_family(r, q)
    in every case computed so far (not proved here)."""
    u = u_sequence(r + 1, q)
    return Fraction(u, q * (u - 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_global_mld_closed_form_rank_3(q):
    x = example_family(2, q).x
    b = zero_divisor(x)
    rep = global_mld(x, b)
    assert (rep.value, rep.witness) == (closed_form(2, q), (0, 0, 1))
    same(rep, reference_global_mld(x, b))


def test_global_mld_closed_form_rank_4():
    """example_family(3, 2): 815 860 nonzero box points are covered, not
    built; the scan takes milliseconds where building them took seconds."""
    x = example_family(3, 2).x
    rep = global_mld(x, zero_divisor(x))
    assert rep == MldReport(closed_form(3, 2), (0, 0, 0, 1), 815861, "exact")
    assert rep.value == Fraction(903, 1805)


@pytest.mark.parametrize("r, q", [(3, 3), (3, 4), (4, 2)])
def test_global_mld_closed_form_beyond_the_reference(r, q):
    """Boxes of 6.7·10^7 to 2.7·10^12 points, which no reference can build:
    the value and witness still follow the closed form."""
    x = example_family(r, q).x
    rep = global_mld(x, zero_divisor(x))
    witness = (0,) * r + (1,)
    assert (rep.value, rep.witness, rep.status) == (closed_form(r, q), witness, "exact")


def test_box_runs_work_on_example_family_rank_4():
    """The scan's work follows the points under the cap, not the box: at
    A <= 1 the runs over example_family(3, 2)'s cones hold the 31 551
    nonzero box points there (of 815 860; the count was checked once
    against box_points) in fewer than 200 runs, and at A <= its mld they
    hold only points where A equals the mld."""
    x = example_family(3, 2).x
    b = zero_divisor(x)
    den, nums = log_discrepancy_function(x, b).integral([1 - c for c in b.coeffs])
    capn = closed_form(3, 2) * den
    assert capn.denominator == 1
    runs, points, at_mld = 0, 0, set()
    for m, simplices in zip(nums, _triangulated(x)):
        for simplex in simplices:
            gens = x.cone_gens(simplex)
            for lo, hi, _, _, _ in cones.box_runs(gens, x.rank, m, [den]):
                runs, points = runs + 1, points + hi - lo + 1
            for lo, hi, n0, step, _ in cones.box_runs(gens, x.rank, m, [int(capn)]):
                at_mld.update(n0 + step * k for k in range(lo, hi + 1))
    assert (points, at_mld) == (31551, {int(capn)})
    assert runs < 200


def test_neighbouring_cones_with_different_denominators():
    f = p2()
    b = divisor(f, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    a = log_discrepancy_function(f, b)
    dens = {math.lcm(*(x.denominator for x in fn)) for fn in a.functionals}
    assert len(dens) > 1
    den, nums = a.integral()
    assert den == math.lcm(*dens)
    for fn, m in zip(a.functionals, nums):
        assert all(isinstance(k, int) and k == x * den for k, x in zip(m, fn))
    same(global_mld(f, b), reference_global_mld(f, b))
    for tau in cones_of(f):
        same(mld_at_cone(f, b, tau), reference_mld_at_cone(f, b, tau))


def test_ray_in_no_maximal_cone_enters_the_denominator():
    """On an unchecked fan a ray outside every maximal cone still competes
    in global_mld; its value 1/7 has a denominator no functional has."""
    base = p2()
    f = fan(2, base.rays + ((2, 1),), base.max_cones, check=False)
    coeffs = [Fraction(6, 7) if r == (2, 1) else Fraction(1, 3) for r in f.rays]
    b = divisor(f, coeffs)
    a = log_discrepancy_function(f, b)
    assert a.integral()[0] % 7 != 0
    assert a.integral([1 - c for c in coeffs])[0] % 7 == 0
    rep = global_mld(f, b)
    assert (rep.value, rep.witness) == (Fraction(1, 7), (2, 1))
    same(rep, reference_global_mld(f, b))


def relative_case(rng, kind):
    """(morphism, boundary, base cone, eps, radius).  Kinds 0 and 1 are
    half-plane fibrations of source rank 2 and 3 over the affine line,
    where several source cones lie over the base cone; kind 2 is the
    identity of a random plane fan over one of its maximal cones, whose
    zero-level generators leave the search Indeterminate at small radii."""
    if kind < 2:
        f = random_half_plane_fibration(rng, kind)
        tau = (0,)
    else:
        f = identity_morphism(random_fan(rng, max_rank=2, subdivisions=2))
        tau = rng.choice(f.target.max_cones)
    b = divisor(f.source, random_coeffs(rng, len(f.source.rays)))
    eps = rng.choice([Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)])
    return f, b, tau, eps, rng.choice([3, 20])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 2))
def test_relative_mld_matches_fraction_scan(seed, kind):
    f, b, tau, eps, radius = relative_case(random.Random(seed), kind)
    same(
        outcome(relative_mld, f, b, tau, eps, radius=radius),
        outcome(reference_relative_mld, f, b, tau, eps, radius=radius),
    )


def enumeration_case(rng, kind):
    """A fibration with its source in random GL_n(Z) coordinates and a
    boundary with every coefficient in [0, 1), so that relative_mld
    enumerates.  Kind 0: P^1 times a half-plane fibration's source, over
    P^1 x A^1, whose rays as base cones give pulled-back equations (E M).
    Kind 1: P^2 x A^1 star-subdivided one to three times, over A^1.  Kind 2:
    the identity of a random fan, where points of a simplex off the face
    over a ray can lie below the ray.  Kind 3: the cone over the square
    with vertices (±2, 0), (0, ±2), over A^1; its two simplices hold
    different points, and A is linear on it (B = 1 - m·v on the rays v)."""
    if kind == 0:
        src = random_half_plane_fibration(rng, 1).source
        f = morphism(((1, 0, 0), (0, 0, 1)), src, product_fan(p1(), a1()))
    elif kind == 1:
        x = product_fan(p2(), a1())
        for _ in range(rng.randint(1, 3)):
            x = star_subdivision(x, random_support_point(rng, x))
        f = to_a1(x)
    elif kind == 2:
        f = identity_morphism(random_fan(rng, max_rank=3, subdivisions=2))
    else:
        f = to_a1(fan(3, [(2, 0, 1), (0, 2, 1), (-2, 0, 1), (0, -2, 1)], [(0, 1, 2, 3)]))
        m = (Fraction(rng.randint(-1, 1), 8), Fraction(rng.randint(-1, 1), 8), Fraction(1, 2))
        coeffs = [1 - sum(map(mul, m, v)) for v in f.source.rays]
    u = random_gl(rng, f.source.rank)
    f = morphism(mat_mul(f.matrix, unimodular_inverse(u)), twist_fan(f.source, u), f.target)
    if kind < 3:
        dens = [rng.randint(1, 7) for _ in f.source.rays]
        coeffs = [Fraction(rng.randrange(d), d) for d in dens]
    return f, divisor(f.source, coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_relative_mld_enumeration_matches_fraction_scan(seed, kind):
    """The cap-first scan of the faces over tau_z against the per-point
    reference at every target cone, rays included: the same Exact value
    and the same least (value, sup-norm, x) witness."""
    f, b = enumeration_case(random.Random(seed), kind)
    for tau in cones_of(f.target):
        res = relative_mld(f, b, tau, Fraction(1, 2))
        assert isinstance(res, Exact)
        same(res, reference_relative_mld(f, b, tau, Fraction(1, 2)))


def test_relative_mld_of_example_family_rank_4(monkeypatch):
    """Over the base ray of example_family(3, 2), with every coefficient
    1/4, the enumeration walks no parallelepiped (the cones' boxes hold
    815 860 nonzero points)."""

    def no_walk(*args, **kwargs):
        raise AssertionError("the enumeration walked a parallelepiped")

    monkeypatch.setattr(cones, "box_points", no_walk)
    fibration._relative_analysis.cache_clear()
    f = example_family(3, 2).f
    b = divisor(f.source, [Fraction(1, 4)] * len(f.source.rays))
    res = relative_mld(f, b, (0,), Fraction(1, 2))
    assert res == Exact(Fraction(2709, 7220), (0, 0, 0, 1))


def test_relative_mld_search_matches_fraction_scan(monkeypatch):
    """Every outcome of the radius search.  The search scans every cone over
    the base cone against one cap, taken from whichever cone gave the
    smallest lifted value, so on the half-plane fibrations, with several
    such cones, the cap comes from another cone's functional than most of
    the cones scanned."""
    searched = []
    search = fibration._radius_search

    def recording_search(src, a, start, eps, radius):
        searched.append(start.lower < eps)
        return search(src, a, start, eps, radius)

    monkeypatch.setattr(fibration, "_radius_search", recording_search)
    kinds = []
    for seed in range(150):
        f, b, tau, eps, radius = relative_case(random.Random(seed), seed % 3)
        searched.clear()
        res = outcome(relative_mld, f, b, tau, eps, radius=radius)
        if any(searched):
            same(res, outcome(reference_relative_mld, f, b, tau, eps, radius=radius))
            kinds.append((seed % 3 < 2, type(res).__name__))
    assert kinds.count((True, "Exact")) >= 5
    assert kinds.count((True, "Witness")) >= 2
    assert kinds.count((False, "Indeterminate")) >= 3


def test_radius_search_builds_no_box(monkeypatch):
    """The radius search scans cones.cone_runs alone: with cones.box_points
    raising, its Exact, Witness and Indeterminate outcomes all come out,
    equal to the reference's."""

    def no_box(*args, **kwargs):
        raise AssertionError("the radius search built a parallelepiped")

    searched = []
    search = fibration._radius_search

    def recording_search(src, a, start, eps, radius):
        res = search(src, a, start, eps, radius)
        if start.lower < eps:
            searched.append(type(res).__name__)
        return res

    monkeypatch.setattr(fibration, "_radius_search", recording_search)
    for seed in range(60):
        f, b, tau, eps, radius = relative_case(random.Random(seed), seed % 3)
        want = outcome(reference_relative_mld, f, b, tau, eps, radius=radius)
        with monkeypatch.context() as patch:
            patch.setattr(cones, "box_points", no_box)
            same(outcome(relative_mld, f, b, tau, eps, radius=radius), want)
    assert {"Exact", "Witness", "Indeterminate"} <= set(searched)


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_relative_mld_budget_exhausted_matches_fraction_scan(monkeypatch, budget):
    """The search charges each run of cones.cone_runs its length, the last
    run only up to the budget left, so it charges min(budget, points handed
    over).  No run is drawn once the budget is spent, so it never charges
    more than `budget` points, and it ran out when it charged exactly
    `budget`, even if the scan was then done.  Only a search that ran out
    returns BudgetExhausted, as BudgetExhausted(radius, budget), and one
    that ran out and found neither the lower bound nor a point below eps
    returns it, never Indeterminate.  A search that did not run out
    returns what the reference returns."""
    sizes = []
    scan = cones.cone_runs

    def counting_scan(*args, **kwargs):
        for run in scan(*args, **kwargs):
            sizes.append(run[1] - run[0] + 1)
            yield run

    monkeypatch.setattr(cones, "cone_runs", counting_scan)
    monkeypatch.setattr(fibration, "_SEARCH_BUDGET", budget)
    exhausted = 0
    reported = 0
    for seed in range(60):
        f, b, tau, eps, radius = relative_case(random.Random(seed), seed % 3)
        if all(1 - c > 0 for c in b.coeffs):
            continue
        sizes.clear()
        res = outcome(relative_mld, f, b, tau, eps, radius=radius)
        assert sum(sizes[:-1]) < budget
        charged = min(budget, sum(sizes))
        if charged == budget:
            exhausted += 1
            assert not isinstance(res, fibration.Indeterminate)
            if isinstance(res, BudgetExhausted):
                assert res == BudgetExhausted(radius, budget)
                reported += 1
        else:
            assert not isinstance(res, BudgetExhausted)
            same(res, outcome(reference_relative_mld, f, b, tau, eps, radius=radius))
    assert exhausted >= 5
    assert reported >= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 1))
def test_lc_complement_scan_matches_fraction_scan(seed, extra_rank):
    rng = random.Random(seed)
    f = random_half_plane_fibration(rng, extra_rank)
    coeffs = [min(c, 1) for c in random_coeffs(rng, len(f.source.rays))]
    a = log_discrepancy_function(f.source, divisor(f.source, coeffs))
    w = f.target.rays[0]
    worst, at = _fiber_cones_minimum(f, a, w)
    ref_worst, ref_at = reference_fiber_cones_minimum(f, a, w)
    same(worst, ref_worst)
    assert at == ref_at


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_lc_thresholds_match_per_ray_thresholds(seed):
    rng = random.Random(seed)
    if seed % 2:
        f = random_half_plane_fibration(rng, seed % 4 == 1)
    else:
        f = identity_morphism(random_fan(rng, max_rank=2, subdivisions=2))
    b = divisor(f.source, [min(c, 1) for c in random_coeffs(rng, len(f.source.rays))])
    per_ray = tuple(
        outcome(lc_threshold_over, f, b, w) for w in range(len(f.target.rays))
    )
    errors = [t for t in per_ray if isinstance(t, tuple)]
    if errors:
        assert outcome(lc_thresholds, f, b) == errors[0]
    else:
        same(lc_thresholds(f, b), per_ray)


def test_cli_integer_list_messages(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["tightness-scan", "--r", "1", "--q", "2,x"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["payload"]["detail"] == "expected comma-separated integers, got '2,x'"
    main(["example-family", "--r", "1", "--q", "2"])
    family = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(family))
    assert main(["mld-at", "--cone", "1,x"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["payload"]["detail"] == "cone indices must be integers, got '1,x'"
