"""The fan-only work of each query is computed once and cached, and so is
the work on a pair (f, B) that reads no eps.

intlinalg.solve_exact factors its matrix once (``_factor``), cones.box_points
keeps each simplex's lattice data (``_box_lattice``, ``_residue_steps``),
rel_trivial_witness its gluing rows per morphism (``_gluing_system``),
relative_mld a plan per (f, tau_z) (``_relative_plan``), lc_threshold_over
one per (f, w) (``_lc_plan``), and validate_morphism is cached whole, as is
log_discrepancy_function per (fan, divisor).  Every result must be the same
with those caches cold, warm, and keyed by a value-equal copy of the fans
and morphism, the verify harnesses' too, and each harness builds A once
per pair it evaluates.  The two plans hold their LP regions
(ratlp.cone_region, simplex phase one run once), and every
boundary minimizes over the same regions: relative_mld and
lc_threshold_over must agree with LPs solved from scratch on every call,
and the regions must come out of every query unchanged.

On the pair, lc_threshold_over is cached whole and relative_mld up to its
comparison with eps and its radius search (``_relative_analysis``).  Swept
over eps, radii and search budgets with those caches warm, both must equal
the same calls with every library cache cleared first and the references
that cache nothing; errors keep their order and are raised on every call,
and a witness taken from the cache is still checked against A.  Every
cache must be bounded.
"""

import importlib
import pkgutil
import random
from fractions import Fraction
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld
from helpers import (
    a1,
    a2,
    ex13_r1_q2,
    ex13_r2_q2,
    identity_morphism,
    outcome,
    p1,
    product_fan,
    random_half_plane_fibration,
    reference_relative_mld,
    reference_solve_exact,
    to_a1,
)
from toricmld import cones, divisors, fibration, intlinalg
from toricmld.bounds import (
    example_family,
    verify_adjunction_theorem,
    verify_lc_complement_theorem,
)
from toricmld.divisors import divisor, log_discrepancy_function, rel_trivial_witness, zero_divisor
from toricmld.errors import DomainError, NoCone, NotACone, NotLogCanonicalOverBase, NotQCartier
from toricmld.fans import Fan, fan, is_cone_of, star_subdivision
from toricmld.fibration import (
    Exact,
    ToricMorphism,
    Witness,
    average_boundary,
    discriminant_divisor,
    lc_threshold_over,
    lc_thresholds,
    relative_mld,
)
from toricmld.intlinalg import is_zero
from toricmld.ratlp import ConeRegion, Unbounded, cone_lp, solve_min
from toricmld.singularities import MINUS_INFINITY, _triangulated

NEW_CACHES = (
    intlinalg._factor,
    cones._box_lattice,
    cones._residue_steps,
    divisors._gluing_system,
    fibration._relative_plan,
    fibration._lc_plan,
    fibration.validate_morphism,
    divisors.log_discrepancy_function,
    fibration._relative_analysis,
    fibration.lc_threshold_over,
)


def library_caches():
    """Every lru_cache object bound at the top level of a toricmld module."""
    found = {}
    for info in pkgutil.iter_modules(toricmld.__path__):
        mod = importlib.import_module("toricmld." + info.name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                found[f"{info.name}.{name}"] = obj
    return found


def test_every_library_cache_is_bounded():
    caches = library_caches()
    assert set(NEW_CACHES) <= set(caches.values())
    assert len(set(caches.values())) >= 10
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


# -- solve_exact: cached factorization against one elimination per call ------


small = st.integers(min_value=-3, max_value=3)
rationals = st.one_of(small, st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def matrices(draw):
    """Square, tall and wide matrices of int or Fraction entries; a third of
    them rank-deficient, with a row that is a combination of two others."""
    shape = draw(st.sampled_from(["square", "tall", "wide"]))
    ncols = draw(st.integers(1, 4))
    nrows = {"square": ncols, "tall": ncols + draw(st.integers(1, 3)),
             "wide": draw(st.integers(1, ncols))}[shape]
    entry = draw(st.sampled_from([small, rationals]))
    a = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 3 and draw(st.integers(0, 2)) == 0:
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        s, t = draw(entry), draw(entry)
        a[k] = [s * x + t * y for x, y in zip(a[i], a[j])]
    return a


def right_hand_sides(a, draw):
    """Consistent ones (a times a point) and arbitrary ones, which are
    inconsistent whenever a has rank below its row count."""
    ncols = len(a[0])
    out = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            x = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
            out.append([sum(Fraction(u) * v for u, v in zip(row, x)) for row in a])
        else:
            out.append(draw(st.lists(rationals, min_size=len(a), max_size=len(a))))
    return out


def solved(solve, a, b):
    return repr(outcome(solve, a, b))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_matches_one_elimination_per_call(a, data):
    """Many right-hand sides for one matrix take the cache-hit path; each
    solution equals the uncached elimination's to the repr, before and
    after the cache is cleared, and for the matrix as lists or tuples."""
    rhs = right_hand_sides(a, data.draw)
    intlinalg._factor.cache_clear()
    for b in rhs:
        ref = solved(reference_solve_exact, a, b)
        assert solved(intlinalg.solve_exact, a, b) == ref
        assert solved(intlinalg.solve_exact, tuple(map(tuple, a)), tuple(b)) == ref
    assert intlinalg._factor.cache_info().hits >= 2 * len(rhs) - 1
    intlinalg._factor.cache_clear()
    for b in reversed(rhs):
        assert solved(intlinalg.solve_exact, a, b) == solved(reference_solve_exact, a, b)


def test_solve_exact_on_inconsistent_and_empty_systems():
    a = ((1, 2), (2, 4), (0, 0))
    assert intlinalg.solve_exact(a, (1, 2, 0)) == (Fraction(1), Fraction(0))
    assert intlinalg.solve_exact(a, (1, 3, 0)) is None
    assert intlinalg.solve_exact(a, (1, 2, Fraction(1, 3))) is None
    assert intlinalg.solve_exact((), ()) == ()
    assert intlinalg.solve_exact(((),), (0,)) == ()
    assert intlinalg.solve_exact(((),), (1,)) is None


# -- cold, warm and value-equal copies ---------------------------------------


def fibrations():
    rng = random.Random(12)
    return [
        to_a1(ex13_r1_q2()),
        to_a1(ex13_r2_q2()),
        to_a1(product_fan(p1(), product_fan(p1(), ex13_r1_q2()))),
        example_family(1, 3).f,
        example_family(2, 2).f,
        identity_morphism(a2()),
        fibration.morphism(
            ((0, 1, 0), (0, 0, 1)), product_fan(p1(), product_fan(p1(), a1())), product_fan(p1(), a1())
        ),
        *(random_half_plane_fibration(rng, extra_rank=k % 2) for k in range(4)),
    ]


def copy_fan(f: Fan) -> Fan:
    return Fan(f.rank, tuple(tuple(list(r)) for r in f.rays), tuple(tuple(list(c)) for c in f.max_cones))


def copy_morphism(f: ToricMorphism) -> ToricMorphism:
    return ToricMorphism(tuple(tuple(list(r)) for r in f.matrix), copy_fan(f.source), copy_fan(f.target))


def target_cones(f: ToricMorphism):
    tgt = f.target
    faces = {(i,) for i in range(len(tgt.rays))} | set(tgt.max_cones)
    return sorted(t for t in faces if t and is_cone_of(tgt, t))


EPS = Fraction(1, 3)


def queries(f: ToricMorphism, boundaries):
    """Every cached query on f: its result, or the type and message of what it raised."""
    out = [outcome(fibration.validate_morphism, f)]
    src = f.source
    zero = divisor(src, [0] * len(src.rays))
    for simplices in _triangulated(src):
        for s in simplices:
            out.append(outcome(cones.box_points, src.cone_gens(s), src.rank))
    for coeffs in boundaries:
        b = divisor(src, coeffs)
        out.append(outcome(rel_trivial_witness, f, b))
        out.append(outcome(discriminant_divisor, f, b))
        for w in range(len(f.target.rays)):
            out.append(outcome(lc_threshold_over, f, b, w))
            out.append(outcome(verify_lc_complement_theorem, f, zero, b, (w,), EPS, radius=6))
        for tau in target_cones(f):
            out.append(outcome(relative_mld, f, b, tau, EPS, radius=6))
            out.append(outcome(verify_adjunction_theorem, f, b, tau, EPS, radius=6))
    return out


def fresh_lc_threshold(f: ToricMorphism, b, w: int):
    """lc_threshold_over with one LP solved from scratch per cone."""
    a = log_discrepancy_function(f.source, b)
    wv = f.target.rays[w]
    vals = []
    for fn, c in zip(a.functionals, f.source.max_cones):
        gens = f.source.cone_gens(c)
        img = tuple(u for u in map(f.apply, gens) if not is_zero(u))
        if cones.contains(img, f.target.rank, wv):
            res = solve_min(cone_lp(gens, f.matrix, wv, fn))
            if isinstance(res, Unbounded):
                raise NotLogCanonicalOverBase(f"A is unbounded below on the fiber over ray {w}")
            vals.append(res.value)
    if not vals:
        raise NoCone(f"no maximal cone maps onto the ray {w}")
    return min(vals)


def thresholds_and_mlds(f: ToricMorphism, boundaries, lct, rel):
    """lct at every target ray and rel over every target cone, for each boundary."""
    out = []
    for coeffs in boundaries:
        b = divisor(f.source, coeffs)
        out += [outcome(lct, f, b, w) for w in range(len(f.target.rays))]
        out += [outcome(rel, f, b, tau, EPS, radius=6) for tau in target_cones(f)]
    return out


def plan_regions(f: ToricMorphism):
    """repr of every LP region the plans of f hold."""
    plans = [fibration._lc_plan(f, w) for w in range(len(f.target.rays))]
    plans += [fibration._relative_plan(f, tau)[1] for tau in target_cones(f)]
    regions = [r for plan in plans for entry in plan for r in entry if isinstance(r, ConeRegion)]
    return [repr(r) for r in regions]


def boundaries_for(f: ToricMorphism, rng: random.Random):
    src = f.source
    top = max(abs(v[-1]) for v in src.rays) or 1
    mu = Fraction(1, 4 * top)
    choices = (0, Fraction(1, 2), Fraction(1, 3), 1, Fraction(-1, 2))
    return [
        [0] * len(src.rays),
        [1] * len(src.rays),
        [1 - mu * v[-1] for v in src.rays],  # trivial over A^1 for the fibrations over it
        [rng.choice(choices) for _ in src.rays],
        [Fraction(3, 2) * (i % 2) for i in range(len(src.rays))],  # A < 0 on some rays
    ]


def test_queries_agree_cold_warm_and_on_copies():
    rng = random.Random(5)
    for f in fibrations():
        bs = boundaries_for(f, rng)
        for cache in NEW_CACHES:
            cache.cache_clear()
        cold = queries(f, bs)
        assert fibration._relative_plan.cache_info().currsize > 0
        regions = plan_regions(f)
        assert regions
        warm = queries(f, bs)
        copy = queries(copy_morphism(f), bs)
        assert cold == warm == copy, f
        assert fibration._relative_plan.cache_info().hits > 0
        assert fibration._lc_plan.cache_info().hits > 0
        assert plan_regions(f) == regions
        assert plan_regions(copy_morphism(f)) == regions


def test_plan_regions_match_lps_solved_from_scratch():
    """lc_threshold_over and relative_mld over the plans' regions, run
    with the plans warm from other boundaries, equal the results of LPs
    built and solved on every call (relative_mld's reference also cuts its
    regions by the double description)."""
    rng = random.Random(5)
    for f in fibrations():
        bs = boundaries_for(f, rng)
        queries(f, bs[::-1])
        planned = thresholds_and_mlds(f, bs, lc_threshold_over, relative_mld)
        fresh = thresholds_and_mlds(f, bs, fresh_lc_threshold, reference_relative_mld)
        assert planned == fresh, f


def test_search_walks_the_cached_triangulation():
    """The radius search takes each relevant cone's simplices from
    _triangulated(src): the simplices cones.triangulate gives the cone's
    generators, in the same order."""
    for f in fibrations():
        src = f.source
        for tau in target_cones(f):
            _, plan = fibration._relative_plan(f, tau)
            for k, gens, *_ in plan:
                direct = [tuple(gens[i] for i in t) for t in cones.triangulate(gens, src.rank)]
                assert direct == [src.cone_gens(s) for s in _triangulated(src)[k]]


def test_verify_adjunction_builds_a_once_per_pair():
    """The harness chains the triviality solve, the relative mld, the
    discriminant and each probe's thresholds and mld; A is built once per
    distinct (fan, divisor) pair among them.  With r = 1 (P^1 x P^1 x A^1
    over P^1 x A^1) the averaged boundary equals B, so four pairs remain;
    with r = 2, five."""
    for rank in (3, 4):
        src = product_fan(p1(), a1())
        for _ in range(rank - 2):
            src = product_fan(p1(), src)
        tgt = product_fan(p1(), a1())
        matrix = ((0,) * (rank - 2) + (1, 0), (0,) * (rank - 2) + (0, 1))
        f = fibration.morphism(matrix, src, tgt)
        b = divisor(src, [1 if any(r[:-2]) else 0 for r in src.rays])
        tau = (tgt.rays.index((0, 1)),)
        probes = ((1, 1), (-1, 2))
        log_discrepancy_function.cache_clear()
        rep = verify_adjunction_theorem(f, b, tau, eps=1, probes=probes)
        misses = log_discrepancy_function.cache_info().misses
        assert rep.status == "pass"
        assert len(rep.claims) == 1 + len(probes)

        gamma = average_boundary(b, src, Fraction(1, factorial(rank - 2)))
        disc = discriminant_divisor(f, gamma).divisor
        assert dict(rep.measurements)["base_boundary"] == disc.coeffs
        pairs = {(src, b), (src, gamma), (tgt, disc)}
        for p in probes:
            sub = star_subdivision(tgt, p)
            lifted = ToricMorphism(f.matrix, src, sub)
            pairs.add((sub, divisor(sub, [1 - t for t in lc_thresholds(lifted, gamma)])))
        assert len(pairs) == rank + 1
        assert misses == len(pairs)


# -- caches on the pair (f, B) -------------------------------------------------

HALF = Fraction(1, 2)
PAIR_EPS = (Fraction(1, 6), HALF, 1)
RADII = ({"radius": 0}, {"radius": 6}, {})  # {} takes the default radius
BUDGET = 3000  # _SEARCH_BUDGET in the sweep, so the default radius stays fast


def pair_fibrations():
    rng = random.Random(33)  # its boundaries reach every outcome below
    return [
        *(random_half_plane_fibration(rng, extra_rank=k % 2) for k in range(4)),
        to_a1(product_fan(p1(), ex13_r1_q2())),
        example_family(1, 2).f,
        example_family(2, 2).f,
    ]


def cold(fn):
    """fn, called with every library cache cleared first."""
    caches = set(library_caches().values())

    def call(*args, **kwargs):
        for cache in caches:
            cache.cache_clear()
        return fn(*args, **kwargs)

    return call


def pair_sweep(f: ToricMorphism, boundaries, rel, lct):
    """(query, result) of lct at every target ray, and of rel over every
    target cone at every eps and radius, for each boundary."""
    out = []
    for coeffs in boundaries:
        b = divisor(f.source, coeffs)
        out += [((b, w), outcome(lct, f, b, w)) for w in range(len(f.target.rays))]
        out += [
            ((b, tau, eps, kw), outcome(rel, f, b, tau, eps, **kw))
            for tau in target_cones(f)
            for eps in PAIR_EPS
            for kw in RADII
        ]
    return out


def rel_path(f: ToricMorphism, b, tau, res) -> str:
    """Which way relative_mld reached res: the decided exits of its cached
    analysis, or the radius search."""
    if isinstance(res, tuple):
        return res[0].__name__
    if not isinstance(res, Exact):
        return type(res).__name__
    if res.value is MINUS_INFINITY:
        return "minus_infinity"
    _, start = fibration._relative_analysis(f, b, tau)
    if isinstance(start, fibration._SearchStart):
        return "exact_search"
    return "exact_enum" if all(c < 1 for c in b.coeffs) else "exact_lp"


def test_pair_caches_match_cold_calls_and_references(monkeypatch):
    """relative_mld and lc_threshold_over, swept over eps and radii with
    their pair caches warm, equal the same calls with every library cache
    cleared first, and the references that cache nothing.  The caches are
    warmed at one search budget and swept at that budget and at 2: the
    budget, like eps and the radius, is read on every call."""
    rng = random.Random(8)
    paths = set()
    for f in pair_fibrations():
        bs = boundaries_for(f, rng)
        for budget in (BUDGET, 2):
            monkeypatch.setattr(fibration, "_SEARCH_BUDGET", BUDGET)
            pair_sweep(f, bs[::-1], relative_mld, lc_threshold_over)
            monkeypatch.setattr(fibration, "_SEARCH_BUDGET", budget)
            hits = [c.cache_info().hits for c in (fibration._relative_analysis, lc_threshold_over)]
            warm = pair_sweep(f, bs, relative_mld, lc_threshold_over)
            for h, c in zip(hits, (fibration._relative_analysis, lc_threshold_over)):
                assert c.cache_info().hits > h
            paths |= {rel_path(f, q[0], q[1], res) for q, res in warm if len(q) == 4}
            assert warm == pair_sweep(f, bs, cold(relative_mld), cold(lc_threshold_over)), f
            ref_rel = partial(reference_relative_mld, budget=budget)
            assert warm == pair_sweep(f, bs, ref_rel, fresh_lc_threshold), f
    assert paths >= {
        "exact_enum",
        "exact_lp",
        "exact_search",
        "minus_infinity",
        "CertifiedAtLeast",
        "Witness",
        "Indeterminate",
        "BudgetExhausted",
    }, paths


def non_q_gorenstein_over_a1():
    """The cone over (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2) over A^1
    by its last coordinate: K is not Q-Cartier there, and K + B is for B
    with -1 on the ray (0, -1, 2), where A is the last coordinate."""
    x = fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)], [(0, 1, 2, 3)])
    f = fibration.morphism(((0, 0, 1),), x, a1())
    return f, zero_divisor(x), divisor(x, [-1 if v == (0, -1, 2) else 0 for v in x.rays])


def test_errors_keep_their_order_on_a_warm_pair():
    """A cached analysis of (f, B, tau_z) moves no argument check behind it,
    and an error is raised on every call and never cached."""
    f, zero, b = non_q_gorenstein_over_a1()
    res = relative_mld(f, b, (0,), HALF)
    assert relative_mld(f, b, (0,), HALF) == res == Exact(Fraction(1), (-1, 0, 1))
    radius = (DomainError, "the search radius must be >= 0, got -1")
    empty = (DomainError, "the base cone must have dimension >= 1")
    not_a_cone = (NotACone, "(1,) is not a cone of the target fan")
    assert outcome(relative_mld, f, b, (0,), HALF, radius=-1) == radius
    assert outcome(relative_mld, f, b, (0,), "x", radius=-1) == radius
    assert outcome(relative_mld, f, b, (0,), "x")[0] is ValueError
    assert outcome(relative_mld, f, b, (), HALF) == empty
    size = fibration._relative_analysis.cache_info().currsize
    for _ in range(2):
        assert outcome(relative_mld, f, zero, (1,), HALF) == not_a_cone
        assert outcome(relative_mld, f, zero, (0,), HALF)[0] is NotQCartier
        assert outcome(relative_mld, f, b, (1,), HALF, radius=-1) == radius
    assert fibration._relative_analysis.cache_info().currsize == size


def test_lc_threshold_errors_are_raised_on_every_call():
    src = product_fan(p1(), a1())
    f = to_a1(src)
    b = divisor(src, [2 if v == (1, 0) else 0 for v in src.rays])
    before = lc_threshold_over.cache_info()
    for _ in range(3):
        assert outcome(lc_threshold_over, f, b, 0) == (
            NotLogCanonicalOverBase,
            "A is unbounded below on the fiber over ray 0",
        )
    after = lc_threshold_over.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses + 3)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda res: Exact(res.value + 1, res.witness),
        lambda res: Exact(res.value, tuple(2 * x for x in res.witness)),
        lambda res: Exact(MINUS_INFINITY, res.witness),
        lambda res: Witness(res.witness, res.value - 1),
    ],
    ids=["value", "not primitive", "minus infinity", "Witness"],
)
def test_every_returned_witness_is_reevaluated(monkeypatch, tamper):
    """A decided result comes from the cache, yet its witness is checked
    against A on each call that returns it."""
    f = to_a1(ex13_r1_q2())
    b = zero_divisor(f.source)
    a, res = fibration._relative_analysis(f, b, (0,))
    assert relative_mld(f, b, (0,), HALF) == res
    monkeypatch.setattr(fibration, "_relative_analysis", lambda *_: (a, tamper(res)))
    with pytest.raises(AssertionError, match="re-evaluation"):
        relative_mld(f, b, (0,), HALF)
