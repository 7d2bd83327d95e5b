"""Minimal log discrepancies of toric pairs.

Everything reduces to minimizing the PL function A over lattice points:
on each (triangulated) maximal cone, every lattice point splits as an
integer combination of the generators plus a point of the half-open
fundamental parallelepiped, so when A is positive on the rays the minimum
is attained among ray generators and parallelepiped points, and sublevel
regions are finite and enumerable.

Every scan walks simplices of the triangulated cones.  ``global_mld``
builds no box: ``cones.box_minimum`` scans only the box points under the
best value so far, and the count covers every box point but the zero one
(|det V| - 1 per simplex).  ``mld_at_cone`` with A nonnegative on the
generators of tau builds no box either: ``cones.cone_runs`` scans the
points of relint(tau) under the value at p0 = Σ g_i in each simplex, with
t_i < 2 on each generator where A vanishes (a point with t_i >= 2 there
has the same value as the point of relint(tau) one generator lower), and
the count is their number, once per simplex that holds them.  Its witness
is p0 when nothing goes below it, and otherwise the point at the least
value that the walk of box points plus multiples of the generators meets
first (``_walk_first``, taken only when distinct points tie).  The scans
compare integers: A is taken as integer numerators over one common
denominator (``PLFunction.integral``), a cap becomes ``floor(cap * den)``,
and a Fraction is built only for the value returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from . import cones
from .divisors import ToricDivisor, log_discrepancy_function
from .errors import DomainError, NotACone, OutsideSupport
from .fans import Fan, is_cone_of
from .intlinalg import Vec, dot, is_zero, vec_add


class _MinusInfinity:
    __slots__ = ()

    def __repr__(self):
        return "-Infinity"


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class MldReport:
    value: object
    witness: Vec | None
    enumerated_count: int
    status: str  # "exact" | "minus_infinity"


def log_discrepancy(f: Fan, b: ToricDivisor, v) -> Fraction:
    """A(v) for the pair (X, B); v must be a nonzero point of the support."""
    if is_zero(v):
        raise DomainError("log discrepancies are indexed by nonzero lattice points")
    a = log_discrepancy_function(f, b)
    return a(v)


@lru_cache(maxsize=1024)
def _triangulated(f: Fan) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per maximal cone, simplices given by fan ray indices."""
    out = []
    for c in f.max_cones:
        gens = f.cone_gens(c)
        tri = cones.triangulate(gens, f.rank)
        out.append(tuple(tuple(c[i] for i in t) for t in tri))
    return tuple(out)


def global_mld(f: Fan, b: ToricDivisor) -> MldReport:
    """Minimum of A over all nonzero lattice points of the support."""
    if not f.max_cones or not f.rays:
        raise DomainError("the fan has no rays to take discrepancies along")
    a = log_discrepancy_function(f, b)
    ray_vals = [1 - c for c in b.coeffs]
    den, nums = a.integral(ray_vals)
    count = len(f.rays)
    neg = next((i for i, v in enumerate(ray_vals) if v < 0), None)
    if neg is not None:
        return MldReport(MINUS_INFINITY, f.rays[neg], count, "minus_infinity")
    best = min(cones.point_key(int(v * den), r) for v, r in zip(ray_vals, f.rays))
    for m, simplices in zip(nums, _triangulated(f)):
        for simplex in simplices:
            gens = f.cone_gens(simplex)
            count += cones.box_size(gens, f.rank) - 1  # every point but the zero one
            best = cones.box_minimum(gens, f.rank, m, best)
    return MldReport(Fraction(best[0], den), best[2], count, "exact")


def _cone_numerators(f: Fan, nums, tau: tuple[int, ...]):
    for c, m in zip(f.max_cones, nums):
        if set(tau) <= set(c):
            return m
    raise NotACone(f"{tau} is not contained in a maximal cone")


def _walk_first(simplices, dim: int, tied) -> Vec:
    """The point of the tied runs that the walk of each simplex's box points
    plus multiples of its generators reaches first: the least key
    (simplex index, index of b in ``box_points``, floor(t)), where
    x = Σ t_i g_i and b = x - Σ floor(t_i) g_i.  Keys are taken only when
    the runs hold distinct points."""
    found = [(j, point(k)) for j, lo, hi, point in tied for k in range(lo, hi + 1)]
    if len({x for _, x in found}) == 1:
        return found[0][1]
    boxes = {}

    def key(item):
        j, x = item
        sgens = simplices[j]
        if j not in boxes:
            boxes[j] = {b: i for i, b in enumerate(cones.box_points(sgens, dim))}
        ks = [math.floor(t) for t in cones.barycentric(sgens, x)]
        b = tuple(c - sum(map(mul, ks, col)) for c, col in zip(x, zip(*sgens)))
        return j, boxes[j][b], ks

    return min(found, key=key)[1]


def mld_at_cone(f: Fan, b: ToricDivisor, tau: tuple[int, ...]) -> MldReport:
    """Minimum of A over nonzero lattice points of relint(tau).

    With A nonnegative on the generators the minimum is attained and the
    result is exact: the points of each simplex under the value at p0 are
    finitely many once t_i < 2 on the generators where A vanishes, and that
    bound keeps the least value.  A negative value at a generator gives
    -infinity, with a point of relint(tau) where A is negative.
    """
    tau = tuple(sorted(set(tau)))
    if not tau:
        raise DomainError("the minimal log discrepancy at a cone needs dimension >= 1")
    if not is_cone_of(f, tau):
        raise NotACone(f"{tau} is not a cone of the fan")
    a = log_discrepancy_function(f, b)
    den, nums = a.integral()
    m = _cone_numerators(f, nums, tau)
    gens = f.cone_gens(tau)
    vals = [dot(m, g) for g in gens]

    if any(v < 0 for v in vals):
        g_neg = gens[next(i for i, v in enumerate(vals) if v < 0)]
        p0 = cones.relint_point(gens)
        w = p0
        while dot(m, w) >= 0:
            w = vec_add(w, g_neg)
        return MldReport(MINUS_INFINITY, w, 1, "minus_infinity")

    p0 = cones.relint_point(gens)
    capn = dot(m, p0)
    best_n, best_wit = capn, p0
    simplices = [tuple(gens[i] for i in t) for t in cones.triangulate(gens, f.rank)]
    # relint(tau) = {E x = 0, F x > 0}, which excludes 0; the runs of every
    # simplex hold its points under the cap, once per simplex that contains
    # them; tied keeps the runs' points at the least value found below capn
    ineqs = cones.hrep(gens, f.rank)[1]
    count, tied = 0, []
    for j, sgens in enumerate(simplices):
        for lo, hi, n0, step, point in cones.cone_runs(sgens, f.rank, m, [capn], ineqs):
            count += hi - lo + 1
            if step:
                lo = hi = lo if step > 0 else hi
            n = n0 + step * lo
            if n < best_n:
                best_n, tied = n, []
            if n == best_n < capn:
                tied.append((j, lo, hi, point))
    if tied:
        best_wit = _walk_first(simplices, f.rank, tied)
    return MldReport(Fraction(best_n, den), best_wit, count, "exact")


def is_eps_lc(f: Fan, b: ToricDivisor, eps: Fraction) -> bool:
    """mld(X, B) >= eps."""
    report = global_mld(f, b)
    if report.value is MINUS_INFINITY:
        return False
    return report.value >= Fraction(eps)


def brute_force_mld_in_ball(f: Fan, b: ToricDivisor, radius: int) -> tuple:
    """Reference minimization of A over all nonzero support points with
    sup-norm <= radius (test oracle)."""
    a = log_discrepancy_function(f, b)
    best = None
    for x in product(range(-radius, radius + 1), repeat=f.rank):
        if is_zero(x):
            continue
        try:
            val = a(x)
        except OutsideSupport:
            continue
        if best is None or val < best[0]:
            best = (val, x)
    return best
