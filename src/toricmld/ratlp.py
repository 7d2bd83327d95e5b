"""Exact rational linear programming over finitely generated cones.

Programs have the shape

    minimize  <c, x>  over  x = sum_j lam_j * g_j,  lam >= 0,  A x = b

and are solved by substituting x = G lam and running a two-phase simplex
with Bland's rule on the standard form in lam.  Data come in and results
go out as Fractions, but the arithmetic is fraction-free: each tableau row
is integer numerators over one positive row denominator, and each check
cross-multiplies integers.

The phases are split where they meet.  Phase one never reads the
objective, so ``cone_region(generators, A, b)`` runs it once per region:
it checks the program's shape, builds the integer rows, and keeps either
the feasible basis phase one ends on, leftover artificials pivoted out,
or an Infeasible result whose Farkas vector it has checked.
``minimize(region, c)`` runs phase two from a copy of that basis and
checks what it returns: an Optimal result's dual vector is re-verified,
and an Unbounded result's recession direction.  A region is immutable,
so one serves any number of objectives, with the pivots of a solve from
scratch.  ``solve_min`` and ``simplex_min`` are phase one followed by
phase two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedProgram
from .intlinalg import clear_denominators, dot, eliminate, unit_pivot

QV = tuple[Fraction, ...]


@dataclass(frozen=True)
class ConeLP:
    generators: tuple[tuple[int, ...], ...]
    eq_matrix: tuple[tuple[Fraction, ...], ...]
    rhs: QV
    objective: QV


def cone_lp(generators, eq_matrix, rhs, objective) -> ConeLP:
    gens = tuple(tuple(int(x) for x in g) for g in generators)
    eq = tuple(tuple(Fraction(x) for x in row) for row in eq_matrix)
    b = tuple(Fraction(x) for x in rhs)
    c = tuple(Fraction(x) for x in objective)
    n = len(c)
    if not gens:
        raise MalformedProgram("cone needs at least one generator")
    if any(len(g) != n for g in gens):
        raise MalformedProgram("generator dimension does not match objective")
    if any(all(x == 0 for x in g) for g in gens):
        raise MalformedProgram("zero generator")
    if len(eq) != len(b) or any(len(row) != n for row in eq):
        raise MalformedProgram("equality system dimensions inconsistent")
    return ConeLP(gens, eq, b, c)


@dataclass(frozen=True)
class Optimal:
    value: Fraction
    point: QV
    multipliers: QV
    dual: QV


@dataclass(frozen=True)
class Infeasible:
    certificate: QV


@dataclass(frozen=True)
class Unbounded:
    direction: QV
    multipliers: QV


LPStatus = Optimal | Infeasible | Unbounded


@dataclass(frozen=True)
class _Basis:
    """The tableau phase one ends on: row i is rows[i] (rhs last) over
    dens[i], with column basis[i] basic in it; flip[i] is the sign its
    equation was multiplied by to make the rhs nonnegative."""

    ncols: int
    rows: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    basis: tuple[int, ...]
    flip: tuple[int, ...]


def _pivot(t, dens, basis, r, col) -> None:
    dens[r], t[r] = unit_pivot(t[r], col)
    eliminate(t, dens, r, col)
    basis[r] = col


def _run(t, dens, basis, allowed):
    """Bland's rule on the cost row, the last row of t: pivot until no
    allowed column has a negative cost (None), or return an entering
    column that no row bounds."""
    nrows = len(basis)
    total = len(t[nrows]) - 1
    while True:
        cost = t[nrows]
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return None
        best = None
        for i in range(nrows):
            q = t[i][enter]
            if q > 0:
                n = t[i][total]
                if best is None:
                    best = (n, q, i)
                    continue
                lhs, rhs = n * best[1], best[0] * q
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best[2]]):
                    best = (n, q, i)
        if best is None:
            return enter
        _pivot(t, dens, basis, best[2], enter)


def _cost_row(t, dens, base, weights, wden):
    """(base - sum_i weights[i] * t[i] / dens[i]) / wden as (den, numerators)."""
    lcm = math.lcm(*(dens[i] for i, w in enumerate(weights) if w))
    row = [x * lcm for x in base]
    for i, w in enumerate(weights):
        if w:
            m = w * (lcm // dens[i])
            row = [x - m * y for x, y in zip(row, t[i])]
    den = wden * lcm
    g = math.gcd(den, *row)
    return den // g, [x // g for x in row]


def _phase_one(ncols: int, eqs) -> _Basis | tuple:
    """Phase one on {lam >= 0 : a lam = b}, with equation i given as
    (numerators of (a_i, b_i), den).  Returns the basis it ends on, or
    ("infeasible", y) with a Farkas vector y."""
    nrows = len(eqs)
    total = ncols + nrows
    t, dens, flip = [], [], []
    for i, (nums, den) in enumerate(eqs):
        sign = -1 if nums[-1] < 0 else 1
        ident = [0] * nrows
        ident[i] = den
        t.append([sign * x for x in nums[:-1]] + ident + [sign * nums[-1]])
        dens.append(den)
        flip.append(sign)
    basis = [ncols + i for i in range(nrows)]
    # the cost row rides along as row nrows of the tableau
    den, cost = _cost_row(t, dens, [0] * ncols + [1] * nrows + [0], [1] * nrows, 1)
    t.append(cost)
    dens.append(den)
    _run(t, dens, basis, range(total))
    cost, cden = t[nrows], dens[nrows]
    if cost[total] < 0:
        y = tuple(Fraction(flip[i] * (cden - cost[ncols + i]), cden) for i in range(nrows))
        return ("infeasible", y)

    # pivot leftover artificials out on zero-rhs rows; rows whose x-part is
    # entirely zero are redundant and keep a harmless artificial at level 0
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if t[r][j]), None)
            if col is not None:
                _pivot(t, dens, basis, r, col)
    rows = tuple(map(tuple, t[:nrows]))
    return _Basis(ncols, rows, tuple(dens[:nrows]), tuple(basis), tuple(flip))


def _phase_two(start: _Basis, cn, cd):
    """min (cn / cd).lam from the phase-one basis start.  Pivots replace
    rows of a copy of its outer list, so start itself is never changed."""
    ncols, nrows = start.ncols, len(start.basis)
    t, dens, basis = list(start.rows), list(start.dens), list(start.basis)
    weights = [cn[j] if j < ncols else 0 for j in basis]
    den, cost = _cost_row(t, dens, [*cn] + [0] * (nrows + 1), weights, cd)
    t.append(cost)
    dens.append(den)
    enter = _run(t, dens, basis, range(ncols))
    if enter is not None:
        d = [Fraction(0)] * ncols
        d[enter] = Fraction(1)
        for i in range(nrows):
            if basis[i] < ncols:
                d[basis[i]] = Fraction(-t[i][enter], dens[i])
        return ("unbounded", tuple(d))
    total = ncols + nrows
    lam = [Fraction(0)] * ncols
    for i in range(nrows):
        if basis[i] < ncols:
            lam[basis[i]] = Fraction(t[i][total], dens[i])
    cost, cden = t[nrows], dens[nrows]
    y = tuple(Fraction(-start.flip[i] * cost[ncols + i], cden) for i in range(nrows))
    return ("optimal", tuple(lam), y)


def simplex_min(c, a, b):
    """min c.lam over {lam >= 0 : a lam = b}, exact two-phase simplex.

    Returns ("optimal", lam, y) with dual y, ("infeasible", y) with a Farkas
    vector (y.a <= 0 componentwise, y.b > 0), or ("unbounded", d) with a
    recession direction d >= 0, a d = 0, c.d < 0.

    The tableau holds each row, and the cost row as its last, as integer
    numerators over one positive row denominator; the pivots are those of
    the rational tableau: Bland's rule on the sign of a cost numerator and
    the ratio test cross-multiplied, ties to the smallest basic index.
    """
    cn, cd = clear_denominators(c)
    start = _phase_one(len(c), [clear_denominators((*row, b[i])) for i, row in enumerate(a)])
    return start if isinstance(start, tuple) else _phase_two(start, cn, cd)


@dataclass(frozen=True)
class ConeRegion:
    """The feasible set {sum_j lam_j g_j : lam >= 0, A x = b} of a cone
    program, with phase one run.

    Equation i is held as integer numerators over dens[i]: rows[i][j] =
    dens[i] * (A_i . g_j), cols is the transpose of rows, and rhs[i] =
    dens[i] * b_i.  start is the phase-one basis, or the region's checked
    Infeasible result."""

    generators: tuple[tuple[int, ...], ...]
    dens: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    start: _Basis | Infeasible


def _weights(y, dens):
    """y_i / dens[i] as numerators over one denominator."""
    yn, yd = clear_denominators(y)
    lcm = math.lcm(*dens)
    return [v * (lcm // den) for v, den in zip(yn, dens)], yd * lcm


def cone_region(generators, eq_matrix, rhs) -> ConeRegion:
    """The region of the cone program with these constraints; a Farkas
    vector for an empty region is verified here, once."""
    gens = tuple(tuple(int(x) for x in g) for g in generators)
    if not gens:
        raise MalformedProgram("cone needs at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise MalformedProgram("generators differ in dimension")
    if any(all(x == 0 for x in g) for g in gens):
        raise MalformedProgram("zero generator")
    eq = [tuple(row) for row in eq_matrix]
    b = tuple(rhs)
    if len(eq) != len(b) or any(len(row) != n for row in eq):
        raise MalformedProgram("equality system dimensions inconsistent")
    eqs = [clear_denominators((*row, bi)) for row, bi in zip(eq, b)]
    dens = tuple(den for _, den in eqs)
    rhs_n = tuple(nums[-1] for nums, _ in eqs)
    # rows[i][j] = dens[i] * (eq_matrix[i] . g_j); zip stops before the rhs
    rows = tuple(tuple(sum(x * y for x, y in zip(nums, g)) for g in gens) for nums, _ in eqs)
    cols = tuple(zip(*rows)) if rows else ((),) * len(gens)
    start = _phase_one(len(gens), [((*row, bi), den) for row, bi, den in zip(rows, rhs_n, dens)])
    if isinstance(start, tuple):
        y = start[1]
        w, _ = _weights(y, dens)
        if any(dot(w, col) > 0 for col in cols) or dot(w, rhs_n) <= 0:
            raise AssertionError("invalid infeasibility certificate")
        start = Infeasible(certificate=y)
    return ConeRegion(gens, dens, rows, cols, rhs_n, start)


def minimize(region: ConeRegion, objective) -> LPStatus:
    """min <objective, x> over the region, by phase two alone; an Optimal
    result's dual and an Unbounded result's direction are verified on
    return.  Equation i is over dens[i] and the objective over cd, so each
    check compares cross-multiplied integers."""
    gens = region.generators
    n = len(gens[0])
    cn, cd = clear_denominators(objective)
    if len(cn) != n:
        raise MalformedProgram("objective dimension does not match the generators")
    if isinstance(region.start, Infeasible):
        return region.start
    rows, cols, rhs = region.rows, region.cols, region.rhs
    chat = [dot(cn, g) for g in gens]
    res = _phase_two(region.start, chat, cd)

    def combine(nums, den):
        return tuple(Fraction(sum(x * g[i] for x, g in zip(nums, gens)), den) for i in range(n))

    if res[0] == "unbounded":
        d = res[1]
        dn, dd = clear_denominators(d)
        if any(x < 0 for x in dn) or any(dot(dn, row) != 0 for row in rows) or dot(chat, dn) >= 0:
            raise AssertionError("invalid unboundedness direction")
        return Unbounded(direction=combine(dn, dd), multipliers=d)
    _, lam, y = res
    ln, ld = clear_denominators(lam)
    w, wd = _weights(y, region.dens)
    value = dot(chat, ln)
    ok = (
        all(x >= 0 for x in ln)
        and all(dot(ln, row) == bi * ld for row, bi in zip(rows, rhs))
        and all(cd * dot(w, col) <= cj * wd for col, cj in zip(cols, chat))
        and dot(w, rhs) * cd * ld == value * wd
    )
    if not ok:
        raise AssertionError("optimal result failed its duality check")
    return Optimal(value=Fraction(value, cd * ld), point=combine(ln, ld), multipliers=lam, dual=y)


def solve_min(p: ConeLP) -> LPStatus:
    """Solve the cone program exactly; certificates are verified on return."""
    return minimize(cone_region(p.generators, p.eq_matrix, p.rhs), p.objective)
