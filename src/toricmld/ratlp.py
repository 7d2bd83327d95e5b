"""Exact rational linear programming over finitely generated cones.

Programs have the shape

    minimize  <c, x>  over  x = sum_j lam_j * g_j,  lam >= 0,  A x = b

and are solved by substituting x = G lam and running a two-phase simplex
with Bland's rule on the standard form in lam.  Data come in and results
go out as Fractions, but the arithmetic is fraction-free: each tableau row
is integer numerators over one positive row denominator, and each check
cross-multiplies integers.  Every Optimal result carries a dual vector
that is re-verified before it is returned, Infeasible results a checked
Farkas vector, and Unbounded results a checked recession direction.
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
    ncols = len(c)
    nrows = len(a)
    total = ncols + nrows
    cn, cd = clear_denominators(c)
    t, dens, flip = [], [], []
    for i, row in enumerate(a):
        nums, den = clear_denominators((*row, b[i]))
        sign = -1 if nums[-1] < 0 else 1
        ident = [0] * nrows
        ident[i] = den
        t.append([sign * x for x in nums[:-1]] + ident + [sign * nums[-1]])
        dens.append(den)
        flip.append(sign)
    basis = [ncols + i for i in range(nrows)]

    def pivot(r, col):
        dens[r], t[r] = unit_pivot(t[r], col)
        eliminate(t, dens, r, col)
        basis[r] = col

    def run(allowed):
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
            pivot(best[2], enter)

    def cost_row(base, weights, wden):
        # (base - sum_i weights[i] * t[i] / dens[i]) / wden as (den, numerators)
        lcm = math.lcm(*(dens[i] for i, w in enumerate(weights) if w))
        row = [x * lcm for x in base]
        for i, w in enumerate(weights):
            if w:
                m = w * (lcm // dens[i])
                row = [x - m * y for x, y in zip(row, t[i])]
        den = wden * lcm
        g = math.gcd(den, *row)
        return den // g, [x // g for x in row]

    # the cost row rides along as row nrows of the tableau
    den, cost = cost_row([0] * ncols + [1] * nrows + [0], [1] * nrows, 1)
    t.append(cost)
    dens.append(den)
    run(range(total))
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
                pivot(r, col)

    weights = [cn[basis[i]] if basis[i] < ncols else 0 for i in range(nrows)]
    dens[nrows], t[nrows] = cost_row(cn + [0] * (nrows + 1), weights, cd)
    enter = run(range(ncols))
    if enter is not None:
        d = [Fraction(0)] * ncols
        d[enter] = Fraction(1)
        for i in range(nrows):
            if basis[i] < ncols:
                d[basis[i]] = Fraction(-t[i][enter], dens[i])
        return ("unbounded", tuple(d))
    lam = [Fraction(0)] * ncols
    for i in range(nrows):
        if basis[i] < ncols:
            lam[basis[i]] = Fraction(t[i][total], dens[i])
    cost, cden = t[nrows], dens[nrows]
    y = tuple(Fraction(-flip[i] * cost[ncols + i], cden) for i in range(nrows))
    return ("optimal", tuple(lam), y)


def solve_min(p: ConeLP) -> LPStatus:
    """Solve the cone program exactly; certificates are verified on return.

    Equation i is held as integer numerators over dens[i] and the objective
    over cd, so every certificate check compares cross-multiplied integers.
    """
    gens = p.generators
    n = len(p.objective)
    eqs = [clear_denominators((*row, bi)) for row, bi in zip(p.eq_matrix, p.rhs)]
    dens = [den for _, den in eqs]
    rhs = [nums[-1] for nums, _ in eqs]
    # rows[i][j] = dens[i] * (eq_matrix[i] . g_j); zip stops before the rhs
    rows = [[sum(x * y for x, y in zip(nums, g)) for g in gens] for nums, _ in eqs]
    cols = list(zip(*rows)) if rows else [()] * len(gens)
    cn, cd = clear_denominators(p.objective)
    chat = [dot(cn, g) for g in gens]
    res = simplex_min(
        chat if cd == 1 else [Fraction(x, cd) for x in chat],
        [row if den == 1 else [Fraction(x, den) for x in row] for row, den in zip(rows, dens)],
        p.rhs,
    )

    def weights(y):
        # y_i / dens[i] as numerators over one denominator
        yn, yd = clear_denominators(y)
        lcm = math.lcm(*dens)
        return [v * (lcm // den) for v, den in zip(yn, dens)], yd * lcm

    def combine(nums, den):
        return tuple(Fraction(sum(x * g[i] for x, g in zip(nums, gens)), den) for i in range(n))

    if res[0] == "infeasible":
        y = res[1]
        w, _ = weights(y)
        if any(dot(w, col) > 0 for col in cols) or dot(w, rhs) <= 0:
            raise AssertionError("invalid infeasibility certificate")
        return Infeasible(certificate=y)
    if res[0] == "unbounded":
        d = res[1]
        dn, dd = clear_denominators(d)
        if any(x < 0 for x in dn) or any(dot(dn, row) != 0 for row in rows) or dot(chat, dn) >= 0:
            raise AssertionError("invalid unboundedness direction")
        return Unbounded(direction=combine(dn, dd), multipliers=d)
    _, lam, y = res
    ln, ld = clear_denominators(lam)
    w, wd = weights(y)
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
