"""Polyhedral cone primitives shared by the fan and singularity modules.

A cone is passed around as a tuple of integer generator vectors together
with the ambient dimension (generators alone cannot tell the dimension when
the tuple is empty).  H-representations are {x : E x = 0, F x >= 0} with
integer primitive rows, found in Z^dim itself (no change of coordinates into
the span).  Nearly every cone the fans hold is simplicial and
full-dimensional: dim generators with det G != 0.  Its facet normals are
the columns of sign(det G) adj(G), from one fraction-free elimination, and E
is empty.  Every other input (lower-dimensional, rank-deficient or
non-simplicial generators) takes the general path: E is an integer kernel,
and each facet normal is the vector of signed maximal minors of generators
stacked with E.  Both are cached on the (gens, dim) key in a bounded cache.

``cut`` and ``intersect`` are the double-description step.  They serve only
tau ∩ im phi_R in ``fibration._is_proper`` and ``covered_by``; preimages of
cones under a compatible map are faces, read off the rays (``fibration``).
``covered_by`` decides whether a union of cones covers a cone by splitting it
along every facet hyperplane, dropping the redundant generators of each
piece so that repeated cuts do not compound.  The library does not call it
(``fibration`` decides properness by wall gluing); the tests keep it as the
reference for that check.

Box points (the lattice points of a half-open parallelepiped spanned by
independent generators) are enumerated with integer residues over the Smith
form of the generator matrix, as Normaliz does: with U V W = D and N the
largest invariant factor, each coset of the lattice modulo the generators
gives one residue vector k = W (s_i N / D_i) mod N, and the point is
Σ k_i g_i / N.  The work is done one column at a time, not one point at a
time: ``_box_residues`` returns one list per generator (k_r of every
coset), each coordinate column of the points is Σ_r k_r g_r[j], and the
points are the quotient columns zipped.  Every point is still checked in
integers, by whole columns: 0 <= k_r < N by each residue column's min and
max, exact division by N by each coordinate column's remainders, and one
distinct point per coset by the size of the point set.  ``values_at``
evaluates a functional over the points' coordinate columns in the same way.
What depends on the simplex alone (the rank check, the generator matrix in
its span lattice, |det| and sign(det) adj from one elimination, the Smith
form's residue steps) is cached per simplex in bounded caches
(``_box_lattice``, ``_residue_steps``), O(d^2) integers each; the residues,
the points and the checks are made on every call.

``box_runs`` scans the box points under a cap on a linear functional
without building the box: on an LLL-reduced basis of the lattice, the 2d + 1
rows (box and cap) are eliminated once by Fourier–Motzkin and the points are
lifted one coordinate at a time, the last coordinate one run at a time
(``_lattice_runs``).  ``cone_runs`` scans the lattice points of the closed
simplicial cone under a cap in the same way, with the rows t >= 0, the cap,
t_i < 2 on each generator where the functional vanishes (which keeps every
value it takes) and F x >= 1 for each given row F (with the inequalities of
a cone's H-representation, its relative interior).  The reduced basis of
each simplex is cached (``_reduced_lattice``, on top of ``_box_lattice``'s
span basis, |det V| and s adj V); the elimination depends on the functional
and is done per call.  ``least_key`` is the one fold of the scans whose answer
does not depend on scan order: it keeps the least (value, sup-norm, x) key
(``point_key``) over runs, builds only the least end of a run (all of it
when its step is 0) and lowers the cap to each better value, which the
scans read between runs.  ``box_minimum`` folds ``box_runs`` with it.

``capped_runs`` walks the same points of a simplicial cone as box points
plus at most radius multiples of each generator, under a cap on a linear
functional, which may vanish on a generator.  It stays for the one scan
whose result follows the walk's order: the radius search of
``fibration.relative_mld``, which charges its budget in walk order.  It walks
one run at a time: all coefficients but the last are fixed, so the capped
functional and each row of an H-representation (E x = 0, F x > 0) are
arithmetic progressions in the last one, and floor division gives the
interval of points that pass them all (``progression_interval``).  Callers
count a run by its size and build a point only when it can be the answer.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import combinations, product, repeat
from operator import add, floordiv, mod, mul

from .errors import NotACone
from .intlinalg import (
    Mat,
    Vec,
    _det_adjugate,
    dot,
    identity,
    is_zero,
    kernel_basis,
    lll_reduce,
    minor_normal,
    primitive,
    rank,
    smith_normal_form,
    solve_exact,
    transpose,
)


def _kernel(rows, dim: int) -> tuple[Vec, ...]:
    if not rows:
        return identity(dim)
    return kernel_basis(tuple(rows))


def span_equations(gens, dim: int) -> tuple[Vec, ...]:
    """Functionals vanishing on the linear span of gens."""
    return _kernel(gens, dim)


def span_lattice_basis(gens, dim: int) -> tuple[Vec, ...]:
    """Basis of span(gens) ∩ Z^dim (a saturated sublattice)."""
    eqs = span_equations(gens, dim)
    return _kernel(eqs, dim)


def span_coordinates(basis: Mat, v) -> Vec:
    """Coordinates of v in a saturated lattice basis (rows of basis)."""
    sol = solve_exact(transpose(basis), v)
    if sol is None or any(x.denominator != 1 for x in sol):
        raise NotACone(f"{v} is not in the sublattice spanned by {basis}")
    return tuple(int(x) for x in sol)


@lru_cache(maxsize=4096)
def hrep(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(equations, inequalities) with cone(gens) = {E x = 0, F x >= 0}.

    Full-dimensional simplicial cones (dim generators with det G != 0, G
    the generators as rows) are read off one fraction-free elimination,
    which gives det G and adj G together (``_det_adjugate``):
    G adj(G) = det(G) I, so column i of sign(det G) adj(G) is >= 0 on every
    generator and vanishes on all but the i-th, and its primitive multiple
    is the inward normal of the facet without generator i; E is empty.

    Every other input (fewer or more generators than dim, or dim of them
    with det G = 0) takes the general path: E is an integer kernel, and a
    facet normal is the vector of signed maximal minors of d - 1 generators
    stacked with E, d = dim - len(E) the dimension of the span; orthogonal
    to E, it lies in the span.  Subsets whose minors all vanish span no
    hyperplane and are skipped.  A normal is kept, inward, unless
    generators lie on both sides.  Both paths give the same answer on a
    full-dimensional simplicial cone.
    """
    gens = tuple(g for g in gens if not is_zero(g))
    if len(gens) == dim:
        dg, adj = _det_adjugate(gens)
        if adj is not None:
            sign = 1 if dg > 0 else -1
            normals = (primitive(tuple(sign * row[i] for row in adj)) for i in range(dim))
            return (), tuple(sorted(normals))
    eqs = span_equations(gens, dim)
    if not gens:
        return eqs, ()
    out = set()
    for subset in combinations(gens, dim - len(eqs) - 1):
        m = minor_normal(subset + eqs, dim)
        if is_zero(m):
            continue
        pos = any(dot(m, g) > 0 for g in gens)
        neg = any(dot(m, g) < 0 for g in gens)
        if pos and neg:
            continue
        if neg:
            m = tuple(-x for x in m)
        out.add(primitive(m))
    return eqs, tuple(sorted(out))


def contains(gens: tuple[Vec, ...], dim: int, x) -> bool:
    eqs, ineqs = hrep(gens, dim)
    return all(dot(m, x) == 0 for m in eqs) and all(dot(m, x) >= 0 for m in ineqs)


def relint_contains(gens: tuple[Vec, ...], dim: int, x) -> bool:
    eqs, ineqs = hrep(gens, dim)
    return all(dot(m, x) == 0 for m in eqs) and all(dot(m, x) > 0 for m in ineqs)


def lineality_dimension(gens: tuple[Vec, ...], dim: int) -> int:
    eqs, ineqs = hrep(gens, dim)
    return dim - rank(eqs + ineqs) if (eqs or ineqs) else dim


def is_pointed(gens: tuple[Vec, ...], dim: int) -> bool:
    return lineality_dimension(gens, dim) == 0


def relint_point(gens: tuple[Vec, ...]) -> Vec:
    """A lattice point in the relative interior (the sum of the generators)."""
    if not gens:
        raise NotACone("the zero cone has no nonzero relative interior point")
    return tuple(sum(col) for col in zip(*gens))


def extreme_rays(gens: tuple[Vec, ...], dim: int) -> tuple[Vec, ...]:
    """Primitive extreme rays of a pointed cone, sorted; junk if non-pointed."""
    cand = sorted({primitive(g) for g in gens if not is_zero(g)})
    out = []
    for i, g in enumerate(cand):
        others = tuple(h for j, h in enumerate(cand) if j != i)
        if not others or not contains(others, dim, g):
            out.append(g)
    return tuple(out)


def cut(gens: tuple[Vec, ...], dim: int, m: Vec, sense: int) -> tuple[Vec, ...]:
    """Generators of cone(gens) ∩ {sense * <m, x> >= 0} (double description step)."""
    vals = [sense * dot(m, g) for g in gens]
    kept = [g for g, s in zip(gens, vals) if s >= 0]
    for (gp, sp), (gn, sn) in product(zip(gens, vals), repeat=2):
        if sp > 0 and sn < 0:
            w = tuple(sp * b - sn * a for a, b in zip(gp, gn))
            if not is_zero(w):
                kept.append(primitive(w))
    return tuple(sorted(set(kept)))


def intersect(gens: tuple[Vec, ...], dim: int, eqs, ineqs) -> tuple[Vec, ...]:
    """Generators of cone(gens) ∩ {E x = 0, F x >= 0}: one cut per side of
    each equation, then one per inequality, in row order."""
    for m in eqs:
        gens = cut(gens, dim, m, 1)
        gens = cut(gens, dim, m, -1)
    for m in ineqs:
        gens = cut(gens, dim, m, 1)
    return gens


def _canonical_sign(m: Vec) -> Vec:
    lead = next((x for x in m if x != 0), 0)
    return m if lead > 0 else tuple(-x for x in m)


def _irredundant(gens: tuple[Vec, ...], dim: int) -> tuple[Vec, ...]:
    """The generators left after dropping, in order, each one that lies in
    the cone of the others still kept; the cone is unchanged, lines
    included."""
    out = list(gens)
    for g in gens:
        others = tuple(h for h in out if h != g)
        if others and contains(others, dim, g):
            out.remove(g)
    return tuple(out)


def covered_by(target: tuple[Vec, ...], dim: int, cover) -> Vec | None:
    """None if cone(target) ⊆ ∪ cone(c) for c in cover, else an uncovered point.

    The target is split by every defining hyperplane of the covering cones;
    each resulting piece lies in a member of the cover iff its relative
    interior point does, so testing that point per piece is exact.  A piece
    made by a cut keeps only generators outside the cone of the others
    (``cut`` keeps every pairwise combination, and the next cut would
    square them).
    """
    normals = set()
    for c in cover:
        eqs, ineqs = hrep(tuple(c), dim)
        for m in eqs + ineqs:
            normals.add(_canonical_sign(m))
    pieces = [tuple(g for g in target if not is_zero(g))]
    for m in sorted(normals):
        nxt = []
        for piece in pieces:
            vals = [dot(m, g) for g in piece]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                nxt.append(piece)
            else:
                for sense in (1, -1):
                    half = cut(piece, dim, m, sense)
                    if half:
                        nxt.append(_irredundant(half, dim))
        pieces = nxt
    for piece in pieces:
        if not piece:
            continue
        p = relint_point(piece)
        if not any(contains(tuple(c), dim, p) for c in cover):
            return p
    return None


def triangulate(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples of simplicial subcones covering a pointed cone(gens).

    Placing triangulation pulling at the lexicographically smallest
    generator; only existing generators are used.  Independent generators
    span a simplicial cone, which is its own triangulation.
    """
    if rank(gens) == len(gens):
        return (tuple(range(len(gens))),)
    if not is_pointed(gens, dim):
        raise NotACone("cannot triangulate a cone containing a line")

    def go(idxs):
        sub = tuple(gens[i] for i in idxs)
        if len(idxs) == rank(sub):
            return [tuple(sorted(idxs))]
        apex = min(idxs, key=lambda i: gens[i])
        _, ineqs = hrep(sub, dim)
        out = []
        for m in ineqs:
            if dot(m, gens[apex]) > 0:
                face = tuple(i for i in idxs if dot(m, gens[i]) == 0)
                for s in go(face):
                    out.append(tuple(sorted(s + (apex,))))
        return out

    return tuple(sorted(set(go(tuple(range(len(gens)))))))


def barycentric(gens: tuple[Vec, ...], x):
    """Coefficients t with x = sum t_i gens_i, or None; gens must be independent."""
    if not gens:
        return () if all(c == 0 for c in x) else None
    sol = solve_exact(transpose(tuple(gens)), x)
    if sol is None:
        return None
    recon = tuple(sum(sol[i] * g[j] for i, g in enumerate(gens)) for j in range(len(x)))
    if any(recon[j] != x[j] for j in range(len(x))):
        return None
    return sol


@lru_cache(maxsize=4096)
def _box_lattice(gens: tuple[Vec, ...], dim: int) -> tuple[Mat, Mat, int, Mat]:
    """(basis, V, |det V|, s adj V) for independent gens: basis is a basis
    (rows) of the saturated lattice of their span, V's columns are the
    generators in it and s = sign det V.  det V and adj V come from one
    fraction-free elimination (``_det_adjugate``)."""
    full = len(gens) == dim  # then the basis is Z^dim's and det V decides independence
    if not full and rank(gens) != len(gens):
        raise NotACone("parallelepiped needs independent generators")
    basis = identity(dim) if full else span_lattice_basis(gens, dim)
    vmat = transpose(gens if full else tuple(span_coordinates(basis, g) for g in gens))
    dv, adj = _det_adjugate(vmat)
    if adj is None:
        raise NotACone("parallelepiped needs independent generators")
    sadj = adj if dv > 0 else tuple(tuple(-c for c in row) for row in adj)
    return basis, vmat, abs(dv), sadj


def box_size(gens: tuple[Vec, ...], dim: int) -> int:
    """The number of lattice points of the half-open parallelepiped spanned
    by independent gens (|det V|, 1 for no generators), zero included."""
    return _box_lattice(tuple(map(tuple, gens)), dim)[2] if gens else 1


@lru_cache(maxsize=4096)
def _residue_steps(vmat: Mat) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """N = D[-1] and, for each invariant factor D_i > 1, (D_i, the residue
    step of s_i in each column r): column i of W scaled by N / D_i, with
    U V W = D the Smith form."""
    dmat, _, w = smith_normal_form(vmat)
    diag = [dmat[i][i] for i in range(len(vmat))]
    n = diag[-1]
    return n, tuple(
        (di, tuple(row[i] * (n // di) for row in w)) for i, di in enumerate(diag) if di != 1
    )


def _box_residues(vmat: Mat):
    """Integer residues of the lattice points of {V t : t ∈ [0,1)^d}.

    V is nonsingular square (columns are the generators).  With U V W = D
    the Smith form and N = D[-1] the exponent of Z^d / V Z^d, the coset of
    U^{-1} s (0 <= s_i < D_i) meets the box at V t with t = k / N, where
    k = W (s_i N / D_i) mod N.  Returns N and one column per generator:
    column r lists k_r of every coset, in the order of itertools.product
    over s.  The columns grow one coordinate of s at a time: each entry a
    of column r becomes (a + j * step_r) % N for j < D_i.  The Smith form
    and the steps are cached per V (``_residue_steps``); the columns are
    built on every call.
    """
    n, steps = _residue_steps(vmat)
    columns = [[0] for _ in range(len(vmat))]
    for di, step in steps:
        for r, col in enumerate(columns):
            offsets = [j * step[r] for j in range(di)]
            columns[r] = [(a + o) % n for a in col for o in offsets]
    return n, columns


def _combination(coeffs, columns, size: int) -> list[int]:
    """Σ_r coeffs[r] * columns[r], entry by entry, for columns of length size."""
    acc = None
    for c, col in zip(coeffs, columns, strict=True):
        if c:
            term = map(mul, col, repeat(c))
            acc = term if acc is None else map(add, acc, term)
    return [0] * size if acc is None else list(acc)


def values_at(m, points) -> list[int]:
    """m·x for each x in points, summed over the coordinate columns."""
    if not points:
        return []
    return _combination(m, tuple(zip(*points)), len(points))


def box_points(gens: tuple[Vec, ...], dim: int) -> tuple[Vec, ...]:
    """Lattice points of the half-open parallelepiped {Σ t_i g_i : t ∈ [0,1)};
    gens must be linearly independent.

    Each point is Σ k_r g_r / N for the integer residues k of _box_residues,
    built one coordinate column at a time.  The self-checks run on whole
    columns and stay in integers: 0 <= k_r < N (each residue column's min
    and max), the division by N is exact (each coordinate column's
    remainders), and there are |det| pairwise distinct points, one per coset
    of the lattice modulo the generators.  The first point is 0 (k = 0), and
    as the points are distinct it is the only zero point.  The lattice data
    of the simplex (V, |det V|, the Smith form) is cached; the residues, the
    points and the checks are not.
    """
    if not gens:
        return ((0,) * dim,)
    _, vmat, index, _ = _box_lattice(tuple(map(tuple, gens)), dim)
    n, residues = _box_residues(vmat)
    if any(min(col) < 0 or max(col) >= n for col in residues):
        raise AssertionError("box point fell outside the half-open box")
    size = len(residues[0])
    coords = []
    for row in transpose(gens):
        nums = _combination(row, residues, size)
        if any(map(mod, nums, repeat(n))):
            raise AssertionError("box point is not a lattice point")
        coords.append(list(map(floordiv, nums, repeat(n))))
    points = tuple(zip(*coords))
    if len(set(points)) != index:
        raise AssertionError("parallelepiped enumeration lost coset representatives")
    return points


def _eliminate(rows, d: int):
    """Fourier–Motzkin elimination of the last d - 1 variables of rows
    (a, beta, gamma, mask), each a·v <= beta + gamma·cap.  Returns the rows
    left with a = 0, as (beta, gamma), and, per variable k, the rows
    bounding v_k once v_0..v_(k-1) are fixed, as (a_k, (a_0..a_(k-1)),
    beta, gamma).  A row combined from more than t + 1 original rows (mask)
    after t eliminations is implied by the others and dropped (Chernikov's
    rule); the rule holds for every cap, which stays a parameter."""
    levels = [()] * d
    for k in range(d - 1, 0, -1):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        levels[k] = tuple((a[k], a[:k], beta, gamma) for a, beta, gamma, _ in pos + neg)
        rows = {r for r in rows if r[0][k] == 0}
        limit = d - k + 1
        for ap, bp, gp, mp in pos:
            for an, bn, gn, mn in neg:
                mask = mp | mn
                if mask.bit_count() > limit:
                    continue
                sp, sn = -an[k], ap[k]
                a = tuple(sp * x + sn * y for x, y in zip(ap, an))
                beta, gamma = sp * bp + sn * bn, sp * gp + sn * gn
                g = math.gcd(*a, beta, gamma)
                if not g:  # 0 <= 0
                    continue
                rows.add((tuple(x // g for x in a), beta // g, gamma // g, mask))
    levels[0] = tuple((a[0], (), beta, gamma) for a, beta, gamma, _ in rows if a[0])
    return tuple((beta, gamma) for a, beta, gamma, _ in rows if not a[0]), levels


def _bounds(level, v, cap):
    """The interval of v_k allowed by one level's rows at this cap, with
    v_0..v_(k-1) fixed to v."""
    lo = hi = None
    for a, pre, beta, gamma in level:
        r = beta + gamma * cap - sum(map(mul, pre, v))
        if a > 0:
            t = r // a
            hi = t if hi is None or t < hi else hi
        else:
            t = -(r // -a)
            lo = t if lo is None or t > lo else lo
    if lo is None or hi is None:
        raise AssertionError("a level of the parallelepiped scan is unbounded")
    return lo, hi


def _line_point(x, step, t) -> Vec:
    return tuple(a + t * b for a, b in zip(x, step))


@lru_cache(maxsize=4096)
def _reduced_lattice(gens: tuple[Vec, ...], dim: int) -> tuple[int, Mat, Mat]:
    """(|det V|, points, z) for independent gens: the rows of H s adj V
    (``_box_lattice``'s), LLL-reduced (``lll_reduce``) and reversed so that
    the shortest comes last, define new coordinates of the span lattice.
    points[k] is the k-th basis vector in Z^dim, and z[i][k] its
    (s adj V y)_i, where y are the span coordinates and s = sign det V; the
    simplex's coefficients are t = z / |det V|."""
    basis, _, index, sadj = _box_lattice(gens, dim)
    order = lll_reduce(transpose(sadj))[::-1]
    points = tuple(tuple(sum(map(mul, u, col)) for col in zip(*basis)) for u in order)
    z = tuple(tuple(dot(srow, u) for u in order) for srow in sadj)
    return index, points, z


def _lattice_runs(points: Mat, vals, rows, cap: list, skip_zero: bool):
    """The integer v with Σ_k a_k v_k <= beta + gamma * cap[0] for each row
    (a, beta, gamma), as points x = Σ v_k points[k], one run at a time;
    the rows must bound v.

    The rows are eliminated once with the cap as a parameter
    (``_eliminate``), and the coordinates are lifted one at a time, the
    last one a run, between exact floor and ceiling bounds.  Each loop runs
    upward from the value nearest 0 and then downward, and takes its bounds
    again when the cap has dropped.  A run fixes every coordinate but the
    last and is yielded as (lo, hi, n0, step, point): the points point(k),
    lo <= k <= hi, with m·x = n0 + step*k, vals[k] = m·points[k].  With
    skip_zero the run through 0 is yielded as its two halves without it.
    """
    d, dim = len(points), len(points[0])
    rows = [(a, beta, gamma, 1 << j) for j, (a, beta, gamma) in enumerate(rows)]
    conds, levels = _eliminate(rows, d)
    if any(beta + gamma * cap[0] < 0 for beta, gamma in conds):
        return
    last = d - 1
    step, xlast = vals[last], points[last]

    def lift(k, v, x, n, zero):
        c = cap[0]
        lo, hi = _bounds(levels[k], v, c)
        if k == last:
            if zero and lo <= 0 <= hi:
                if lo < 0:
                    yield lo, -1, n, step, partial(_line_point, x, xlast)
                lo = 1
            if lo <= hi:
                yield lo, hi, n, step, partial(_line_point, x, xlast)
            return
        start = min(max(0, lo), hi)
        for inc in (1, -1):
            t = start if inc > 0 else start - 1
            while lo <= t <= hi:
                yield from lift(
                    k + 1, v + (t,), _line_point(x, points[k], t), n + t * vals[k], zero and t == 0
                )
                if cap[0] != c:
                    c = cap[0]
                    lo, hi = _bounds(levels[k], v, c)
                t += inc

    # lift refers to itself through its closure cell; dropping the name
    # when the scan ends or is abandoned breaks that reference cycle
    try:
        yield from lift(0, (), (0,) * dim, 0, skip_zero)
    finally:
        del lift


def box_runs(gens: tuple[Vec, ...], dim: int, m, cap: list):
    """The nonzero lattice points x of the half-open parallelepiped
    {Σ t_i g_i : t ∈ [0,1)} with m·x <= cap[0], one run at a time; gens
    must be nonempty and linearly independent, and the caller may lower
    cap[0] between runs.

    In span coordinates y the points are the integer y with
    0 <= (s adj V y)_i <= |det V| - 1 (s = sign det V) and w·y <= cap,
    w = m in span coordinates.  The lattice s adj V Z^d, in which the box
    is the cube [0, |det V| - 1]^d, is reduced (``_reduced_lattice``), so
    that its basis vectors are short against the cube and each lifting
    level spans few values, and the 2d + 1 rows are scanned by
    ``_lattice_runs``, which yields the run through 0 as its two halves
    without it.
    """
    index, points, z = _reduced_lattice(tuple(map(tuple, gens)), dim)
    if index == 1:
        return
    vals = [dot(m, x) for x in points]
    rows = [(tuple(vals), 0, 1)]
    for zi in z:
        rows.append((tuple(-c for c in zi), 0, 0))
        rows.append((zi, index - 1, 0))
    yield from _lattice_runs(points, vals, rows, cap, True)


def cone_runs(gens: tuple[Vec, ...], dim: int, m, cap: list, ineqs=()):
    """The lattice points x = Σ t_i g_i of the closed simplicial cone over
    gens with m·x <= cap[0], t_i < 2 for each g_i with m·g_i = 0 and
    F x >= 1 for each row F of ineqs, one run at a time, as ``box_runs``
    yields them; gens must be nonempty and linearly independent, and m
    nonnegative on each of them, so that the points are finitely many.  The
    caller may lower cap[0] between runs.

    The rows are those of ``box_runs`` without the upper box bounds,
    (s adj V y)_i >= 0, the upper bound (s adj V y)_i <= 2|det V| - 1 for
    each generator at level zero, and one row per F: with the inequalities
    of the H-representation of a cone tau whose span is that of gens, the
    points are those of relint(tau), since F x > 0 is F x >= 1 on lattice
    points.  The bound t_i < 2 keeps every value m takes there: if
    t_i >= 2 on a g_i with m·g_i = 0, x - g_i has t_i - 1 >= 1, the same
    value, and F(x - g_i) >= F g_i >= 1 wherever F g_i > 0 (F x >= t_i F g_i,
    as F >= 0 on the generators), F x unchanged elsewhere.
    """
    index, points, z = _reduced_lattice(tuple(map(tuple, gens)), dim)
    vals = [dot(m, x) for x in points]
    rows = [(tuple(vals), 0, 1)]
    rows.extend((tuple(-c for c in zi), 0, 0) for zi in z)
    rows.extend((zi, 2 * index - 1, 0) for zi, g in zip(z, gens) if not dot(m, g))
    rows.extend((tuple(-dot(row, x) for x in points), -1, 0) for row in ineqs)
    yield from _lattice_runs(points, vals, rows, cap, False)


def point_key(n: int, x: Vec) -> tuple:
    """(n, sup-norm of x, x): the key that the order-free scans minimize."""
    return n, max(map(abs, x)), x


def least_key(best: tuple, runs, cap: list) -> tuple:
    """The least ``point_key`` among best and the points of runs
    (lo, hi, n0, step, point), valued n0 + step*k at point(k), lo <= k <= hi.
    Only a run's least end can win, and only at a value <= best's (a run of
    step 0 is then scanned whole); cap[0] drops to each better value."""
    for lo, hi, n0, step, point in runs:
        k = lo if step >= 0 else hi
        n = n0 + step * k
        if n > best[0]:
            continue
        for k in range(lo, hi + 1) if step == 0 else (k,):
            key = point_key(n, point(k))
            if key < best:
                best, cap[0] = key, n
    return best


def box_minimum(gens: tuple[Vec, ...], dim: int, m, best: tuple) -> tuple:
    """The least key among best and the nonzero lattice points x of the
    half-open parallelepiped of independent gens with m·x <= best[0]
    (``least_key`` over ``box_runs``)."""
    if not gens:
        return best
    cap = [best[0]]
    return least_key(best, box_runs(gens, dim, m, cap), cap)


def progression_interval(lo: int, hi: int, a: int, step: int, sense: int) -> tuple[int, int]:
    """The k in [lo, hi] with a + step*k <= 0 (sense < 0), == 0 (sense == 0)
    or > 0 (sense > 0), an interval in integers; empty when lo > hi."""
    if sense > 0:  # a + step*k > 0  iff  (1 - a) - step*k <= 0
        a, step, sense = 1 - a, -step, -1
    if step == 0:
        holds = a <= 0 if sense < 0 else a == 0
        return (lo, hi) if holds else (lo, lo - 1)
    if sense == 0:
        if a % step:
            return lo, lo - 1
        k = -a // step
        return max(lo, k), min(hi, k)
    if step > 0:
        return lo, min(hi, -a // step)
    return max(lo, -(-a // -step)), hi


def _run_point(b, ks, cols, last, k) -> Vec:
    return tuple(c + sum(map(mul, ks, col)) + k * g for c, col, g in zip(b, cols, last))


def capped_runs(gens: tuple[Vec, ...], dim: int, m, capn: int, rows, radius: int):
    """The lattice points x = b + Σ k_i g_i of the simplicial cone over gens,
    b a box point, one run at a time; gens must be nonempty and linearly
    independent.

    k_i runs up to min((capn - m·b) // m·g_i, radius) where m·g_i > 0, and
    up to radius where m·g_i <= 0.  The k are walked in itertools.product
    order, and a run is every k sharing all coordinates but the last.
    Along a run m·x and each row's value are arithmetic progressions in the
    last coefficient k, so with rows = (E, F) each run is yielded as
    (size, lo, hi, n0, step, point): size elements, of which those with
    lo <= k <= hi satisfy m·x <= capn, E x = 0 and F x > 0;
    m·x = n0 + step*k; point(k) builds x.  Each row's values on the
    generators and on the box points are taken once.
    """
    eqs, ineqs = rows
    *pre, last = gens
    boxes = box_points(gens, dim)
    table = [
        (sense, [dot(r, g) for g in pre], dot(r, last), values_at(r, boxes))
        for r, sense in [(m, -1), *((e, 0) for e in eqs), *((f, 1) for f in ineqs)]
    ]
    vals = [dot(m, g) for g in gens]
    step = vals[-1]
    cols = [tuple(g[j] for g in pre) for j in range(dim)]
    for j, b in enumerate(boxes):
        base = table[0][3][j]
        ranges = [range(min((capn - base) // v, radius) + 1 if v > 0 else radius + 1) for v in vals]
        size = len(ranges.pop())
        if not size:
            continue
        for ks in product(*ranges):
            lo, hi = 0, size - 1
            for sense, pre_vals, row_step, at_box in table:
                a = at_box[j] + sum(map(mul, ks, pre_vals))
                if sense < 0:
                    n0, a = a, a - capn
                lo, hi = progression_interval(lo, hi, a, row_step, sense)
                if lo > hi:
                    break
            yield size, lo, hi, n0, step, partial(_run_point, b, ks, cols, last)
