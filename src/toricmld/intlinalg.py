"""Exact integer and rational linear algebra over lattices.

All vectors are tuples of ints (or Fractions for rational data) and all
matrices are tuples of row tuples acting on column vectors:
``mat_vec(M, v)[i] == sum_j M[i][j] * v[j]``.  Nothing here ever touches
floating point.

Rational elimination is fraction-free: ``gauss_jordan`` (behind
``solve_exact``) and the simplex in ``ratlp``, through
``unit_pivot`` and ``eliminate``, keep each row as integer numerators over
one positive row denominator (``clear_denominators``) and reduce a row by
its gcd after each row operation; only the values returned are Fractions.
``solve_exact`` is a cached factorization plus an integer apply: the
elimination of [a | I] is kept per matrix a (``_factor``, a bounded
cache), and each right-hand side b costs integer dot products of the
transform rows with the cleared numerators of b.

``rank``, ``det`` and ``adjugate`` are integer Bareiss eliminations (each
division by the previous pivot is exact) and build no normal form; one
Gauss–Jordan pass (``_det_adjugate``) gives the determinant and the
adjugate together.

Normal form conventions (fixed so serialized output is deterministic):

* ``hermite_normal_form`` is row-style, ``U @ M = H`` with ``|det U| = 1``,
  pivots positive, entries above each pivot reduced into ``[0, pivot)``,
  zero rows at the bottom.
* ``smith_normal_form`` returns ``(D, U, V)`` with ``U @ M @ V = D``,
  nonnegative diagonal and each invariant factor dividing the next.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .errors import DomainError, NotPrimitive, ZeroVector

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]
QVec = tuple[Fraction, ...]


def mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple(dot(v, col) for col in transpose(m))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def vec_add(u, v):
    if len(u) != len(v):
        raise ValueError(f"sum of vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(add, u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def is_zero(v) -> bool:
    return not any(v)


def content(v: Vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return math.gcd(*map(int, v))


def primitive(v: Vec) -> Vec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = content(v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive multiple")
    return tuple(int(x) // g for x in v)


def is_primitive(v: Vec) -> bool:
    return content(v) == 1


def clear_denominators(v) -> tuple[list[int], int]:
    """(nums, den) with v[i] == nums[i] / den and den > 0 the lcm of the
    denominators, so gcd(den, *nums) == 1."""
    qs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in v]
    dens = [q.denominator for q in qs]
    den = math.lcm(*dens)
    if den == 1:
        return [q.numerator for q in qs], 1
    return [q.numerator * (den // d) for q, d in zip(qs, dens)], den


def scale_to_integer(v) -> Vec:
    """Clear denominators of a rational vector (content not reduced)."""
    return tuple(clear_denominators(v)[0])


def hermite_normal_form(m: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form.  Returns (H, U) with U @ m = H, |det U| = 1."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    h = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]

    def sub(i, j, q):
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    p = 0
    for col in range(cols):
        if p == rows:
            break
        while True:
            nz = [i for i in range(p, rows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != p:
                h[p], h[i0] = h[i0], h[p]
                u[p], u[i0] = u[i0], u[p]
            for i in range(p + 1, rows):
                if h[i][col]:
                    sub(i, p, h[i][col] // h[p][col])
            if all(h[i][col] == 0 for i in range(p + 1, rows)):
                break
        if p < rows and h[p][col] != 0:
            if h[p][col] < 0:
                h[p] = [-a for a in h[p]]
                u[p] = [-a for a in u[p]]
            a = h[p][col]
            for i in range(p):
                sub(i, p, h[i][col] // a)
            p += 1
    return mat(h), mat(u)


def rank(m: Mat) -> int:
    """Rank of an integer matrix by fraction-free row elimination (Bareiss)
    with column skipping.  Each step keeps, of the rows not yet pivots, only
    the nonzero ones and only their columns past the pivot column: after k
    pivots, entry j of a row is the (k+1)-minor of m on the pivot rows with
    that row and the pivot columns with column j, so each division by the
    previous pivot is exact."""
    rows = [row for row in m if any(row)]
    r, prev = 0, 1
    while rows:
        c = min(next(j for j, x in enumerate(row) if x) for row in rows)
        i = next(i for i, row in enumerate(rows) if row[c])
        piv = rows.pop(i)
        p, tail = piv[c], piv[c + 1 :]
        rest = []
        for row in rows:
            f = row[c]
            new = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], tail)]
            if any(new):
                rest.append(new)
        rows, r, prev = rest, r + 1, p
    return r


def det(m: Mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_adjugate(m: Mat) -> tuple[int, Mat | None]:
    """(det(m), adj(m)) of a square integer matrix by one fraction-free
    Gauss–Jordan pass over [m | I] (Bareiss): every row is cleared at each
    pivot, so with P the row swaps the left block ends as det(P m) I, the
    last pivot, and the right block as det(P m) m^-1, which is adj(m) up to
    the sign of P.  A 2 x 2 matrix takes the closed form.  adj is None, and
    det 0, when the pass finds no pivot: m is singular."""
    n = len(m)
    if n == 2:
        d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return d, ((m[1][1], -m[0][1]), (-m[1][0], m[0][0])) if d else None
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k:]
        pk = piv[0]
        for i, row in enumerate(a):
            if i != k:
                f = row[k]
                row[k:] = [(pk * x - f * y) // prev for x, y in zip(row[k:], piv)]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def adjugate(m: Mat) -> Mat:
    """adj(m) of a nonsingular integer matrix, with m @ adj(m) = det(m) I,
    from ``_det_adjugate``'s one elimination.  Raises DomainError when m is
    singular."""
    adj = _det_adjugate(m)[1]
    if adj is None:
        raise DomainError("adjugate of a singular matrix")
    return adj


def _nearest(a: int, b: int) -> int:
    """The integer nearest a / b for b > 0, halves rounded up."""
    return (2 * a + b) // (2 * b)


def lll_reduce(basis) -> Mat:
    """Integral LLL reduction (delta = 3/4) of independent integer vectors
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7):
    the unimodular transform H, as rows, with H @ basis reduced.  Only
    integers are used: d_k is the Gram determinant of the first k vectors
    and lam[k][j] = d_(j+1) mu_kj."""
    n = len(basis)
    b = [list(v) for v in basis]
    h = [list(row) for row in identity(n)]
    d = [1] * (n + 1)  # d[k + 1] = Gram determinant of b[0..k]
    lam = [[0] * n for _ in range(n)]

    def red(k, j):
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = _nearest(lam[k][j], d[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            h[k] = [x - q * y for x, y in zip(h[k], h[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        bk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (bk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = bk

    if n:
        d[1] = dot(b[0], b[0])
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise DomainError("LLL needs independent vectors")
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                red(k, j)
            k += 1
    return tuple(map(tuple, h))


def minor_normal(rows, n: int) -> Vec:
    """Signed maximal minors of an (n-1) x n integer matrix: entry j is
    (-1)^j times the determinant with column j deleted.  The vector is
    orthogonal to every row, and it is zero exactly when the rows have rank
    below n - 1; otherwise it spans their kernel line."""
    return tuple(
        (-1) ** j * det(tuple(row[:j] + row[j + 1 :] for row in rows)) for j in range(n)
    )


def kernel_basis(m: Mat) -> tuple[Vec, ...]:
    """Basis of the saturated lattice {v : m @ v = 0}.

    Rows of the transform U of the HNF of m^T that hit zero rows of H form a
    basis; U being unimodular makes the basis saturated (every integer kernel
    vector is an integer combination).
    """
    if not m or not m[0]:
        n = len(m[0]) if m else 0
        return tuple(identity(n)) if n else ()
    at = transpose(m)
    h, u = hermite_normal_form(at)
    out = [u[i] for i in range(len(at)) if all(x == 0 for x in h[i])]
    return tuple(out)


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form.  Returns (D, U, V) with U @ m @ V = D."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    d = [list(r) for r in m]
    u = [list(r) for r in identity(nrows)]
    v = [list(r) for r in identity(ncols)]

    def add_row(i, j, c):
        d[i] = [a + c * b for a, b in zip(d[i], d[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, c):
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        entries = [(abs(d[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if d[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            bad = next(
                ((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols) if d[i][j] % d[t][t]),
                None,
            )
            if bad is None:
                break
            add_row(t, bad[0], 1)
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
        t += 1
    return mat(d), mat(u), mat(v)


def solve_exact(a, b) -> QVec | None:
    """One exact solution of a @ x = b (free variables set to 0), or None.

    The elimination depends on a alone, so it is done once per matrix
    (``_factor``, cached) and each right-hand side costs integer dot
    products: with T the row transform, x at a pivot column is the pivot
    row of T times b, and the system is consistent iff the rows of T past
    the pivots vanish on b.
    """
    ncols, pivots, vanish = _factor(tuple(map(tuple, a)))
    nums, den = clear_denominators(b)
    if any(sum(map(mul, t, nums)) for t in vanish):
        return None
    x = [Fraction(0)] * ncols
    for ci, t, tden in pivots:
        x[ci] = Fraction(sum(map(mul, t, nums)), tden * den)
    return tuple(x)


@lru_cache(maxsize=4096)
def _factor(a) -> tuple[int, tuple[tuple[int, Vec, int], ...], tuple[Vec, ...]]:
    """gauss_jordan on [a | I]: (ncols, one (column, T row numerators, row
    denominator) per pivot, the T rows below the pivots).  Pivots are chosen
    in a's columns only, so they are those of the elimination of [a | b]."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rows, dens = _rows([(*row, *(int(i == j) for j in range(nrows))) for i, row in enumerate(a)])
    pivots = gauss_jordan(rows, dens, ncols)
    return (
        ncols,
        tuple((ci, tuple(rows[ri][ncols:]), dens[ri]) for ri, ci in pivots),
        tuple(tuple(rows[i][ncols:]) for i in range(len(pivots), nrows)),
    )


def _rows(rows) -> tuple[list[list[int]], list[int]]:
    """Rational rows as (numerator rows, row denominators)."""
    pairs = [clear_denominators(row) for row in rows]
    return [nums for nums, _ in pairs], [den for _, den in pairs]


def gauss_jordan(rows: list[list[int]], dens: list[int], ncols: int) -> list[tuple[int, int]]:
    """Reduce rows[i] / dens[i] in place to reduced row echelon form in the
    first ncols columns, pivoting on the first nonzero row of each column.
    Returns the (row, column) pivots; the rows below them are zero there.

    Fraction-free: each row stays integer numerators over one positive row
    denominator, reduced by their gcd after every row operation.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        dens[r], dens[pr] = dens[pr], dens[r]
        dens[r], rows[r] = unit_pivot(rows[r], c)
        eliminate(rows, dens, r, c)
        pivots.append((r, c))
    return pivots


def unit_pivot(row: list[int], c: int) -> tuple[int, list[int]]:
    """(den, nums) of the row divided by its own entry in column c: the
    numerators over the entry, sign-fixed so den > 0, gcd-reduced."""
    p = row[c]
    if p < 0:
        row = [-x for x in row]
        p = -p
    g = math.gcd(*row)
    if g > 1:
        row = [x // g for x in row]
        p //= g
    return p, row


def eliminate(rows: list[list[int]], dens: list[int], r: int, c: int) -> None:
    """Clear column c from every row but r, whose entry there is 1:
    row_i - f * row_r is (x * p - f * y) / (den_i * p) with f the numerator
    of row_i in column c and p the denominator of row r."""
    piv, p = rows[r], dens[r]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            d = dens[i] * p
            new = [x * p - f * y for x, y in zip(row, piv)]
            g = math.gcd(d, *new)
            if g > 1:
                new = [x // g for x in new]
                d //= g
            rows[i], dens[i] = new, d


def quotient_projection(v: Vec) -> Mat:
    """Coordinates on the quotient lattice Z^n / Z*v, as an (n-1) x n matrix.

    The matrix is surjective onto Z^(n-1) and its rational kernel is spanned
    by v: it is rows 1.. of U from the HNF U v = (c, 0, ..., 0), where c is
    the content of v.  Raises NotPrimitive/ZeroVector on bad input.
    """
    if is_zero(v):
        raise ZeroVector("the zero vector has no quotient lattice")
    h, u = hermite_normal_form(tuple((int(x),) for x in v))
    if h[0][0] != 1:
        raise NotPrimitive(f"{v} has content {h[0][0]}")
    proj = u[1:]
    if any(x != 0 for x in mat_vec(proj, v)):
        raise AssertionError("quotient projection does not kill v")
    return proj
