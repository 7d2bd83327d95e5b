"""Exact integer and rational linear algebra over lattices.

All vectors are tuples of ints (or Fractions for rational data) and all
matrices are tuples of row tuples acting on column vectors:
``mat_vec(M, v)[i] == sum_j M[i][j] * v[j]``.  Nothing here ever touches
floating point.

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

from .errors import NotPrimitive, ZeroVector

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]
QVec = tuple[Fraction, ...]
QMat = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple(dot(v, col) for col in transpose(m))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def content(v: Vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return math.gcd(*(abs(int(x)) for x in v)) if v else 0


def primitive(v: Vec) -> Vec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = content(v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive multiple")
    return tuple(int(x) // g for x in v)


def is_primitive(v: Vec) -> bool:
    return content(v) == 1


def scale_to_integer(v) -> Vec:
    """Clear denominators of a rational vector (content not reduced)."""
    fracs = [Fraction(x) for x in v]
    lcm = 1
    for x in fracs:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    return tuple(int(x * lcm) for x in fracs)


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
    if not m:
        return 0
    h, _ = hermite_normal_form(m)
    return sum(1 for row in h if any(x != 0 for x in row))


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
    """One exact solution of a @ x = b (free variables set to 0), or None."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    if any(aug[i][ncols] != 0 for i in range(r, nrows)):
        return None
    x = [Fraction(0)] * ncols
    for ri, ci in pivots:
        x[ci] = aug[ri][ncols]
    return tuple(x)


def invert_rational(m) -> QMat:
    """Inverse of a square matrix over the rationals."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pr is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def unimodular_inverse(m: Mat) -> Mat:
    """Integer inverse of a unimodular integer matrix."""
    inv = invert_rational(m)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def complete_to_basis(v: Vec) -> Mat:
    """A unimodular matrix whose first row is the primitive vector v.

    The rows form a lattice basis extending v; raises NotPrimitive/ZeroVector
    on bad input.
    """
    if is_zero(v):
        raise ZeroVector("cannot extend the zero vector to a basis")
    if content(v) != 1:
        raise NotPrimitive(f"{v} has content {content(v)}")
    n = len(v)
    column = tuple((int(x),) for x in v)
    h, u = hermite_normal_form(column)
    if h[0][0] != 1:
        raise NotPrimitive(f"{v} has content {h[0][0]}")
    b = transpose(unimodular_inverse(u))
    if b[0] != tuple(v):
        raise AssertionError("basis completion lost the input vector")
    return b


def quotient_projection(v: Vec) -> Mat:
    """Coordinates on the quotient lattice Z^n / Z*v, as an (n-1) x n matrix.

    The matrix is surjective onto Z^(n-1) and its rational kernel is spanned
    by v.
    """
    b = complete_to_basis(v)
    binv = unimodular_inverse(b)
    proj = transpose(binv)[1:]
    if any(x != 0 for x in mat_vec(proj, v)):
        raise AssertionError("quotient projection does not kill v")
    return proj
