"""Polyhedral cone primitives shared by the fan and singularity modules.

A cone is passed around as a tuple of integer generator vectors together
with the ambient dimension (generators alone cannot tell the dimension when
the tuple is empty).  H-representations are {x : E x = 0, F x >= 0} with
integer primitive rows, computed by facet enumeration inside the span, and
cached on the (gens, dim) key.

Box points (the lattice points of a half-open parallelepiped spanned by
independent generators) are enumerated with integer residues over the Smith
form of the generator matrix, as Normaliz does: with U V W = D and N the
largest invariant factor, each coset of the lattice modulo the generators
gives one residue vector k = W (s_i N / D_i) mod N, and the point is
Σ k_i g_i / N.  No rational solve is done per point; every point is still
checked in integers (exact division by N, 0 <= k_i < N, one distinct point
per coset).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .errors import NotACone
from .intlinalg import (
    Mat,
    Vec,
    det,
    dot,
    identity,
    invert_rational,
    is_zero,
    kernel_basis,
    mat_vec,
    primitive,
    rank,
    scale_to_integer,
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


def _full_dim_facets(gens_d, d: int) -> tuple[Vec, ...]:
    """Facet normals of a cone spanning all of R^d, inward, primitive."""
    out = set()
    for subset in combinations(gens_d, d - 1):
        ker = _kernel(subset, d)
        if len(ker) != 1:
            continue
        m = ker[0]
        pos = any(dot(m, g) > 0 for g in gens_d)
        neg = any(dot(m, g) < 0 for g in gens_d)
        if pos and neg:
            continue
        if neg:
            m = tuple(-x for x in m)
        out.add(primitive(m))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def hrep(gens: tuple[Vec, ...], dim: int) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """(equations, inequalities) with cone(gens) = {E x = 0, F x >= 0}."""
    gens = tuple(g for g in gens if not is_zero(g))
    eqs = span_equations(gens, dim)
    if not gens:
        return eqs, ()
    basis = span_lattice_basis(gens, dim)
    d = len(basis)
    gens_d = tuple(span_coordinates(basis, g) for g in gens)
    facets_d = _full_dim_facets(gens_d, d)
    # lift a span functional m_d back to Z^dim: m(x) = m_d(coords(x)), and
    # coords(x) = (B B^T)^{-1} B x on the span
    bbt_inv = invert_rational(tuple(tuple(dot(r1, r2) for r2 in basis) for r1 in basis))
    lifted = []
    for m_d in facets_d:
        w = mat_vec(transpose(bbt_inv), m_d)
        row = tuple(sum(w[i] * basis[i][j] for i in range(d)) for j in range(dim))
        lifted.append(primitive(scale_to_integer(row)))
    return eqs, tuple(sorted(lifted))


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


def _canonical_sign(m: Vec) -> Vec:
    lead = next((x for x in m if x != 0), 0)
    return m if lead > 0 else tuple(-x for x in m)


def covered_by(target: tuple[Vec, ...], dim: int, cover) -> Vec | None:
    """None if cone(target) ⊆ ∪ cone(c) for c in cover, else an uncovered point.

    The target is split by every defining hyperplane of the covering cones;
    each resulting piece lies in a member of the cover iff its relative
    interior point does, so testing that point per piece is exact.
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
                        nxt.append(half)
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
    generator; only existing generators are used.
    """
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

    if not gens:
        return ((),)
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


def _box_residues(vmat: Mat):
    """Integer residues of the lattice points of {V t : t ∈ [0,1)^d}.

    V is nonsingular square (columns are the generators).  With U V W = D
    the Smith form and N = D[-1] the exponent of Z^d / V Z^d, the coset of
    U^{-1} s (0 <= s_i < D_i) meets the box at V t with t = k / N, where
    k = W (s_i N / D_i) mod N.  Returns N and the residue vectors k in the
    order of itertools.product over s, built one coordinate of s at a time.
    """
    d = len(vmat)
    dmat, _, w = smith_normal_form(vmat)
    diag = [dmat[i][i] for i in range(d)]
    n = diag[-1]
    residues = [(0,) * d]
    for i, di in enumerate(diag):
        if di == 1:
            continue
        # column i of W, scaled by N / D_i, is the residue step of s_i
        step = tuple(w[r][i] * (n // di) for r in range(d))
        residues = [
            tuple((a + j * b) % n for a, b in zip(k, step))
            for k in residues
            for j in range(di)
        ]
    return n, residues


def box_points(gens: tuple[Vec, ...], dim: int):
    """Lattice points of the half-open parallelepiped {Σ t_i g_i : t ∈ [0,1)},
    as (point, coefficients) pairs; gens must be linearly independent.

    Each point is Σ k_i g_i / N for the integer residues k of _box_residues,
    so its coefficients are k_i / N.  The self-checks stay in integers: the
    division by N is exact, 0 <= k_i < N, and there are |det| pairwise
    distinct points, one per coset of the lattice modulo the generators.
    """
    d = len(gens)
    if d == 0:
        return (((0,) * dim, ()),)
    if rank(tuple(gens)) != d:
        raise NotACone("parallelepiped needs independent generators")
    basis = span_lattice_basis(gens, dim)
    vmat = transpose(tuple(span_coordinates(basis, g) for g in gens))
    n, residues = _box_residues(vmat)
    cols = transpose(gens)
    fracs = [Fraction(i, n) for i in range(n)]
    out = []
    for k in residues:
        if not all(0 <= ki < n for ki in k):
            raise AssertionError("box point fell outside the half-open box")
        nums = [sum(map(mul, col, k)) for col in cols]
        if any(v % n for v in nums):
            raise AssertionError("box point is not a lattice point")
        out.append((tuple(v // n for v in nums), tuple(fracs[ki] for ki in k)))
    if len({x for x, _ in out}) != abs(det(vmat)):
        raise AssertionError("parallelepiped enumeration lost coset representatives")
    return tuple(out)
