"""Toric contractions: fibers, pullbacks, thresholds, discriminants.

A lattice map compatible with two fans induces a toric morphism.  The
relative singularity invariants all reduce to exact linear programs and
lattice-point enumeration over the source fan, with the base divisor
geometry read off through the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import cones
from .divisors import ToricDivisor, divisor, log_discrepancy_function, rel_trivial_witness
from .errors import (
    DomainError,
    NoCone,
    NotACone,
    NotLogCanonicalOverBase,
    NotRelTrivial,
    ValidationError,
)
from .fans import Fan, fan, is_cone_of, point_fan
from .intlinalg import (
    Mat,
    Vec,
    dot,
    is_primitive,
    is_zero,
    kernel_basis,
    mat_vec,
    primitive,
    scale_to_integer,
    smith_normal_form,
    vec_add,
    vec_mat,
    vec_scale,
)
from .ratlp import Infeasible, Optimal, Unbounded, cone_lp, solve_min
from .singularities import MINUS_INFINITY, sublevel_points


@dataclass(frozen=True)
class ToricMorphism:
    matrix: Mat  # rows: target rank, cols: source rank
    source: Fan
    target: Fan

    def apply(self, v) -> Vec:
        return mat_vec(self.matrix, v)


@dataclass(frozen=True)
class MorphismDiagnostics:
    compatible: bool
    is_contraction: bool
    is_proper: bool
    relative_dimension: int


def morphism(matrix, source: Fan, target: Fan, check: bool = True) -> ToricMorphism:
    m = tuple(tuple(int(x) for x in row) for row in matrix)
    bad = []
    if len(m) != target.rank or any(len(row) != source.rank for row in m):
        bad.append(("BadShape", f"matrix must be {target.rank}x{source.rank}"))
    f = ToricMorphism(m, source, target)
    if not bad and check and not _compatible(f):
        bad.append(("IncompatibleCone", "some source cone maps into no target cone"))
    if bad:
        raise ValidationError(bad)
    return f


def _image_in_cone(f: ToricMorphism, c: tuple[int, ...], tgens) -> bool:
    return all(
        cones.contains(tgens, f.target.rank, f.apply(g)) for g in f.source.cone_gens(c)
    )


def _compatible(f: ToricMorphism) -> bool:
    if f.target.rank == 0:
        return True
    for c in f.source.max_cones:
        if not any(
            _image_in_cone(f, c, f.target.cone_gens(t)) for t in f.target.max_cones
        ):
            return False
    return True


def _preimage_gens(f: ToricMorphism, tgens) -> tuple[Vec, ...]:
    """V-representation of the full preimage of cone(tgens)."""
    nx = f.source.rank
    gens: tuple = tuple(
        tuple(s if i == j else 0 for j in range(nx)) for i in range(nx) for s in (1, -1)
    )
    if f.target.rank == 0:
        return gens
    eqs, ineqs = cones.hrep(tuple(tgens), f.target.rank)
    for m in eqs:
        row = vec_mat(m, f.matrix)
        gens = cones.cut(gens, nx, row, 1)
        gens = cones.cut(gens, nx, row, -1)
    for m in ineqs:
        gens = cones.cut(gens, nx, vec_mat(m, f.matrix), 1)
    return gens


def _is_proper(f: ToricMorphism) -> bool:
    src = f.source
    for t in f.target.max_cones:
        tgens = f.target.cone_gens(t)
        pre = _preimage_gens(f, tgens)
        cover = [
            src.cone_gens(c) for c in src.max_cones if _image_in_cone(f, c, tgens)
        ]
        if pre and cones.covered_by(pre, src.rank, cover) is not None:
            return False
    return True


def validate_morphism(f: ToricMorphism) -> MorphismDiagnostics:
    nz = f.target.rank
    d, *_ = (smith_normal_form(f.matrix) if f.matrix else ((), (), ()))
    factors = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    factors = [x for x in factors if x != 0]
    surjective = nz == 0 or (len(factors) == nz and all(x == 1 for x in factors))
    return MorphismDiagnostics(
        compatible=_compatible(f),
        is_contraction=surjective,
        is_proper=_is_proper(f),
        relative_dimension=f.source.rank - nz,
    )


def _faces_of(gens, dim: int) -> set[tuple[int, ...]]:
    """Faces of cone(gens) as index subsets (every face is the set of
    generators tight on a subset of the facet normals)."""
    _, ineqs = cones.hrep(tuple(gens), dim)
    out = set()
    for k in range(len(ineqs) + 1):
        for sub in combinations(ineqs, k):
            out.add(
                tuple(
                    i for i, g in enumerate(gens) if all(dot(m, g) == 0 for m in sub)
                )
            )
    return out


def generic_fiber_fan(f: ToricMorphism) -> tuple[Mat, Fan]:
    """Fiber lattice basis (rows) and the fan of the generic fiber, written
    in those coordinates."""
    kb = kernel_basis(f.matrix)
    r = len(kb)
    if r == 0:
        return (), point_fan()
    src = f.source
    in_kernel = [is_zero(f.apply(v)) for v in src.rays]
    kernel_faces: set[tuple[int, ...]] = set()
    for c in src.max_cones:
        gens = src.cone_gens(c)
        for face in _faces_of(gens, src.rank):
            glob = tuple(c[i] for i in face)
            if glob and all(in_kernel[i] for i in glob):
                kernel_faces.add(glob)
    maximal = [
        fc
        for fc in kernel_faces
        if not any(fc != other and set(fc) <= set(other) for other in kernel_faces)
    ]
    used = sorted({i for fc in maximal for i in fc})
    coords = {i: cones.span_coordinates(kb, src.rays[i]) for i in used}
    index = {i: k for k, i in enumerate(used)}
    fiber = fan(
        r,
        [coords[i] for i in used],
        [tuple(index[i] for i in fc) for fc in maximal],
    )
    return kb, fiber


def pullback_multiplicities(f: ToricMorphism, w: int) -> tuple[tuple[Vec, int], ...]:
    """Source rays lying over the target ray w with their multiplicities:
    pairs (v, c) with phi(v) = c*w, c a positive integer."""
    wv = f.target.rays[w]
    j = next(i for i, x in enumerate(wv) if x != 0)
    out = []
    for v in f.source.rays:
        u = f.apply(v)
        if is_zero(u):
            continue
        c = Fraction(u[j], wv[j])
        if c > 0 and c.denominator == 1 and u == tuple(c * x for x in wv):
            out.append((v, int(c)))
    return tuple(out)


def lc_threshold_over(f: ToricMorphism, b: ToricDivisor, w: int) -> Fraction:
    """Largest t with (X, B + t f*D_w) log canonical over the generic point
    of D_w: the minimum of A over the fiber polytope {x in |fan|, phi(x) = w}."""
    a = log_discrepancy_function(f.source, b)
    wv = f.target.rays[w]
    vals = []
    for c, fn in zip(f.source.max_cones, a.functionals):
        gens = f.source.cone_gens(c)
        img = tuple(u for u in (f.apply(g) for g in gens) if not is_zero(u))
        if not cones.contains(img, f.target.rank, wv):
            continue
        res = solve_min(cone_lp(gens, f.matrix, wv, fn))
        if isinstance(res, Unbounded):
            raise NotLogCanonicalOverBase(
                f"A is unbounded below on the fiber over ray {w}"
            )
        assert isinstance(res, Optimal), "cone image contains w, so the LP is feasible"
        vals.append(res.value)
    if not vals:
        raise NoCone(f"no maximal cone maps onto the ray {w}")
    return min(vals)


@dataclass(frozen=True)
class DiscriminantResult:
    divisor: ToricDivisor
    thresholds: tuple[Fraction, ...]
    moduli_is_zero: bool


def discriminant_divisor(f: ToricMorphism, b: ToricDivisor) -> DiscriminantResult:
    """Divisorial part of adjunction on the base: coefficient 1 - t_w at
    each target ray; the moduli part is zero for equivariant data."""
    if rel_trivial_witness(f, b) is None:
        raise NotRelTrivial("K+B is not trivial over the base")
    ts = tuple(lc_threshold_over(f, b, w) for w in range(len(f.target.rays)))
    return DiscriminantResult(
        divisor=divisor(f.target, [1 - t for t in ts]),
        thresholds=ts,
        moduli_is_zero=True,
    )


def average_boundary(b: ToricDivisor, f: Fan, alpha) -> ToricDivisor:
    """alpha*B + (1-alpha)*Delta, coefficient-wise."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise DomainError("the averaging weight must lie in [0, 1]")
    return divisor(f, [alpha * c + (1 - alpha) for c in b.coeffs])


@dataclass(frozen=True)
class Exact:
    value: object  # Fraction, or MINUS_INFINITY
    witness: Vec | None


@dataclass(frozen=True)
class CertifiedAtLeast:
    bound: Fraction


@dataclass(frozen=True)
class Witness:
    v: Vec
    value: Fraction


@dataclass(frozen=True)
class Indeterminate:
    radius: int


RelMldResult = Exact | CertifiedAtLeast | Witness | Indeterminate


def _relint_test(f: ToricMorphism, teq, tineq):
    """Predicate x -> phi(x) in relint(tau), for tau = {E y = 0, F y >= 0}.

    The rows are pulled back once to E M and F M.  Relative interiors of the
    cones of a fan partition its support, so this is the same test as
    ``locate(f.target, f.apply(x)).cone == tau``.
    """
    eq_src = [vec_mat(m, f.matrix) for m in teq]
    ineq_src = [vec_mat(m, f.matrix) for m in tineq]

    def test(x) -> bool:
        return all(dot(m, x) == 0 for m in eq_src) and all(dot(m, x) > 0 for m in ineq_src)

    return test


def _pick_witness(cands):
    value = min(v for v, _ in cands)
    wit = min(x for v, x in cands if v == value)
    return value, wit[1]


def _norm_key(x) -> tuple:
    return (max(abs(t) for t in x), x)


def relative_mld(
    f: ToricMorphism, b: ToricDivisor, tau_z: tuple[int, ...], eps, radius: int = 10_000
) -> RelMldResult:
    """Infimum of A over primitive lattice points of the support mapping
    into relint(tau_z).

    Positive discrepancies at every ray make the sublevel region finite and
    the answer Exact.  Otherwise a per-cone LP over the closed region either
    certifies the bound, detects -infinity, or hands over to a radius-capped
    enumeration whose outcome is reported honestly.
    """
    eps = Fraction(eps)
    tau_z = tuple(sorted(set(int(i) for i in tau_z)))
    if not tau_z:
        raise DomainError("the base cone must have dimension >= 1")
    if not is_cone_of(f.target, tau_z):
        raise NotACone(f"{tau_z} is not a cone of the target fan")
    src, nz, nx = f.source, f.target.rank, f.source.rank
    a = log_discrepancy_function(src, b)
    tgens = f.target.cone_gens(tau_z)
    teq, tineq = cones.hrep(tgens, nz)
    maps_into_relint = _relint_test(f, teq, tineq)

    # cones whose image meets relint(tau_z), with a lifted lattice witness
    relevant = []
    best = None
    for c, fn in zip(src.max_cones, a.functionals):
        gens = src.cone_gens(c)
        img = tuple(u for u in (f.apply(g) for g in gens) if not is_zero(u))
        for m in teq:
            img = cones.cut(img, nz, m, 1)
            img = cones.cut(img, nz, m, -1)
        for m in tineq:
            img = cones.cut(img, nz, m, 1)
        if not img:
            continue
        pc = img[0]
        for g in img[1:]:
            pc = vec_add(pc, g)
        if is_zero(pc) or not cones.relint_contains(tgens, nz, pc):
            continue
        res = solve_min(cone_lp(gens, f.matrix, pc, fn))
        assert isinstance(res, (Optimal, Unbounded))
        if isinstance(res, Unbounded):
            # recession in the fiber direction with negative A; anchor the
            # descent at a lattice point over relint(tau_z)
            d = primitive(scale_to_integer(res.direction))
            feas = solve_min(cone_lp(gens, f.matrix, pc, (0,) * nx))
            assert isinstance(feas, Optimal)
            v0 = scale_to_integer(feas.point)
            return Exact(MINUS_INFINITY, _descend(a, v0, d))
        v0 = primitive(scale_to_integer(res.point))
        val0 = a(v0)
        relevant.append((c, fn, gens, v0))
        if best is None or (val0, _norm_key(v0)) < best[:2]:
            best = (val0, _norm_key(v0), v0)
    if not relevant:
        raise NoCone("no cone maps onto the chosen base cone")
    cap, _, wit0 = best

    ray_vals = [1 - coeff for coeff in b.coeffs]
    if all(v > 0 for v in ray_vals):
        cands = [(cap, (_norm_key(wit0), wit0))]
        for x, val in sublevel_points(src, a, cap):
            if maps_into_relint(x):
                cands.append((val, (_norm_key(x), x)))
        value, wit = _pick_witness(cands)
        assert is_primitive(wit)
        return Exact(value, wit)

    # closed-region lower bound, one LP per relevant cone
    u0 = tineq[0]
    for m in tineq[1:]:
        u0 = vec_add(u0, m)
    u0_src = vec_mat(u0, f.matrix)
    lower = None
    for c, fn, gens, v0 in relevant:
        cg = gens
        for m in teq:
            row = vec_mat(m, f.matrix)
            cg = cones.cut(cg, nx, row, 1)
            cg = cones.cut(cg, nx, row, -1)
        for m in tineq:
            cg = cones.cut(cg, nx, vec_mat(m, f.matrix), 1)
        res = solve_min(cone_lp(cg, (u0_src,), (1,), fn))
        if isinstance(res, Unbounded):
            d = primitive(scale_to_integer(res.direction))
            return Exact(MINUS_INFINITY, _descend(a, v0, d))
        assert isinstance(res, Optimal), "the lifted point scales into the LP region"
        if res.value < 0:
            d = primitive(scale_to_integer(res.point))
            return Exact(MINUS_INFINITY, _descend(a, v0, d))
        if lower is None or res.value < lower:
            lower = res.value
    if cap == lower:
        return Exact(lower, wit0)
    if lower >= eps:
        return CertifiedAtLeast(lower)

    # 0 <= lower < eps: radius-capped direct search
    budget = 2_000_000
    found = [(cap, (_norm_key(wit0), wit0))]
    for entry in relevant:
        c, fn, gens = entry[0], entry[1], entry[2]
        tri = cones.triangulate(gens, nx)
        for t in tri:
            sgens = tuple(gens[i] for i in t)
            svals = [Fraction(dot(fn, g)) for g in sgens]
            for bpt, _ in cones.box_points(sgens, nx):
                base = Fraction(dot(fn, bpt))
                ranges = []
                for v in svals:
                    if v > 0:
                        hi = int((cap - base) / v) if cap >= base else -1
                        hi = min(hi, radius)
                    else:
                        hi = radius
                    ranges.append(range(hi + 1))
                for ns in product(*ranges):
                    budget -= 1
                    if budget <= 0:
                        break
                    x = bpt
                    for n, g in zip(ns, sgens):
                        if n:
                            x = vec_add(x, vec_scale(n, g))
                    if is_zero(x) or not maps_into_relint(x):
                        continue
                    found.append((Fraction(dot(fn, x)), (_norm_key(x), x)))
                if budget <= 0:
                    break
            if budget <= 0:
                break
        if budget <= 0:
            break
    value, wit = _pick_witness(found)
    if not is_primitive(wit):
        wit = primitive(wit)
        value = a(wit)
    if value == lower:
        return Exact(value, wit)
    if value < eps:
        return Witness(wit, value)
    return Indeterminate(radius)


def _descend(a, x0: Vec, d: Vec) -> Vec:
    """A lattice point x0 + k*d with negative log discrepancy."""
    w = vec_add(x0, d)
    step = d
    while a(w) >= 0:
        step = vec_add(step, step)
        w = vec_add(w, step)
    return w
