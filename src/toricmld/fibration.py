"""Toric contractions: fibers, pullbacks, thresholds, discriminants.

A lattice map compatible with two fans induces a toric morphism.  The
relative singularity invariants all reduce to exact linear programs and
lattice-point enumeration over the source fan, with the base divisor
geometry read off through the map.

Preimages of cones are read off the rays.  A compatible map (``morphism``
checks this by default) sends each maximal source cone sigma into a target
cone tau'; for a target cone tau, tau ∩ tau' is a face of tau', cut out by
some m >= 0 on tau'.  So sigma ∩ f^-1(tau) is the face of sigma spanned by
its rays mapping into tau, and f(sigma) ∩ tau is spanned by their images
(Cox-Little-Schenck, Lemma 1.2.13).  ``relative_mld`` and
``generic_fiber_fan`` take their faces this way and assume a compatible f.

Properness is decided without generators of any preimage: over each maximal
target cone, the source cones of full dimension in its preimage must glue
along their walls up to the preimage's boundary hyperplanes, the argument
``fans.is_complete`` uses for the whole space.  The images of the source
rays are computed once per morphism (``ToricMorphism._ray_images``, kept on
the instance outside its fields), and the compatibility test and the cover
test of the properness check read them.

What depends on the fans and f alone is computed once, in bounded caches:
``validate_morphism``, ``relative_mld``'s plan per (f, tau_z)
(``_relative_plan``: pulled-back rows and relevant cones) and
``lc_threshold_over``'s per (f, w) (``_lc_plan``: the cones whose image
contains w).  The constraints of every LP here come from the fans and f
alone, and only the objective, A's functional on a cone, from the
boundary; so the plans hold their LP regions (``ratlp.cone_region``, with
simplex phase one run), and each call runs phase two on them
(``ratlp.minimize``).

One pair (f, B) is asked about at many eps, and only the last step of
``relative_mld`` reads eps or the radius.  So the work on a pair is cached
as well: ``lc_threshold_over`` whole, per (f, B, w), and ``relative_mld``
up to that step, per (f, B, tau_z) (``_relative_analysis``: its LPs, its
-infinity exits and its sublevel scan).  A comes from
``divisors.log_discrepancy_function``'s cache.

With every coefficient of B below 1 the sublevel scan is exact and builds
no box: ``cones.cone_runs`` scans each face over tau_z of the planned cones'
simplices once, with the rows F M x >= 1 under the LP seed's value, folded by
``cones.least_key``.  The radius search still walks boxes
(``cones.capped_runs``), since it charges its budget in walk order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
from .fans import Fan, _walls, fan, is_cone_of, point_fan
from .intlinalg import (
    Mat,
    Vec,
    dot,
    identity,
    is_primitive,
    is_zero,
    kernel_basis,
    mat_vec,
    primitive,
    scale_to_integer,
    smith_normal_form,
    transpose,
    vec_add,
    vec_mat,
)
from .ratlp import ConeRegion, Optimal, Unbounded, cone_region, minimize
from .singularities import MINUS_INFINITY, _triangulated


@dataclass(frozen=True)
class ToricMorphism:
    matrix: Mat  # rows: target rank, cols: source rank
    source: Fan
    target: Fan

    def apply(self, v) -> Vec:
        return mat_vec(self.matrix, v)

    @cached_property
    def _ray_images(self) -> tuple[Vec, ...]:
        """The images of the source rays, in ray order.  Kept on the
        instance, outside the dataclass fields."""
        return tuple(map(self.apply, self.source.rays))


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
    images = f._ray_images
    return all(cones.contains(tgens, f.target.rank, images[i]) for i in c)


def _compatible(f: ToricMorphism) -> bool:
    if f.target.rank == 0:
        return True
    for c in f.source.max_cones:
        if not any(
            _image_in_cone(f, c, f.target.cone_gens(t)) for t in f.target.max_cones
        ):
            return False
    return True


def _pullback(f: ToricMorphism, rows) -> tuple[Vec, ...]:
    """Target functionals as source functionals, m -> m M: the preimage of
    {E y = 0, F y >= 0} is {E M x = 0, F M x >= 0}."""
    return tuple(vec_mat(m, f.matrix) for m in rows)


def _is_proper(f: ToricMorphism) -> bool:
    """phi_R^-1(|target|) = |source| (Cox-Little-Schenck, Thm 3.4.11),
    checked over each maximal target cone tau by gluing walls.

    P = phi_R^-1(tau) has dimension nx - rank phi + dim(tau ∩ im phi_R).
    The source cones mapping into tau lie in P, and those of dimension dim P
    cover it iff there is one and each of their facets is either a wall of
    another of them (the same ray indices) or lies on a boundary hyperplane
    of P: a pulled-back facet row of tau that is 0 on the facet and positive
    somewhere on the cone.
    """
    src, nz = f.source, f.target.rank
    # functionals on the target vanishing on im phi_R
    image_eqs = cones.span_equations(transpose(f.matrix), nz)
    kernel_dim = src.rank - nz + len(image_eqs)
    dims = {c: src.rank - len(cones.hrep(src.cone_gens(c), src.rank)[0]) for c in src.max_cones}
    walls = _walls(src)
    for t in f.target.max_cones:
        tgens = f.target.cone_gens(t)
        meet = cones.intersect(tgens, nz, image_eqs, ())  # tau ∩ im phi_R
        dim_p = kernel_dim + nz - len(cones.hrep(meet, nz)[0])
        if dim_p == 0:  # P = {0} lies in every cone
            continue
        bounds = _pullback(f, cones.hrep(tgens, nz)[1])
        cover = {c for c in src.max_cones if dims[c] == dim_p and _image_in_cone(f, c, tgens)}
        if not cover:
            return False
        for wall, cs in walls.items():
            owners = [c for c in cs if c in cover]
            if len(owners) != 1:
                continue
            gens = src.cone_gens(owners[0])
            if not any(
                all(dot(m, src.rays[i]) == 0 for i in wall) and any(dot(m, g) > 0 for g in gens)
                for m in bounds
            ):
                return False
    return True


@lru_cache(maxsize=1024)
def validate_morphism(f: ToricMorphism) -> MorphismDiagnostics:
    """Compatibility, surjectivity onto the target lattice, properness and
    relative dimension; a function of f alone, so cached."""
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


def generic_fiber_fan(f: ToricMorphism) -> tuple[Mat, Fan]:
    """Fiber lattice basis (rows) and the fan of the generic fiber, written
    in those coordinates.

    f must be compatible: its kernel meets each source cone in the face
    spanned by the cone's rays lying in the kernel.
    """
    # the matrix onto a rank-0 target is (), which carries no column count
    kb = kernel_basis(f.matrix) if f.target.rank else identity(f.source.rank)
    r = len(kb)
    if r == 0:
        return (), point_fan()
    src = f.source
    in_kernel = [is_zero(f.apply(v)) for v in src.rays]
    kernel_faces = {tuple(i for i in c if in_kernel[i]) for c in src.max_cones} - {()}
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


def _target_ray(f: ToricMorphism, w: int) -> Vec:
    """The target ray of index w; DomainError unless 0 <= w < number of rays."""
    if not 0 <= w < len(f.target.rays):
        raise DomainError(f"target ray index {w} out of range")
    return f.target.rays[w]


def pullback_multiplicities(f: ToricMorphism, w: int) -> tuple[tuple[Vec, int], ...]:
    """Source rays lying over the target ray w with their multiplicities:
    pairs (v, c) with phi(v) = c*w, c a positive integer."""
    wv = _target_ray(f, w)
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


@lru_cache(maxsize=1024)
def lc_threshold_over(f: ToricMorphism, b: ToricDivisor, w: int) -> Fraction:
    """Largest t with (X, B + t f*D_w) log canonical over the generic point
    of D_w: the minimum of A over the fiber polytope {x in |fan|, phi(x) = w}.
    A function of (f, b, w) alone, so cached; errors are raised on every call."""
    a = log_discrepancy_function(f.source, b)
    vals = []
    for k, region in _lc_plan(f, w):
        res = minimize(region, a.functionals[k])
        if isinstance(res, Unbounded):
            raise NotLogCanonicalOverBase(
                f"A is unbounded below on the fiber over ray {w}"
            )
        assert isinstance(res, Optimal), "cone image contains w, so the LP is feasible"
        vals.append(res.value)
    if not vals:
        raise NoCone(f"no maximal cone maps onto the ray {w}")
    return min(vals)


@lru_cache(maxsize=1024)
def _lc_plan(f: ToricMorphism, w: int) -> tuple[tuple[int, ConeRegion], ...]:
    """(index, region) of each maximal source cone whose image contains the
    target ray w: the region is the cone's fiber polyhedron over w,
    {x in cone : M x = w}."""
    wv = _target_ray(f, w)
    out = []
    for k, c in enumerate(f.source.max_cones):
        gens = f.source.cone_gens(c)
        img = tuple(u for u in (f.apply(g) for g in gens) if not is_zero(u))
        if cones.contains(img, f.target.rank, wv):
            out.append((k, cone_region(gens, f.matrix, wv)))
    return tuple(out)


def lc_thresholds(f: ToricMorphism, b: ToricDivisor) -> tuple[Fraction, ...]:
    """lc_threshold_over at every target ray, in ray order."""
    return tuple(lc_threshold_over(f, b, w) for w in range(len(f.target.rays)))


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
    ts = lc_thresholds(f, b)
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


@dataclass(frozen=True)
class BudgetExhausted:  # the search examined `searched` elements, its budget, and stopped
    radius: int
    searched: int


RelMldResult = Exact | CertifiedAtLeast | Witness | Indeterminate | BudgetExhausted

# lattice points the radius search of relative_mld may visit
_SEARCH_BUDGET = 2_000_000


def check_radius(radius: int) -> None:
    """Reject a negative search radius."""
    if radius < 0:
        raise DomainError(f"the search radius must be >= 0, got {radius}")


@lru_cache(maxsize=1024)
def _relative_plan(f: ToricMorphism, tau_z: tuple[int, ...]):
    """What relative_mld needs of f and tau_z alone: the pulled-back rows
    (E M, F M), with x over relint(tau_z) iff E M x = 0 and F M x > 0 (which
    excludes 0); and (index, generators, lifted, closed, faces) of each
    maximal source cone whose image meets relint(tau_z).  The face spanning
    the cone's part over tau_z has pc, the sum of its nonzero images, a
    lattice point of relint(tau_z) in the cone's image.  lifted is the LP
    region {x in cone : M x = pc}, closed the region {x in face : u0 x = 1},
    u0 the sum of the F M rows, and faces the faces of the cone's simplices
    over tau_z (ray indices) that no earlier entry holds."""
    if not is_cone_of(f.target, tau_z):
        raise NotACone(f"{tau_z} is not a cone of the target fan")
    src, nz = f.source, f.target.rank
    tgens = f.target.cone_gens(tau_z)
    teq, tineq = cones.hrep(tgens, nz)
    eq_src, ineq_src = _pullback(f, teq), _pullback(f, tineq)
    u0_src = tuple(map(sum, zip(*ineq_src)))
    plan, seen = [], set()
    for k, c in enumerate(src.max_cones):
        gens = src.cone_gens(c)
        face = tuple(
            g
            for g in gens
            if all(dot(m, g) == 0 for m in eq_src) and all(dot(m, g) >= 0 for m in ineq_src)
        )
        img = tuple(sorted({u for u in map(f.apply, face) if not is_zero(u)}))
        if not img:
            continue
        pc = cones.relint_point(img)
        if is_zero(pc) or not cones.relint_contains(tgens, nz, pc):
            continue
        lifted = cone_region(gens, f.matrix, pc)
        closed = cone_region(face, (u0_src,), (1,))
        faces = {tuple(sorted(i for i in s if src.rays[i] in face)) for s in _triangulated(src)[k]}
        plan.append((k, gens, lifted, closed, tuple(sorted(faces - seen - {()}))))
        seen |= faces
    return (eq_src, ineq_src), tuple(plan)


@dataclass(frozen=True)
class _SearchStart:
    """What relative_mld's last step starts from when its analysis decides
    nothing: the closed-region bound lower, A as (den, nums), the pulled-back
    rows, the relevant cones' indices and the seed key
    ``cones.point_key(capn, wit0)``, whose value capn = den * A(wit0) caps
    A's numerators."""

    lower: Fraction
    den: int
    nums: tuple[Vec, ...]
    rows: tuple
    relevant: tuple[int, ...]
    seed: tuple


@lru_cache(maxsize=1024)
def _relative_analysis(f: ToricMorphism, b: ToricDivisor, tau_z: tuple[int, ...]):
    """What relative_mld does before it reads eps or the radius, cached on
    (f, b, tau_z): A, and either the decided result or the _SearchStart of
    the radius search.  Errors are raised on every call, not cached."""
    rows, plan = _relative_plan(f, tau_z)  # NotACone comes before A's NotQCartier
    a = log_discrepancy_function(f.source, b)
    src, nx = f.source, f.source.rank
    den, nums = a.integral()

    # each planned cone with a lifted lattice witness over relint(tau_z)
    relevant = []
    for k, _, lifted, closed, _ in plan:
        fn = a.functionals[k]
        res = minimize(lifted, fn)
        assert isinstance(res, (Optimal, Unbounded))
        if isinstance(res, Unbounded):
            # recession in the fiber direction with negative A; anchor the
            # descent at a lattice point over relint(tau_z)
            d = primitive(scale_to_integer(res.direction))
            feas = minimize(lifted, (0,) * nx)
            assert isinstance(feas, Optimal)
            v0 = scale_to_integer(feas.point)
            return a, Exact(MINUS_INFINITY, _descend(a, v0, d))
        relevant.append((k, fn, closed, primitive(scale_to_integer(res.point))))
    if not relevant:
        raise NoCone("no cone maps onto the chosen base cone")
    # v0 lies in cone k, where A is nums[k] / den
    seed = min(cones.point_key(dot(nums[k], v0), v0) for k, _, _, v0 in relevant)
    capn, _, wit0 = seed

    if all(1 - coeff > 0 for coeff in b.coeffs):
        best, cap = seed, [capn]
        for k, *_, faces in plan:
            for face in faces:
                runs = cones.cone_runs(src.cone_gens(face), nx, nums[k], cap, rows[1])
                best = cones.least_key(best, runs, cap)
        return a, Exact(Fraction(best[0], den), best[2])

    # closed-region lower bound, one LP per relevant cone
    lower = None
    for _, fn, closed, v0 in relevant:
        res = minimize(closed, fn)
        if isinstance(res, Unbounded):
            d = primitive(scale_to_integer(res.direction))
            return a, Exact(MINUS_INFINITY, _descend(a, v0, d))
        assert isinstance(res, Optimal), "the lifted point scales into the LP region"
        if res.value < 0:
            d = primitive(scale_to_integer(res.point))
            return a, Exact(MINUS_INFINITY, _descend(a, v0, d))
        if lower is None or res.value < lower:
            lower = res.value
    if Fraction(capn, den) == lower:
        return a, Exact(lower, wit0)
    return a, _SearchStart(lower, den, nums, rows, tuple(k for k, *_ in relevant), seed)


def relative_mld(
    f: ToricMorphism, b: ToricDivisor, tau_z: tuple[int, ...], eps, radius: int = 10_000
) -> RelMldResult:
    """Infimum of A over primitive lattice points of the support mapping
    into relint(tau_z).

    Positive discrepancies at every ray make the sublevel region finite and
    the answer Exact.  Otherwise a per-cone LP over the closed region either
    certifies the bound, detects -infinity, or hands over to a radius-capped
    enumeration whose outcome is reported honestly.

    None of this but the last step reads eps or the radius, so it is cached
    on (f, b, tau_z) (``_relative_analysis``); the comparison with eps and
    the radius-capped search run on every call, and every witness returned
    is re-evaluated against A on the call that returns it.

    f must be compatible: each cone's preimage of tau_z is then the face
    spanned by its rays mapping into tau_z.
    """
    check_radius(radius)
    eps = Fraction(eps)
    tau_z = tuple(sorted(set(int(i) for i in tau_z)))
    if not tau_z:
        raise DomainError("the base cone must have dimension >= 1")
    a, res = _relative_analysis(f, b, tau_z)
    if isinstance(res, _SearchStart):
        res = _radius_search(f.source, a, res, eps, radius)
    return _checked(a, res)


def _radius_search(src: Fan, a, start: _SearchStart, eps: Fraction, radius: int) -> RelMldResult:
    """The last step of relative_mld: the bound start.lower against eps, and
    below eps the radius-capped direct search from a copy of the seed."""
    lower = start.lower
    if lower >= eps:
        return CertifiedAtLeast(lower)

    # 0 <= lower < eps: radius-capped direct search.  Every element of the
    # walk, above the cap or not, is charged to the budget; a run is charged
    # its size, and only its k below the budget left are examined.  The walk
    # is not drawn past the budget, so one that ends exactly there is
    # reported as exhausted too
    nx, nums, capn = src.rank, start.nums, start.seed[0]
    best, cap = start.seed, [capn]
    budget = _SEARCH_BUDGET
    runs = (
        run
        for k in start.relevant
        for simplex in _triangulated(src)[k]
        for run in cones.capped_runs(src.cone_gens(simplex), nx, nums[k], capn, start.rows, radius)
    )
    for size, lo, hi, n0, step, point in runs:
        hi = min(hi, budget - 1)
        if lo <= hi:
            best = cones.least_key(best, ((lo, hi, n0, step, point),), cap)
        budget -= min(size, budget)
        if budget <= 0:
            break
    value, wit = Fraction(best[0], start.den), best[2]
    if not is_primitive(wit):
        wit = primitive(wit)
        value = a(wit)
    if value == lower:
        return Exact(value, wit)
    if value < eps:
        return Witness(wit, value)
    if budget <= 0:
        return BudgetExhausted(radius, _SEARCH_BUDGET - budget)
    return Indeterminate(radius)


def _checked(a, res: RelMldResult) -> RelMldResult:
    """res, once its witness re-evaluates against A: a primitive point where
    A takes the value, or for -infinity a point where A is negative."""
    if isinstance(res, Exact) and res.value is MINUS_INFINITY:
        ok = a(res.witness) < 0
    elif isinstance(res, (Exact, Witness)):
        wit = res.witness if isinstance(res, Exact) else res.v
        ok = is_primitive(wit) and a(wit) == res.value
    else:
        return res
    if not ok:
        raise AssertionError("relative mld witness failed re-evaluation")
    return res


def _descend(a, x0: Vec, d: Vec) -> Vec:
    """A lattice point x0 + k*d with negative log discrepancy."""
    w = vec_add(x0, d)
    step = d
    while a(w) >= 0:
        step = vec_add(step, step)
        w = vec_add(w, step)
    return w
