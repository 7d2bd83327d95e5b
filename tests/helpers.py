"""Shared fixture builders for the test suite."""

import math
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import mul

from toricmld import cones
from toricmld.bounds import FamilyInstance, Rat, VerificationReport, _fiber_cones_minimum, delta
from toricmld.cones import (
    _kernel,
    box_points,
    contains,
    covered_by,
    cut,
    hrep,
    intersect,
    relint_contains,
    relint_point,
    span_coordinates,
    span_equations,
    span_lattice_basis,
    triangulate,
    values_at,
)
from toricmld.divisors import (
    PLFunction,
    ToricDivisor,
    divisor,
    log_discrepancy_function,
    rel_trivial_witness,
    zero_divisor,
)
from toricmld.errors import DomainError, NoCone, NotACone, NotQCartier
from toricmld.fans import Fan, fan, is_cone_of, point_fan, star_subdivision
from toricmld.fibration import (
    BudgetExhausted,
    CertifiedAtLeast,
    Exact,
    Indeterminate,
    ToricMorphism,
    Witness,
    _descend,
    _image_in_cone,
    _pullback,
    average_boundary,
    check_radius,
    discriminant_divisor,
    lc_thresholds,
    morphism,
    pullback_multiplicities,
    relative_mld,
    validate_morphism,
)
from toricmld.intlinalg import (
    Vec,
    _rows,
    clear_denominators,
    content,
    det,
    dot,
    gauss_jordan,
    identity,
    is_primitive,
    is_zero,
    kernel_basis,
    mat_vec,
    primitive,
    rank,
    scale_to_integer,
    smith_normal_form,
    transpose,
    vec_add,
    vec_mat,
    vec_scale,
)
from toricmld.ratlp import (
    ConeLP,
    Infeasible,
    LPStatus,
    Optimal,
    Unbounded,
    cone_lp,
    solve_min,
)
from toricmld.singularities import MINUS_INFINITY, MldReport, _triangulated, mld_at_cone


def p2() -> Fan:
    return fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def p112() -> Fan:
    return fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])


def p123() -> Fan:
    # weights (2, 3, 1) as listed: the weighted plane P(1,2,3)
    return fan(2, [(1, 0), (0, 1), (-2, -3)], [(0, 1), (1, 2), (2, 0)])


def p1() -> Fan:
    return fan(1, [(1,), (-1,)], [(0,), (1,)])


def a1() -> Fan:
    return fan(1, [(1,)], [(0,)])


def a2() -> Fan:
    return fan(2, [(1, 0), (0, 1)], [(0, 1)])


def a3() -> Fan:
    return fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])


def p3() -> Fan:
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return fan(3, rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def blowup_p2() -> Fan:
    return fan(
        2,
        [(1, 0), (0, 1), (-1, -1), (1, 1)],
        [(0, 3), (1, 3), (1, 2), (2, 0)],
    )


def cone_over_square() -> Fan:
    return fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])


def ex13_r1_q2() -> Fan:
    return fan(2, [(1, 0), (-1, 0), (-2, 5)], [(0, 2), (1, 2)])


def ex13_r2_q2() -> Fan:
    rays = [(1, -2, 0), (-2, 5, 0), (-1, -1, 0), (-2, -2, 41)]
    return fan(3, rays, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])


def product_fan(a: Fan, b: Fan) -> Fan:
    rays = [r + (0,) * b.rank for r in a.rays] + [(0,) * a.rank + s for s in b.rays]
    cones = []
    for ca in a.max_cones:
        for cb in b.max_cones:
            cones.append(tuple(ca) + tuple(len(a.rays) + j for j in cb))
    return fan(a.rank + b.rank, rays, cones)


def to_a1(src: Fan) -> ToricMorphism:
    """Projection to the last coordinate, over the fan of the affine line."""
    row = (0,) * (src.rank - 1) + (1,)
    return morphism((row,), src, a1())


def identity_morphism(f: Fan) -> ToricMorphism:
    return morphism(identity(f.rank), f, f)


def random_unimodular(rng: random.Random, n: int):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        m[j] = [a + c * b for a, b in zip(m[j], m[i])]
    return tuple(tuple(row) for row in m)


def random_gl(rng: random.Random, n: int):
    """A random element of GL_n(Z): random_unimodular, with its first row
    negated half of the time so that both orientations occur."""
    u = random_unimodular(rng, n)
    if rng.random() < 0.5:
        u = (tuple(-x for x in u[0]),) + u[1:]
    return u


def random_support_point(rng: random.Random, f: Fan):
    cone = rng.choice([c for c in f.max_cones if c])
    while True:
        coeffs = [rng.randrange(0, 4) for _ in cone]
        v = tuple(
            sum(c * f.rays[i][j] for c, i in zip(coeffs, cone)) for j in range(f.rank)
        )
        if any(v):
            return primitive(v)


def random_wps_fan(rng: random.Random, rank: int) -> Fan:
    """A random fake weighted projective fan: rank+1 rays, all rank-subsets
    as maximal cones, twisted by a unimodular matrix."""
    import math

    weights = [rng.randrange(1, 5) for _ in range(rank)]
    g = math.gcd(*weights)
    weights = [w // g for w in weights]
    rays = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    rays.append(tuple(-w for w in weights))
    u = random_unimodular(rng, rank)
    cones = [tuple(j for j in range(rank + 1) if j != i) for i in range(rank + 1)]
    return fan(rank, [mat_vec(u, r) for r in rays], cones)


def random_fan(rng: random.Random, max_rank: int = 3, subdivisions: int = 3) -> Fan:
    """A random valid simplicial fan: seed fixture, a few star subdivisions,
    then a unimodular change of coordinates.  Rank-4 seeds join the pool
    when max_rank >= 4."""
    seeds2 = [p2, p112, p123, a2, blowup_p2]
    seeds3 = [p3, a3, lambda: product_fan(p2(), a1()), lambda: product_fan(p1(), a2())]
    seeds4 = [
        lambda: product_fan(p3(), a1()),
        lambda: product_fan(p123(), p112()),
        lambda: product_fan(a2(), blowup_p2()),
    ]
    seeds1 = [p1, a1]
    pool = seeds1 + seeds2 + (seeds3 if max_rank >= 3 else [])
    pool += seeds4 if max_rank >= 4 else []
    f = rng.choice(pool)()
    for _ in range(rng.randrange(subdivisions + 1)):
        f = star_subdivision(f, random_support_point(rng, f))
    return twist_fan(f, random_unimodular(rng, f.rank))


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def reference_dot(u, v):
    """The generator forms that ``intlinalg``'s vector kernels replaced."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def reference_is_zero(v) -> bool:
    return all(x == 0 for x in v)


def reference_content(v) -> int:
    return math.gcd(*(abs(int(x)) for x in v)) if v else 0


def reference_vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def faces_of(gens, dim: int) -> set[tuple[int, ...]]:
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


def cones_of(f: Fan) -> list[tuple[int, ...]]:
    """Every nonzero cone of the fan as sorted ray indices, sorted."""
    return sorted(
        {
            tuple(c[i] for i in face)
            for c in f.max_cones
            for face in faces_of(f.cone_gens(c), f.rank)
            if face
        }
    )


def reference_generic_fiber_fan(f: ToricMorphism):
    """The face enumeration that fibration.generic_fiber_fan replaced: every
    face of every maximal source cone (faces_of) whose rays all lie in the
    kernel, keeping the maximal ones."""
    kb = kernel_basis(f.matrix)
    r = len(kb)
    if r == 0:
        return (), point_fan()
    src = f.source
    in_kernel = [is_zero(f.apply(v)) for v in src.rays]
    kernel_faces: set[tuple[int, ...]] = set()
    for c in src.max_cones:
        gens = src.cone_gens(c)
        for face in faces_of(gens, src.rank):
            glob = tuple(c[i] for i in face)
            if glob and all(in_kernel[i] for i in glob):
                kernel_faces.add(glob)
    maximal = [
        fc
        for fc in kernel_faces
        if not any(fc != other and set(fc) <= set(other) for other in kernel_faces)
    ]
    used = sorted({i for fc in maximal for i in fc})
    coords = {i: span_coordinates(kb, src.rays[i]) for i in used}
    index = {i: k for k, i in enumerate(used)}
    fiber = fan(
        r,
        [coords[i] for i in used],
        [tuple(index[i] for i in fc) for fc in maximal],
    )
    return kb, fiber


def twist_fan(f: Fan, u) -> Fan:
    """The fan f in the coordinates x -> u x, for a unimodular u."""
    return fan(f.rank, [mat_vec(u, r) for r in f.rays], f.max_cones)


def twist_divisor(b: ToricDivisor, u) -> ToricDivisor:
    """The divisor b carried ray by ray onto twist_fan(b.fan, u)."""
    tw = twist_fan(b.fan, u)
    by_ray = {mat_vec(u, r): c for r, c in zip(b.fan.rays, b.coeffs)}
    return divisor(tw, [by_ray[r] for r in tw.rays])


def invert_rational(m):
    """Inverse of a square matrix over the rationals, by the fraction-free
    intlinalg.gauss_jordan on [m | I]."""
    n = len(m)
    pairs = [clear_denominators(row) for row in m]
    aug = [nums for nums, _ in pairs]
    dens = [den for _, den in pairs]
    for i, (row, den) in enumerate(zip(aug, dens)):
        row.extend(den if i == j else 0 for j in range(n))
    if len(gauss_jordan(aug, dens, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(Fraction(x, den) for x in row[n:]) for row, den in zip(aug, dens))


def unimodular_inverse(m):
    """Integer inverse of a unimodular integer matrix."""
    inv = invert_rational(m)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def reference_solve_exact(a, b):
    """One exact solution of a @ x = b (free variables set to 0), or None.

    intlinalg.solve_exact before it cached the elimination of a: one
    fraction-free gauss_jordan on [a | b] per call."""
    ncols = len(a[0]) if a else 0
    aug, dens = _rows([(*row, b[i]) for i, row in enumerate(a)])
    pivots = gauss_jordan(aug, dens, ncols)
    if any(aug[i][ncols] for i in range(len(pivots), len(a))):
        return None
    x = [Fraction(0)] * ncols
    for ri, ci in pivots:
        x[ci] = Fraction(aug[ri][ncols], dens[ri])
    return tuple(x)


def reference_is_proper(f: ToricMorphism) -> bool:
    """The double-description properness test that fibration._is_proper
    replaced: generators of each full preimage phi_R^-1(tau), cut out of the
    cone over ±e_i, must be covered by the source cones mapping into tau
    (cones.covered_by splits the preimage by every facet hyperplane)."""
    src, nx = f.source, f.source.rank
    start = tuple(
        tuple(s if i == j else 0 for j in range(nx)) for i in range(nx) for s in (1, -1)
    )
    for t in f.target.max_cones:
        tgens = f.target.cone_gens(t)
        eqs, ineqs = hrep(tgens, f.target.rank)
        pre = intersect(start, nx, _pullback(f, eqs), _pullback(f, ineqs))
        cover = [src.cone_gens(c) for c in src.max_cones if _image_in_cone(f, c, tgens)]
        if pre and covered_by(pre, nx, cover) is not None:
            return False
    return True


def reference_validate_fan(f: Fan) -> tuple[tuple[str, str], ...]:
    """The fan check that fans.validate_fan replaced: one hrep of
    cone(σ_a ∪ -σ_b) per pair of maximal cones, and is_pointed plus an hrep
    per generator for every cone, simplicial or not."""
    out = []
    if f.rank < 0:
        return (("BadRank", f"rank {f.rank}"),)
    if f.rank == 0:
        if f.rays or any(c != () for c in f.max_cones):
            out.append(("BadRank", "a rank-0 fan has no rays"))
        return tuple(out)
    for i, r in enumerate(f.rays):
        if len(r) != f.rank:
            out.append(("BadDimension", f"ray {i} has length {len(r)}"))
            return tuple(out)
        if is_zero(r):
            out.append(("ZeroRay", f"ray {i}"))
        elif content(r) != 1:
            out.append(("NonPrimitiveRay", f"ray {i} = {r}"))
    seen = {}
    for i, r in enumerate(f.rays):
        if r in seen:
            out.append(("DuplicateRay", f"rays {seen[r]} and {i}"))
        seen[r] = i
    used = set()
    for cone in f.max_cones:
        for i in cone:
            if not 0 <= i < len(f.rays):
                out.append(("BadIndex", f"cone {cone} references ray {i}"))
                return tuple(out)
            used.add(i)
    if used != set(range(len(f.rays))):
        missing = sorted(set(range(len(f.rays))) - used)
        out.append(("UnusedRay", f"rays {missing} belong to no cone"))
    if out:
        return tuple(out)

    pointed = {}
    extreme = {}
    for cone in f.max_cones:
        gens = f.cone_gens(cone)
        pointed[cone] = not gens or cones.is_pointed(gens, f.rank)
        if not pointed[cone]:
            out.append(("NotPointed", f"cone {cone} contains a line"))
            continue
        extreme[cone] = []
        for i in cone:
            others = tuple(f.rays[j] for j in cone if j != i)
            if others and cones.contains(others, f.rank, f.rays[i]):
                out.append(("RedundantGenerator", f"ray {i} is not extreme in cone {cone}"))
            else:
                extreme[cone].append(i)
    ok_cones = [c for c in f.max_cones if pointed[c] and c]
    for a in range(len(ok_cones)):
        for b in range(a + 1, len(ok_cones)):
            if not _reference_meet_in_common_face(f, ok_cones[a], ok_cones[b], extreme):
                out.append(("BadIntersection", f"cones {ok_cones[a]} and {ok_cones[b]}"))
    return tuple(out)


def _reference_meet_in_common_face(f: Fan, ca: tuple[int, ...], cb: tuple[int, ...], extreme) -> bool:
    """σ_a ∩ σ_b is a common face iff both cones touch the lineality space of
    cone(σ_a ∪ -σ_b) in the same face; tested via a relative-interior dual
    functional of that cone.  The extreme rays of a face are the extreme rays
    of its cone (extreme, by ray index) that lie in it, and the rays are
    distinct, so the faces are compared by index."""
    ga = f.cone_gens(ca)
    gb = f.cone_gens(cb)
    k = ga + tuple(tuple(-x for x in g) for g in gb)
    _, ineqs = cones.hrep(k, f.rank)
    m0 = tuple(sum(col) for col in zip(*ineqs)) if ineqs else (0,) * f.rank
    fa = {i for i in extreme[ca] if dot(m0, f.rays[i]) == 0}
    fb = {i for i in extreme[cb] if dot(m0, f.rays[i]) == 0}
    return fa == fb


def random_fan_input(rng: random.Random) -> Fan:
    """A fan document of rank 1-4 that passes the per-ray checks of
    validate_fan (distinct primitive rays, each used), for comparing fan
    checks.  Maximal cones are picked, often as proper faces, from a valid
    fan (random_fan, products up to rank 4, and the non-simplicial cone
    over a square); then, each with some probability, a generator inside a
    cone is added to it, the negative of a generator is added to its cone,
    a random small ray is added to a cone, or a random cone is added."""
    kind = rng.randrange(4)
    if kind == 0:
        base = random_fan(rng, subdivisions=2)
    elif kind == 1:
        base = product_fan(random_fan(rng, 2, 1), random_fan(rng, 2, 1))
    elif kind == 2:
        base = cone_over_square()
        if rng.random() < 0.5:
            base = product_fan(base, a1())
        base = twist_fan(base, random_unimodular(rng, base.rank))
    else:
        base = random_fan(rng, subdivisions=1)
    rays = list(base.rays)
    picked = []
    for c in base.max_cones:
        if rng.random() < 0.5:
            continue
        if len(c) == base.rank and rng.random() < 0.4:
            c = tuple(rng.sample(c, rng.randrange(1, len(c) + 1)))
        picked.append(list(c))
    if not picked:
        picked.append(list(rng.choice(base.max_cones)))

    def index(v):
        v = primitive(v)
        if v not in rays:
            rays.append(v)
        return rays.index(v)

    for c in picked:
        if len(c) >= 2 and rng.random() < 0.15:
            a, b = rng.sample(c, 2)
            c.append(index(vec_add(rays[a], rays[b])))
        if rng.random() < 0.08:
            c.append(index(vec_scale(-1, rays[rng.choice(c)])))
    if rng.random() < 0.15:
        v = tuple(rng.randint(-2, 2) for _ in range(base.rank))
        if any(v):
            rng.choice(picked).append(index(v))
    if rng.random() < 0.4:
        picked.append(rng.sample(range(len(rays)), rng.randint(1, min(len(rays), base.rank))))
    used = sorted({i for c in picked for i in c})
    new = {old: k for k, old in enumerate(used)}
    return fan(
        base.rank,
        [rays[i] for i in used],
        [tuple(new[i] for i in c) for c in picked],
        check=False,
    )


def _reference_full_dim_facets(gens_d, d: int):
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


def reference_hrep(gens, dim: int):
    """Rational-lift reference for cones.hrep: facets are found in the
    coordinates of a lattice basis B of the span, then lifted back to Z^dim
    through the Gram inverse (B B^T)^{-1} and cleared of denominators."""
    gens = tuple(g for g in gens if not is_zero(g))
    eqs = span_equations(gens, dim)
    if not gens:
        return eqs, ()
    basis = span_lattice_basis(gens, dim)
    d = len(basis)
    gens_d = tuple(span_coordinates(basis, g) for g in gens)
    facets_d = _reference_full_dim_facets(gens_d, d)
    # lift a span functional m_d back to Z^dim: m(x) = m_d(coords(x)), and
    # coords(x) = (B B^T)^{-1} B x on the span
    bbt_inv = invert_rational(tuple(tuple(dot(r1, r2) for r2 in basis) for r1 in basis))
    lifted = []
    for m_d in facets_d:
        w = mat_vec(transpose(bbt_inv), m_d)
        row = tuple(sum(w[i] * basis[i][j] for i in range(d)) for j in range(dim))
        lifted.append(primitive(scale_to_integer(row)))
    return eqs, tuple(sorted(lifted))


def _reference_box_points_full(vmat):
    """Coset representatives of Z^d / V Z^d, each reduced into the half-open
    box by a rational solve (V square nonsingular, columns)."""
    d = len(vmat)
    dmat, u, _ = smith_normal_form(vmat)
    diag = [dmat[i][i] for i in range(d)]
    uinv = unimodular_inverse(u)
    vinv = invert_rational(vmat)
    pts = []
    for s in product(*(range(di) for di in diag)):
        x = mat_vec(uinv, s)
        t = mat_vec(vinv, x)
        shift = mat_vec(vmat, tuple(math.floor(ti) for ti in t))
        pts.append(vec_sub(x, shift))
    return pts


def reference_box_points(gens, dim: int):
    """Fraction reference for cones.box_points: same points, same order,
    each coset representative reduced into the box by a rational solve."""
    d = len(gens)
    if d == 0:
        return ((0,) * dim,)
    if rank(tuple(gens)) != d:
        raise NotACone("parallelepiped needs independent generators")
    basis = span_lattice_basis(gens, dim)
    gens_d = tuple(span_coordinates(basis, g) for g in gens)
    out = []
    for x_d in _reference_box_points_full(transpose(gens_d)):
        x = tuple(sum(x_d[i] * basis[i][j] for i in range(d)) for j in range(dim))
        out.append(x)
    return tuple(out)


def reference_wall_mismatch(f: Fan, functionals):
    """The violations pl_function raised when it compared Fraction dots:
    each ray against the first maximal cone holding it; None if all agree."""
    functionals = tuple(tuple(Fraction(x) for x in fn) for fn in functionals)
    first = {}
    for fn, c in zip(functionals, f.max_cones):
        for i in c:
            v = dot(fn, f.rays[i])
            if first.setdefault(i, v) != v:
                return (("WallMismatch", f"cones disagree at shared ray {i}: {first[i]} vs {v}"),)
    return None


def reference_box_residues(vmat):
    """Row-at-a-time reference for cones._box_residues: N and one residue
    tuple k per coset, in itertools.product order."""
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


def reference_box_points_rows(gens, dim: int):
    """Row-at-a-time reference for cones.box_points: one residue tuple, one
    set of integer self-checks and one point per coset."""
    d = len(gens)
    if d == 0:
        return ((0,) * dim,)
    if rank(tuple(gens)) != d:
        raise NotACone("parallelepiped needs independent generators")
    basis = span_lattice_basis(gens, dim)
    vmat = transpose(tuple(span_coordinates(basis, g) for g in gens))
    n, residues = reference_box_residues(vmat)
    cols = transpose(gens)
    out = []
    for k in residues:
        if not all(0 <= ki < n for ki in k):
            raise AssertionError("box point fell outside the half-open box")
        nums = [sum(map(mul, col, k)) for col in cols]
        if any(v % n for v in nums):
            raise AssertionError("box point is not a lattice point")
        out.append(tuple(v // n for v in nums))
    if len(set(out)) != abs(det(vmat)):
        raise AssertionError("parallelepiped enumeration lost coset representatives")
    return tuple(out)


def reference_triangulate(gens, dim: int):
    """cones.triangulate without its shortcut for independent generators:
    the pulling triangulation at the lexicographically smallest generator,
    after the pointedness check, on every cone."""
    if not cones.is_pointed(gens, dim):
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


def gens_with_invariant_factors(rng: random.Random, factors, dim: int):
    """Independent generators in Z^dim whose lattice of span coordinates has
    Smith invariant factors `factors` (a divisibility chain): the columns of
    U diag(factors) W, embedded by part of a unimodular basis of Z^dim."""
    d = len(factors)
    u, w = random_unimodular(rng, d), random_unimodular(rng, d)
    v = [[sum(u[i][k] * factors[k] * w[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    emb = random_unimodular(rng, dim)
    return tuple(
        tuple(sum(emb[r][i] * v[i][j] for i in range(d)) for r in range(dim)) for j in range(d)
    )


# -- The per-element capped lattice walk -------------------------------------
#
# capped_points yields every element of the capped lattice walk, one at a
# time; sublevel_points and _relint_test are its filters from singularities
# and fibration.  The cone scans are compared with them.


def capped_points(gens: tuple[Vec, ...], dim: int, m, capn: int, radius: int):
    """Lattice points x = b + Σ k_i g_i of the simplicial cone over gens, b a
    box point, as pairs (m·x, x); gens must be linearly independent.

    k_i runs up to min((capn - m·b) // m·g_i, radius) where m·g_i > 0, and
    up to radius where m·g_i <= 0.  The k are walked in itertools.product
    order.  A pair with m·x > capn is yielded as (m·x, None) without
    building the point, so that callers can still count it.
    """
    vals = [dot(m, g) for g in gens]
    cols = [tuple(g[j] for g in gens) for j in range(dim)]
    boxes = box_points(gens, dim)
    for b, base in zip(boxes, values_at(m, boxes)):
        ranges = []
        for v in vals:
            hi = min((capn - base) // v, radius) if v > 0 else radius
            ranges.append(range(hi + 1))
        for ks in product(*ranges):
            n = base + sum(map(mul, ks, vals))
            if n > capn:
                yield n, None
            else:
                yield n, tuple(c + sum(map(mul, ks, col)) for c, col in zip(b, cols))


def sublevel_points(f: Fan, a: PLFunction, cap: Fraction):
    """All nonzero lattice points of the support with A <= cap, each with
    the numerator ``den * A(x)`` for ``den = a.integral()[0]``,
    deduplicated; A must be positive at every ray, so that the radius capn
    bounds no multiple of a generator under the cap."""
    den, nums = a.integral()
    capn = math.floor(cap * den)
    seen = set()
    for m, simplices in zip(nums, _triangulated(f)):
        for simplex in simplices:
            for n, x in capped_points(f.cone_gens(simplex), f.rank, m, capn, capn):
                if x is None or is_zero(x) or x in seen:
                    continue
                seen.add(x)
                yield x, n


def _relint_test(eq_src, ineq_src):
    """Predicate x -> phi(x) in relint(tau), from the pulled-back rows
    (E M, F M) of tau = {E y = 0, F y >= 0} (``_pullback``).

    Relative interiors of the cones of a fan partition its support, so this
    is the same test as ``locate(f.target, f.apply(x)).cone == tau``.
    """

    def test(x) -> bool:
        return all(dot(m, x) == 0 for m in eq_src) and all(dot(m, x) > 0 for m in ineq_src)

    return test


# -- Fraction references for the integer-numerator scans --------------------
#
# The library evaluates A in its lattice-point scans as integer numerators
# over one common denominator.  These are the scans as they were written
# before, with one Fraction per point; the properties in
# test_integer_scans.py compare the two.


def _reference_simplex_points_below(f: Fan, simplex, fn, cap: Fraction):
    """Points b + Σ n_i g_i of the simplex with fn <= cap, b a box point, in
    walk order; n_i <= 1 on each generator where fn vanishes."""
    gens = f.cone_gens(simplex)
    vals = [Fraction(dot(fn, g)) for g in gens]
    for b in box_points(gens, f.rank):
        base = Fraction(dot(fn, b))
        if base > cap:
            continue
        bounds = [int((cap - base) / v) if v else 1 for v in vals]
        for ns in product(*(range(k + 1) for k in bounds)):
            if sum(n * v for n, v in zip(ns, vals)) + base > cap:
                continue
            x = b
            for n, g in zip(ns, gens):
                if n:
                    x = vec_add(x, vec_scale(n, g))
            yield x


def reference_sublevel_points(f: Fan, a, cap: Fraction):
    """Points of the support with A <= cap and their Fraction values."""
    seen = set()
    for c, fn, simplices in zip(f.max_cones, a.functionals, _triangulated(f)):
        for simplex in simplices:
            for x in _reference_simplex_points_below(f, simplex, fn, cap):
                if is_zero(x) or x in seen:
                    continue
                seen.add(x)
                yield x, Fraction(dot(fn, x))


def certified_search_radius(f: Fan, b: ToricDivisor, cap: Fraction) -> int:
    """A sup-norm radius R with {A <= cap} ∩ |fan| inside the R-ball;
    requires A positive at every ray."""
    a = log_discrepancy_function(f, b)
    radius = 0
    for fn, simplices in zip(a.functionals, _triangulated(f)):
        for simplex in simplices:
            gens = f.cone_gens(simplex)
            vals = [Fraction(dot(fn, g)) for g in gens]
            if any(v <= 0 for v in vals):
                raise DomainError("radius certificate needs positive ray values")
            bound = sum((Fraction(cap) / v) * max(abs(x) for x in g) for v, g in zip(vals, gens))
            radius = max(radius, int(bound) + 1)
    return radius


def reference_global_mld(f: Fan, b: ToricDivisor) -> MldReport:
    if not f.max_cones or not f.rays:
        raise DomainError("the fan has no rays to take discrepancies along")
    a = log_discrepancy_function(f, b)
    ray_vals = [1 - c for c in b.coeffs]
    count = len(f.rays)
    neg = next((i for i, v in enumerate(ray_vals) if v < 0), None)
    if neg is not None:
        return MldReport(MINUS_INFINITY, f.rays[neg], count, "minus_infinity")

    def key(val, x):
        return (val, max(abs(t) for t in x), x)

    best = min(key(Fraction(v), r) for v, r in zip(ray_vals, f.rays))
    for c, fn, simplices in zip(f.max_cones, a.functionals, _triangulated(f)):
        for simplex in simplices:
            for x in box_points(f.cone_gens(simplex), f.rank):
                if is_zero(x):
                    continue
                count += 1
                cand = key(Fraction(dot(fn, x)), x)
                if cand < best:
                    best = cand
    return MldReport(best[0], best[2], count, "exact")


def reference_mld_at_cone(f: Fan, b: ToricDivisor, tau) -> MldReport:
    tau = tuple(sorted(set(tau)))
    if not tau:
        raise DomainError("the minimal log discrepancy at a cone needs dimension >= 1")
    if not is_cone_of(f, tau):
        raise NotACone(f"{tau} is not a cone of the fan")
    a = log_discrepancy_function(f, b)
    fn = next(fn for c, fn in zip(f.max_cones, a.functionals) if set(tau) <= set(c))
    gens = f.cone_gens(tau)
    vals = [Fraction(dot(fn, g)) for g in gens]
    count = 0

    if any(v < 0 for v in vals):
        g_neg = gens[next(i for i, v in enumerate(vals) if v < 0)]
        w = relint_point(gens)
        while Fraction(dot(fn, w)) >= 0:
            w = vec_add(w, g_neg)
        return MldReport(MINUS_INFINITY, w, 1, "minus_infinity")

    p0 = relint_point(gens)
    cap = Fraction(dot(fn, p0))
    best_val, best_wit = cap, p0
    simplices = [tuple(tau[i] for i in t) for t in triangulate(gens, f.rank)]

    for simplex in simplices:
        for x in _reference_simplex_points_below(f, simplex, fn, cap):
            if is_zero(x) or not relint_contains(gens, f.rank, x):
                continue
            count += 1
            val = Fraction(dot(fn, x))
            if val < best_val:
                best_val, best_wit = val, x
    return MldReport(best_val, best_wit, count, "exact")


def _least_point(cands):
    """(value, x) of the candidate with the least value, ties going to the
    least sup-norm and then the lexicographically least x."""
    value, _, x = min((v, max(abs(t) for t in x), x) for v, x in cands)
    return value, x


def reference_relative_mld(
    f,
    b: ToricDivisor,
    tau_z,
    eps,
    radius: int = 10_000,
    budget: int = 2_000_000,
    spent: list | None = None,
):
    """relative_mld by LPs over cones cut by the double description and a
    per-element walk for the radius search, which charges every element of
    the walk to the budget; the number charged is appended to spent, if
    given, when the search runs."""
    eps = Fraction(eps)
    tau_z = tuple(sorted(set(int(i) for i in tau_z)))
    src, nz, nx = f.source, f.target.rank, f.source.rank
    a = log_discrepancy_function(src, b)
    tgens = f.target.cone_gens(tau_z)
    teq, tineq = hrep(tgens, nz)
    maps_into_relint = _relint_test(_pullback(f, teq), _pullback(f, tineq))

    relevant = []
    best = None
    for c, fn in zip(src.max_cones, a.functionals):
        gens = src.cone_gens(c)
        img = tuple(u for u in (f.apply(g) for g in gens) if not is_zero(u))
        for m in teq:
            img = cut(img, nz, m, 1)
            img = cut(img, nz, m, -1)
        for m in tineq:
            img = cut(img, nz, m, 1)
        if not img:
            continue
        pc = img[0]
        for g in img[1:]:
            pc = vec_add(pc, g)
        if is_zero(pc) or not relint_contains(tgens, nz, pc):
            continue
        res = solve_min(cone_lp(gens, f.matrix, pc, fn))
        if isinstance(res, Unbounded):
            d = primitive(scale_to_integer(res.direction))
            feas = solve_min(cone_lp(gens, f.matrix, pc, (0,) * nx))
            return Exact(MINUS_INFINITY, _descend(a, scale_to_integer(feas.point), d))
        v0 = primitive(scale_to_integer(res.point))
        val0 = a(v0)
        relevant.append((c, fn, gens, v0))
        key = (val0, max(abs(t) for t in v0), v0)
        if best is None or key < best:
            best = key
    if not relevant:
        raise NoCone("no cone maps onto the chosen base cone")
    cap, _, wit0 = best

    if all(1 - coeff > 0 for coeff in b.coeffs):
        cands = [(cap, wit0)]
        for x, val in reference_sublevel_points(src, a, cap):
            if maps_into_relint(x):
                cands.append((val, x))
        return Exact(*_least_point(cands))

    u0 = tineq[0]
    for m in tineq[1:]:
        u0 = vec_add(u0, m)
    u0_src = vec_mat(u0, f.matrix)
    lower = None
    for c, fn, gens, v0 in relevant:
        cg = gens
        for m in teq:
            row = vec_mat(m, f.matrix)
            cg = cut(cg, nx, row, 1)
            cg = cut(cg, nx, row, -1)
        for m in tineq:
            cg = cut(cg, nx, vec_mat(m, f.matrix), 1)
        res = solve_min(cone_lp(cg, (u0_src,), (1,), fn))
        if isinstance(res, Unbounded):
            return Exact(MINUS_INFINITY, _descend(a, v0, primitive(scale_to_integer(res.direction))))
        if res.value < 0:
            return Exact(MINUS_INFINITY, _descend(a, v0, primitive(scale_to_integer(res.point))))
        if lower is None or res.value < lower:
            lower = res.value
    if cap == lower:
        return Exact(lower, wit0)
    if lower >= eps:
        return CertifiedAtLeast(lower)

    found = [(cap, wit0)]
    searched = 0
    for c, fn, gens, _ in relevant:
        for t in triangulate(gens, nx):
            sgens = tuple(gens[i] for i in t)
            svals = [Fraction(dot(fn, g)) for g in sgens]
            for bpt in box_points(sgens, nx):
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
                    searched += 1
                    x = bpt
                    for n, g in zip(ns, sgens):
                        if n:
                            x = vec_add(x, vec_scale(n, g))
                    if not is_zero(x) and maps_into_relint(x):
                        found.append((Fraction(dot(fn, x)), x))
                    budget -= 1
                    if budget <= 0:
                        break
                if budget <= 0:
                    break
            if budget <= 0:
                break
        if budget <= 0:
            break
    if spent is not None:
        spent.append(searched)
    value, wit = _least_point(found)
    if not is_primitive(wit):
        wit = primitive(wit)
        value = a(wit)
    if value == lower:
        return Exact(value, wit)
    if value < eps:
        return Witness(wit, value)
    if budget <= 0:
        return BudgetExhausted(radius, searched)
    return Indeterminate(radius)


def reference_fiber_cones_minimum(f, a, w):
    """The final scan of verify_lc_complement_theorem, with A evaluated
    through PLFunction.__call__ at every point."""
    src = f.source
    worst = None
    worst_at = None
    for c in src.max_cones:
        gens = src.cone_gens(c)
        imgs = tuple(g for g in (f.apply(g) for g in gens) if not is_zero(g))
        if not contains(imgs, f.target.rank, w):
            continue
        points = list(gens)
        for simplex in triangulate(gens, src.rank):
            sgens = tuple(gens[i] for i in simplex)
            points.extend(p for p in box_points(sgens, src.rank) if not is_zero(p))
        for p in points:
            val = a(p)
            if worst is None or val < worst:
                worst, worst_at = val, p
    return worst, worst_at


def random_half_plane_fibration(rng: random.Random, extra_rank: int = 0) -> ToricMorphism:
    """A random proper fibration over the affine line: the rays (1, 0),
    (-1, 0) and one to three random primitive vectors in the open upper
    half-plane, with consecutive rays by angle spanning the cones, mapped to
    the second coordinate.  With extra_rank = 1 the source is multiplied by
    the fan of P1 first, giving a rank-3 source over the same base."""
    ups = set()
    while len(ups) < rng.randint(1, 3):
        v = (rng.randint(-5, 5), rng.randint(1, 4))
        if math.gcd(*v) == 1:
            ups.add(v)
    rays = [(1, 0)] + sorted(ups, key=lambda v: math.atan2(v[1], v[0])) + [(-1, 0)]
    src = fan(2, rays, [(i, i + 1) for i in range(len(rays) - 1)])
    if extra_rank:
        src = product_fan(p1(), src)
    return to_a1(src)


# The all-Fraction simplex and Gauss-Jordan eliminations that the
# fraction-free ratlp.simplex_min/solve_min, intlinalg.solve_exact and
# invert_rational (above) replaced, kept as differential references: same
# pivots, so the same results to the repr.


def reference_simplex_min(c, a, b):
    """min c.lam over {lam >= 0 : a lam = b}, exact two-phase simplex.

    Returns ("optimal", lam, y) with dual y, ("infeasible", y) with a Farkas
    vector (y.a <= 0 componentwise, y.b > 0), or ("unbounded", d) with a
    recession direction d >= 0, a d = 0, c.d < 0.
    """
    ncols = len(c)
    nrows = len(a)
    c = [Fraction(x) for x in c]
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    flip = [1] * nrows
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
            flip[i] = -1
    total = ncols + nrows
    t = [rows[i] + [Fraction(int(j == i)) for j in range(nrows)] + [rhs[i]] for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]
    cost = [Fraction(0)] * (total + 1)

    def pivot(r, col):
        pv = t[r][col]
        t[r] = [x / pv for x in t[r]]
        for i in range(nrows):
            if i != r and t[i][col]:
                f = t[i][col]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        f = cost[col]
        if f:
            cost[:] = [x - f * y for x, y in zip(cost, t[r])]
        basis[r] = col

    def run(allowed):
        while True:
            enter = next((j for j in allowed if cost[j] < 0), None)
            if enter is None:
                return None
            best = None
            for i in range(nrows):
                if t[i][enter] > 0:
                    ratio = t[i][total] / t[i][enter]
                    if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                        best = (ratio, i)
            if best is None:
                return enter
            pivot(best[1], enter)

    for j in range(total):
        art_cost = Fraction(1) if j >= ncols else Fraction(0)
        cost[j] = art_cost - sum(t[i][j] for i in range(nrows))
    cost[total] = -sum(t[i][total] for i in range(nrows))
    run(range(total))
    if -cost[total] > 0:
        y = tuple(flip[i] * (1 - cost[ncols + i]) for i in range(nrows))
        return ("infeasible", y)

    # pivot leftover artificials out on zero-rhs rows; rows whose x-part is
    # entirely zero are redundant and keep a harmless artificial at level 0
    for r in range(nrows):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if t[r][j] != 0), None)
            if col is not None:
                pivot(r, col)

    for j in range(total):
        cj = c[j] if j < ncols else Fraction(0)
        cost[j] = cj - sum((c[basis[i]] if basis[i] < ncols else 0) * t[i][j] for i in range(nrows))
    cost[total] = -sum((c[basis[i]] if basis[i] < ncols else 0) * t[i][total] for i in range(nrows))
    enter = run(range(ncols))
    if enter is not None:
        d = [Fraction(0)] * ncols
        d[enter] = Fraction(1)
        for i in range(nrows):
            if basis[i] < ncols:
                d[basis[i]] = -t[i][enter]
        return ("unbounded", tuple(d))
    lam = [Fraction(0)] * ncols
    for i in range(nrows):
        if basis[i] < ncols:
            lam[basis[i]] = t[i][total]
    y = tuple(flip[i] * -cost[ncols + i] for i in range(nrows))
    return ("optimal", tuple(lam), y)


def reference_solve_min(p: ConeLP) -> LPStatus:
    """Solve the cone program exactly; certificates are verified on return."""
    gens = p.generators
    k = len(p.eq_matrix)
    cols = [tuple(dot(row, g) for row in p.eq_matrix) for g in gens]
    chat = [Fraction(dot(p.objective, g)) for g in gens]
    a = [[cols[j][i] for j in range(len(gens))] for i in range(k)]
    res = reference_simplex_min(chat, a, p.rhs)
    if res[0] == "infeasible":
        y = res[1]
        if any(dot(y, col) > 0 for col in cols) or dot(y, p.rhs) <= 0:
            raise AssertionError("invalid infeasibility certificate")
        return Infeasible(certificate=y)
    if res[0] == "unbounded":
        d = res[1]
        if (
            any(x < 0 for x in d)
            or any(sum(d[j] * cols[j][i] for j in range(len(gens))) != 0 for i in range(k))
            or dot(chat, d) >= 0
        ):
            raise AssertionError("invalid unboundedness direction")
        xdir = tuple(sum(d[j] * g[i] for j, g in enumerate(gens)) for i in range(len(p.objective)))
        return Unbounded(direction=xdir, multipliers=d)
    _, lam, y = res
    value = dot(chat, lam)
    point = tuple(sum(lam[j] * g[i] for j, g in enumerate(gens)) for i in range(len(p.objective)))
    ok = (
        all(x >= 0 for x in lam)
        and all(sum(lam[j] * cols[j][i] for j in range(len(gens))) == p.rhs[i] for i in range(k))
        and all(dot(y, cols[j]) <= chat[j] for j in range(len(gens)))
        and dot(y, p.rhs) == value
    )
    if not ok:
        raise AssertionError("optimal result failed its duality check")
    return Optimal(value=Fraction(value), point=point, multipliers=lam, dual=y)


def reference_solve_exact_fractions(a, b):
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


def reference_invert_rational(m):
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

# The verify_* harnesses as they were before they shared one prologue and
# one relative-mld gate, kept verbatim apart from their names so a sweep can
# compare every report field with theirs.


def _reference_unpack(f, b, tau_z):
    if isinstance(f, FamilyInstance):
        inst = f
        if b is None:
            b = zero_divisor(inst.x)
        if tau_z is None:
            tau_z = (0,)
        return inst.f, b, tau_z
    if b is None or tau_z is None:
        raise DomainError("b and tau_z are required unless a family instance is given")
    return f, b, tau_z


def _reference_rel_mld_check(res, eps, hypotheses, measurements, witnesses) -> bool:
    """Hypothesis gate: is res, the relative mld over the base cone, at
    least eps?  Appends the gate, what was measured and any witness to the
    report lists, and returns the gate's outcome."""
    if isinstance(res, Exact):
        ok = res.value is not MINUS_INFINITY and res.value >= eps
        measurements.append(("relative_mld", res.value))
        witnesses.append(("relative_mld_witness", res.witness))
    elif isinstance(res, CertifiedAtLeast):
        ok = res.bound >= eps
        measurements.append(("relative_mld_lower_bound", res.bound))
    elif isinstance(res, Witness):
        ok = False
        measurements.append(("relative_mld_upper_bound", res.value))
        witnesses.append(("relative_mld_witness", res.v))
    elif isinstance(res, BudgetExhausted):
        ok = False
        measurements.append(("relative_mld_search_budget_exhausted_after", res.searched))
    else:
        assert isinstance(res, Indeterminate)
        ok = False
        measurements.append(("relative_mld_search_radius", res.radius))
    hypotheses.append(("relative_mld_at_least_eps", ok))
    return ok


def reference_verify_fano_contraction_theorem(
    f, b=None, tau_z=None, eps: Rat = Fraction(1, 2), radius: int = 10_000
) -> VerificationReport:
    """Check that an eps-relatively-lc fibration has fiber multiplicities
    at most 1/delta(r, eps) over the given base ray, and that the base
    itself is delta(r, eps)-lc there when its canonical class allows the
    comparison."""
    check_radius(radius)
    f, b, tau_z = _reference_unpack(f, b, tau_z)
    eps = Fraction(eps)
    if len(tau_z) != 1:
        raise DomainError("multiplicities are read off over a ray of the base")
    diag = validate_morphism(f)
    r = diag.relative_dimension
    d = delta(r, eps)
    bound = 1 / d
    hypotheses, witnesses, claims = [], [], []
    measurements = [("delta", d), ("multiplicity_bound", bound)]
    res = relative_mld(f, b, tau_z, eps, radius=radius)
    hyp_ok = _reference_rel_mld_check(res, eps, hypotheses, measurements, witnesses)
    if hyp_ok:
        pulls = pullback_multiplicities(f, tau_z[0])
        mults = tuple(c for _, c in pulls)
        measurements.append(("multiplicities", mults))
        witnesses.append(("pullback_rays", tuple(v for v, _ in pulls)))
        claims.append(("multiplicities_at_most_inverse_delta", all(c <= bound for c in mults)))
        target = f.target
        try:
            rep = mld_at_cone(target, zero_divisor(target), tau_z)
        except NotQCartier:
            rep = None
        measurements.append(("base_q_gorenstein", rep is not None))
        if rep is not None:
            measurements.append(("base_mld", rep.value))
            ok = rep.value is not MINUS_INFINITY and rep.value >= d
            claims.append(("base_mld_at_least_delta", ok))
            if rep.witness is not None:
                witnesses.append(("base_mld_witness", rep.witness))
    return VerificationReport(
        hypotheses=tuple(hypotheses),
        claims=tuple(claims),
        measurements=tuple(measurements),
        witnesses=tuple(witnesses),
    )


def reference_verify_adjunction_theorem(
    f,
    b=None,
    tau_z=None,
    eps: Rat = Fraction(1, 2),
    probes: tuple[Vec, ...] = (),
    radius: int = 10_000,
) -> VerificationReport:
    """Check that after averaging the boundary with the full invariant
    boundary at weight 1/r!, the induced base pair is delta(r, eps)-lc at
    tau_z, and at any probed exceptional rays over the base."""
    check_radius(radius)
    f, b, tau_z = _reference_unpack(f, b, tau_z)
    eps = Fraction(eps)
    diag = validate_morphism(f)
    r = diag.relative_dimension
    if r < 1:
        raise DomainError("the fibration must have positive relative dimension")
    d = delta(r, eps)
    measurements = [("delta", d)]
    witnesses, claims = [], []
    rt = rel_trivial_witness(f, b)
    hypotheses = [("pair_trivial_over_base", rt is not None)]
    hyp_ok = rt is not None and _reference_rel_mld_check(
        relative_mld(f, b, tau_z, eps, radius), eps, hypotheses, measurements, witnesses
    )
    if hyp_ok:
        alpha = Fraction(1, factorial(r))
        gamma = average_boundary(b, f.source, alpha)
        measurements.append(("alpha", alpha))
        disc = discriminant_divisor(f, gamma)
        measurements.append(("base_boundary", disc.divisor.coeffs))
        rep = mld_at_cone(f.target, disc.divisor, tau_z)
        measurements.append(("base_mld", rep.value))
        ok = rep.value is not MINUS_INFINITY and rep.value >= d
        claims.append(("base_mld_at_least_delta", ok))
        if rep.witness is not None:
            witnesses.append(("base_mld_witness", rep.witness))
        for p in probes:
            p = tuple(int(x) for x in p)
            sub = star_subdivision(f.target, p)
            # triviality over the base is inherited by refinements, so only the
            # per-ray thresholds need recomputing on the finer fan
            lifted = ToricMorphism(matrix=f.matrix, source=f.source, target=sub)
            disc2 = divisor(sub, [1 - t for t in lc_thresholds(lifted, gamma)])
            idx = sub.rays.index(p)
            rep2 = mld_at_cone(sub, disc2, (idx,))
            label = "probe_" + ",".join(str(x) for x in p)
            measurements.append((label + "_mld", rep2.value))
            ok2 = rep2.value is not MINUS_INFINITY and rep2.value >= d
            claims.append((label + "_mld_at_least_delta", ok2))
    return VerificationReport(
        hypotheses=tuple(hypotheses),
        claims=tuple(claims),
        measurements=tuple(measurements),
        witnesses=tuple(witnesses),
    )


def reference_verify_lc_complement_theorem(
    f,
    b_toric: ToricDivisor,
    b_plus: ToricDivisor,
    tau_z,
    eps: Rat,
    radius: int = 10_000,
) -> VerificationReport:
    """Check that adding delta(r, eps) times the fiber over the base ray
    to the smaller boundary keeps log discrepancies nonnegative on every
    cone whose image contains that ray."""
    check_radius(radius)
    if isinstance(f, FamilyInstance):
        f = f.f
    eps = Fraction(eps)
    if len(tau_z) != 1:
        raise DomainError("the fiber is taken over a ray of the base")
    diag = validate_morphism(f)
    r = diag.relative_dimension
    if r < 1:
        raise DomainError("the fibration must have positive relative dimension")
    d = delta(r, eps)
    measurements = [("delta", d)]
    witnesses, claims = [], []
    below = all(s <= t for s, t in zip(b_toric.coeffs, b_plus.coeffs))
    hypotheses = [("boundary_below_auxiliary", below)]
    rt = rel_trivial_witness(f, b_plus)
    hypotheses.append(("auxiliary_trivial_over_base", rt is not None))
    hyp_ok = below and rt is not None and _reference_rel_mld_check(
        relative_mld(f, b_plus, tau_z, eps, radius), eps, hypotheses, measurements, witnesses
    )
    if hyp_ok:
        src = f.source
        w = f.target.rays[tau_z[0]]
        pulls = dict(pullback_multiplicities(f, tau_z[0]))
        coeffs = tuple(
            bc + d * pulls.get(v, 0) for bc, v in zip(b_toric.coeffs, src.rays)
        )
        bprime = divisor(src, coeffs)
        measurements.append(("augmented_coeffs", coeffs))
        worst, worst_at = _fiber_cones_minimum(f, log_discrepancy_function(src, bprime), w)
        claims.append(("lc_after_adding_delta_fiber", worst is not None and worst >= 0))
        measurements.append(("minimum_log_discrepancy_found", worst))
        if worst_at is not None:
            witnesses.append(("minimum_at", worst_at))
    return VerificationReport(
        hypotheses=tuple(hypotheses),
        claims=tuple(claims),
        measurements=tuple(measurements),
        witnesses=tuple(witnesses),
    )
