"""Shared fixture builders for the test suite."""

import math
import random
from itertools import product

from toricmld.cones import barycentric, span_coordinates, span_lattice_basis
from toricmld.divisors import ToricDivisor, divisor
from toricmld.errors import NotACone
from toricmld.fans import Fan, fan, star_subdivision
from toricmld.fibration import ToricMorphism, morphism
from toricmld.intlinalg import (
    identity,
    invert_rational,
    mat_vec,
    primitive,
    rank,
    smith_normal_form,
    transpose,
    unimodular_inverse,
    vec_sub,
)


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
    then a unimodular change of coordinates."""
    seeds2 = [p2, p112, p123, a2, blowup_p2]
    seeds3 = [p3, a3, lambda: product_fan(p2(), a1()), lambda: product_fan(p1(), a2())]
    seeds1 = [p1, a1]
    pool = seeds1 + seeds2 + (seeds3 if max_rank >= 3 else [])
    f = rng.choice(pool)()
    for _ in range(rng.randrange(subdivisions + 1)):
        f = star_subdivision(f, random_support_point(rng, f))
    return twist_fan(f, random_unimodular(rng, f.rank))


def twist_fan(f: Fan, u) -> Fan:
    """The fan f in the coordinates x -> u x, for a unimodular u."""
    return fan(f.rank, [mat_vec(u, r) for r in f.rays], f.max_cones)


def twist_divisor(b: ToricDivisor, u) -> ToricDivisor:
    """The divisor b carried ray by ray onto twist_fan(b.fan, u)."""
    tw = twist_fan(b.fan, u)
    by_ray = {mat_vec(u, r): c for r, c in zip(b.fan.rays, b.coeffs)}
    return divisor(tw, [by_ray[r] for r in tw.rays])


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
    coefficients from an exact rational solve per point."""
    d = len(gens)
    if d == 0:
        return (((0,) * dim, ()),)
    if rank(tuple(gens)) != d:
        raise NotACone("parallelepiped needs independent generators")
    basis = span_lattice_basis(gens, dim)
    gens_d = tuple(span_coordinates(basis, g) for g in gens)
    out = []
    for x_d in _reference_box_points_full(transpose(gens_d)):
        x = tuple(sum(x_d[i] * basis[i][j] for i in range(d)) for j in range(dim))
        out.append((x, barycentric(gens, x)))
    return tuple(out)


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
