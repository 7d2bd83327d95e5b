"""Toric divisors and piecewise-linear support data.

A divisor is one exact rational coefficient per ray.  All discrepancy data
is carried by the PL function A with A(ray v_i) = 1 - b_i; the canonical
divisor itself is never materialized.

``log_discrepancy_function`` is cached per (fan, divisor), so every query
on one pair shares one A.  ``rel_trivial_witness`` builds the rows of its
gluing system once per morphism (``_gluing_system``, a bounded cache); each
call builds the right-hand side from A, solves, and re-verifies the witness
in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from . import cones
from .errors import NotQCartier, OutsideSupport, ValidationError
from .fans import Fan, _walls
from .intlinalg import Vec, clear_denominators, dot, mat_vec, solve_exact

QVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class ToricDivisor:
    fan: Fan
    coeffs: QVec


def divisor(f: Fan, coeffs) -> ToricDivisor:
    coeffs = tuple(Fraction(c) for c in coeffs)
    if len(coeffs) != len(f.rays):
        raise ValidationError(
            (("LengthMismatch", f"{len(coeffs)} coefficients for {len(f.rays)} rays"),)
        )
    return ToricDivisor(fan=f, coeffs=coeffs)


def boundary_divisor(f: Fan) -> ToricDivisor:
    """The reduced sum of all torus-invariant prime divisors."""
    return divisor(f, (Fraction(1),) * len(f.rays))


def zero_divisor(f: Fan) -> ToricDivisor:
    return divisor(f, (Fraction(0),) * len(f.rays))


@dataclass(frozen=True)
class PLFunction:
    """A functional per maximal cone, linear on each cone and matching on
    shared faces; positively homogeneous of degree one by construction."""

    fan: Fan
    functionals: tuple[QVec, ...]

    def integral(self, values=()) -> tuple[int, tuple[Vec, ...]]:
        """The function as integer numerators over one denominator.

        ``(den, nums)`` with ``nums[k] = den * functionals[k]``, so on the
        k-th maximal cone the value at a lattice point x is
        ``Fraction(dot(nums[k], x), den)``.  ``den`` is the lcm of the
        denominators of every functional entry and of the rationals in
        ``values``, so ``den * v`` is an integer for each of those too: pass
        the ray values when they are compared with A's values, since a ray
        in no maximal cone has a value the functionals do not fix.
        """
        den = math.lcm(
            *(x.denominator for fn in self.functionals for x in fn),
            *(Fraction(v).denominator for v in values),
        )
        nums = tuple(
            tuple(x.numerator * (den // x.denominator) for x in fn) for fn in self.functionals
        )
        return den, nums

    @cached_property
    def _pieces(self):
        """(den, per maximal cone (rows, numerators)): the cone is
        {r·x >= 0 for r in rows}, its integer H-representation with each
        equation taken with both signs, and the functional is numerators
        over den, as ``integral()`` gives it.  Kept on the instance, outside
        the dataclass fields."""
        den, nums = self.integral()
        f = self.fan
        pieces = []
        for c, m in zip(f.max_cones, nums):
            eqs, ineqs = cones.hrep(f.cone_gens(c), f.rank)
            pieces.append((eqs + tuple(tuple(-x for x in e) for e in eqs) + ineqs, m))
        return den, tuple(pieces)

    def __call__(self, v):
        """A(v) on the first maximal cone containing v, found by integer
        row tests."""
        den, pieces = self._pieces
        for rows, m in pieces:
            for r in rows:
                if sum(map(mul, r, v)) < 0:
                    break
            else:
                return Fraction(sum(map(mul, m, v)), den)
        raise OutsideSupport(f"{v} is outside the fan support")


def pl_function(f: Fan, functionals) -> PLFunction:
    # entries that are Fractions already, as solve_exact returns, are kept
    functionals = tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in fn) for fn in functionals
    )
    if len(functionals) != len(f.max_cones):
        raise ValidationError((("LengthMismatch", "one functional per maximal cone"),))
    # ray -> (numerator, denominator) of its value on the first maximal cone
    # containing it; values are compared cross-multiplied
    first = {}
    for fn, c in zip(functionals, f.max_cones):
        nums, den = clear_denominators(fn)
        for i in c:
            n = dot(nums, f.rays[i])
            n0, d0 = first.setdefault(i, (n, den))
            if n0 * den != n * d0:
                msg = f"cones disagree at shared ray {i}: {Fraction(n0, d0)} vs {Fraction(n, den)}"
                raise ValidationError((("WallMismatch", msg),))
    return PLFunction(fan=f, functionals=functionals)


def support_function(f: Fan, ray_values) -> PLFunction | None:
    """The PL function with prescribed ray values, or None when some maximal
    cone admits no linear functional with those values."""
    ray_values = tuple(x if type(x) is Fraction else Fraction(x) for x in ray_values)
    functionals = []
    for c in f.max_cones:
        gens = f.cone_gens(c)
        sol = solve_exact(gens, tuple(ray_values[i] for i in c))
        if sol is None:
            return None
        functionals.append(sol if gens else (Fraction(0),) * f.rank)
    return pl_function(f, functionals)


@lru_cache(maxsize=1024)
def log_discrepancy_function(f: Fan, b: ToricDivisor) -> PLFunction:
    """The PL function A with A(v_i) = 1 - b_i; exists iff K+B is R-Cartier.
    Cached: the key is value-equal and the PLFunction immutable."""
    a = support_function(f, tuple(1 - c for c in b.coeffs))
    if a is None:
        raise NotQCartier("no linear functional interpolates 1 - b on some cone")
    return a


def is_q_cartier(f: Fan, d: ToricDivisor) -> PLFunction | None:
    """The support function with psi(v_i) = -d_i when it exists."""
    return support_function(f, tuple(-c for c in d.coeffs))


@dataclass(frozen=True)
class RelTrivialWitness:
    """A(v) = <m, v> + ell(phi(v)) on the whole source support."""

    m: QVec
    ell: PLFunction


def rel_trivial_witness(f, b: ToricDivisor) -> RelTrivialWitness | None:
    """Decide K+B ~ 0 over the base by exact linear feasibility.

    f is a toric morphism (matrix, source, target).  The unknowns are a
    global functional m on the source lattice and one functional per
    maximal target cone, glued PL; constraints are the ray values of A and
    agreement of the gluing at shared target rays.  The system's rows come
    from ``_gluing_system(f)``, its right-hand side (A at each source cone's
    generators, then 0 per gluing row) from A.
    """
    den, nums = log_discrepancy_function(f.source, b).integral()
    rows, cone_rays, nglue = _gluing_system(f)
    nx, nz = f.source.rank, f.target.rank
    rhs = [Fraction(dot(num, g), den) for num, rays in zip(nums, cone_rays) for g, _, _ in rays]
    rhs += [0] * nglue
    sol = solve_exact(rows, tuple(rhs))
    if sol is None:
        return None
    m = sol[:nx]
    nzc = len(f.target.max_cones)
    ell = pl_function(f.target, tuple(sol[nx + k * nz : nx + (k + 1) * nz] for k in range(nzc)))
    # A(g) = m·g + ell(w), w = phi(g), with ell taken on the first maximal
    # target cone holding w, cross-multiplied in integers:
    # num·g / den = mnum·g / mden + lnum·w / lden
    mnum, mden = clear_denominators(m)
    ell_cleared = [clear_denominators(fn) for fn in ell.functionals]
    for num, rays in zip(nums, cone_rays):
        for g, w, k in rays:
            lnum, lden = ell_cleared[k]
            if dot(num, g) * mden * lden != den * (dot(mnum, g) * lden + dot(lnum, w) * mden):
                raise AssertionError("relative-triviality witness failed verification")
    return RelTrivialWitness(m=m, ell=ell)


@lru_cache(maxsize=1024)
def _gluing_system(f):
    """The rows of rel_trivial_witness's system, which depend on f alone.

    Returns (rows, cone_rays, nglue).  Row (g, 0.., w, 0..) puts the
    image w = phi(g) of each generator g of each maximal source cone in the
    slot of the first maximal target cone holding that cone's image; the
    nglue rows after them equate the functionals of two maximal target
    cones at each target ray they share.  cone_rays lists, per maximal
    source cone, (g, w, k) with k the first maximal target cone holding w.
    """
    src, tgt = f.source, f.target
    nx, nz = src.rank, tgt.rank
    zcones = tgt.max_cones
    width = nx + nz * len(zcones)

    def target_cone_index(image_gens):
        for k, zc in enumerate(zcones):
            zg = tgt.cone_gens(zc)
            if all(cones.contains(zg, nz, w) if nz else True for w in image_gens):
                return k
        raise OutsideSupport("source cone maps outside the target fan")

    rows, cone_rays = [], []
    for c in src.max_cones:
        gens = src.cone_gens(c)
        images = [mat_vec(f.matrix, g) for g in gens]
        k = target_cone_index(images)
        for g, w in zip(gens, images):
            row = [0] * width
            row[:nx] = g
            row[nx + k * nz : nx + (k + 1) * nz] = w
            rows.append(tuple(row))
        cone_rays.append(tuple((g, w, target_cone_index((w,))) for g, w in zip(gens, images)))
    nglue = 0
    for k1 in range(len(zcones)):
        for k2 in range(k1 + 1, len(zcones)):
            for i in set(zcones[k1]) & set(zcones[k2]):
                row = [0] * width
                w = tgt.rays[i]
                for j in range(nz):
                    row[nx + k1 * nz + j] += w[j]
                    row[nx + k2 * nz + j] -= w[j]
                rows.append(tuple(row))
                nglue += 1
    return tuple(rows), tuple(cone_rays), nglue


def is_ample_over(f, d: ToricDivisor) -> bool:
    """Strict convexity of -psi_D across every interior wall of the source."""
    src = f.source
    psi = is_q_cartier(src, d)
    if psi is None:
        raise NotQCartier("the divisor is not Q-Cartier")
    fun = {c: psi.functionals[i] for i, c in enumerate(src.max_cones)}
    for key, cs in _walls(src).items():
        if len(cs) != 2:
            continue
        for ca, cb in ((cs[0], cs[1]), (cs[1], cs[0])):
            for i in cb:
                if i in key:
                    continue
                g = src.rays[i]
                if dot(fun[ca], g) <= dot(fun[cb], g):
                    return False
    return True
