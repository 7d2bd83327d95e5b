"""Seeded workloads of the toricmld benchmark.

The benchmark has two workloads, ``invariants`` and ``construct_cli``
(see ``workloads`` at the end).  Each is a single-caller closed loop over
rounds of operations, and each round runs a fixed number of consecutive
operations of each of two parts in turn:

* invariants: mld_sweep (lattice-point enumeration, cold caches), then
  fibration_verify (relative mld, LPs and fans.locate, hot caches);
* construct_cli: construct_validate (DD and HNF while building and
  validating objects), then cli_pipeline (subprocess CLI pipes).

Interleaving the parts in short rounds makes a change in the host's speed
during a run fall on both parts alike.

Within a part, the order of operation *kinds* and instance sizes is a
fixed schedule shared by all seeds; the seed picks the coordinates (a
GL_n(Z) change of basis), boundary coefficients, eps values, cones and
search radii.  That keeps the cost mix of every seed the same, so runs
with different seeds are comparable, while the inputs themselves differ.

Each part provides ``build`` (input generation), ``run`` (one
operation), ``check`` (a cheap independent check of every output) and
``deep_check`` (an expensive independent check, run on the first few
operations of the part in a run).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

# Rationals in [0, 1) used for boundary coefficients.
COEFFS = tuple(sorted({Fraction(0)} | {Fraction(k, d) for d in range(2, 7) for k in range(1, d)}))


class Op:
    """One operation: a library call with its arguments, plus what the
    checks need to know about how the input was made."""

    __slots__ = ("kind", "call", "args", "kwargs", "spec", "ctx")

    def __init__(self, kind, call, args, spec, ctx=None, kwargs=None):
        self.kind = kind
        self.call = call  # (module, function) looked up at call time
        self.args = args
        self.kwargs = kwargs or {}
        self.spec = spec  # JSON-able description, hashed into the run header
        self.ctx = ctx or {}


# -- canonical output form -------------------------------------------------


def canon(x):
    """A JSON-able canonical form of a library result."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if type(x).__name__ == "_MinusInfinity":
        return "-inf"
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        out = {"_": type(x).__name__}
        for f in dataclasses.fields(x):
            out[f.name] = canon(getattr(x, f.name))
        return out
    raise TypeError(f"cannot canonicalize {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- exact helpers independent of the library ------------------------------


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def unimodular(rng: random.Random, n: int):
    """A seeded unimodular matrix with small entries and its inverse."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # row_j += c row_i on m; the inverse gets col_i -= c col_j
        m[j] = [a + c * b for a, b in zip(m[j], m[i])]
        for row in inv:
            row[i] -= c * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = tuple(tuple(signs[k] * m[perm[k]][j] for j in range(n)) for k in range(n))
    # u = S P m, so u^-1 = m^-1 P^T S
    uinv = tuple(
        tuple(inv[i][perm[k]] * signs[k] for k in range(n)) for i in range(n)
    )
    assert mat_mul(u, uinv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return u, uinv


def u_sequence(k: int, q: int) -> int:
    u = q
    for _ in range(k - 1):
        u = u * (u + 1)
    return u


def delta(r: int, eps: Fraction) -> Fraction:
    denom = 2 ** (2**r - 1)
    for i in range(1, r + 1):
        denom *= i ** (2**i)
    return Fraction(eps) ** (2**r) / denom


def family_rays(r: int, q: int):
    """Rays and maximal cones of the extremal family's source fan."""
    n = r + 1
    rays = []
    for i in range(r):
        u = u_sequence(i + 1, q)
        rays.append(tuple((1 + u if j == i else 0) - (q if j < r else 0) for j in range(n)))
    rays.append(tuple(-1 if j < r else 0 for j in range(n)))
    last = u_sequence(r + 1, q) - 1
    rays.append(tuple(last if j == r else -q for j in range(n)))
    cones = [s + (n,) for s in combinations(range(n), r)]
    return rays, cones


def wps_rays(weights):
    """Rays and cones of the fake weighted projective fan: e_1..e_n and the
    primitive vector along -w."""
    n = len(weights)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(primitive(tuple(-w for w in weights)))
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    return rays, cones


def product_rays(a, b):
    (ra, ca), (rb, cb) = a, b
    na, nb = len(ra[0]), len(rb[0])
    rays = [r + (0,) * nb for r in ra] + [(0,) * na + s for s in rb]
    cones = [tuple(x) + tuple(len(ra) + j for j in y) for x in ca for y in cb]
    return rays, cones


P1 = ([(1,), (-1,)], [(0,), (1,)])
A1 = ([(1,)], [(0,)])


def build_fan(lib, rays, cones, u=None, check=False):
    """Fan through u (if given); returns the fan and old->new ray index."""
    rank = len(rays[0])
    moved = [mat_vec(u, r) for r in rays] if u is not None else [tuple(r) for r in rays]
    f = lib.fans.fan(rank, moved, cones, check=check)
    index = {r: i for i, r in enumerate(f.rays)}
    return f, [index[r] for r in moved]


def cone_point(f, cone, coeffs):
    """The lattice point sum(coeffs[k] * ray[cone[k]])."""
    return tuple(sum(c * f.rays[i][j] for c, i in zip(coeffs, cone)) for j in range(f.rank))


def remap(values, perm, n):
    out = [None] * n
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def rand_coeffs(rng, n):
    return [rng.choice(COEFFS) for _ in range(n)]


def fr(x) -> str:
    return str(Fraction(x))


class Workload:
    name = ""
    n_inputs = 0
    deep_ops = 6  # deep checks run on this many leading operations
    # consecutive operations of this part in one round of a Mixed workload:
    # whole rounds of the part's schedule, so every round has the same mix
    round_ops = 1

    def _rng_key(self, seed, warm):
        # warm-up inputs are the same for every seed (so set-up cost does not
        # depend on it) and come from a stream the timed inputs never use
        return f"{self.name}:warm" if warm else f"{self.name}:{seed}:timed"

    def run(self, lib, op):
        mod, fn = op.call
        return getattr(getattr(lib, mod), fn)(*op.args, **op.kwargs)

    def canon_out(self, op, out):
        """The part of an output that must be reproducible."""
        return out

    def check(self, lib, op, out):
        return None

    def deep_check(self, lib, op, out):
        return None


# -- mld_sweep ---------------------------------------------------------------


class MldSweep(Workload):
    """Distinct (X, B) pairs through global_mld, mld_at_cone and is_eps_lc.

    Nearly all time is cones.box_points -> barycentric ->
    intlinalg.solve_exact; every fan is new, so the library's caches stay
    cold, and there are no LPs or DD cuts.
    """

    name = "mld_sweep"
    n_inputs = 1000
    round_ops = 11  # one round of SCHEDULE, about 1.2 s
    # Cost classes, laid out so that the median latency falls inside "mid"
    # and the p90 inside "top" rather than between classes: 36% cheap
    # (small, wps, star, f2face), 36% mid (mid, f2), 9% f2max, 18% top.
    # Every round of SCHEDULE costs about the same: enumeration grows like
    # q^2, and each round takes its top q values as a pair with the same sum
    # of squares and its mid q values as one whole cycle; f2 alternates two
    # kinds of equal cost.  That keeps the cost of a round of the mix free
    # of a cycle.  "mid" spans few q values so that the median latency sits
    # in a class of nearly equal costs.
    SCHEDULE = ("top", "mid", "wps", "mid", "f2", "small", "top", "mid", "star", "f2max", "f2face")
    WARM = ("small", "wps", "star", "f2face", "mid", "f2", "small", "wps", "star", "f2face")
    KINDS4 = ("global", "at_max", "eps_lc", "at_face")
    F1 = {  # class -> (q cycle, kind cycle) on example_family(1, q)
        "top": ((34, 40, 35, 39, 36, 38, 37, 37), ("global", "eps_lc")),
        "mid": ((19, 20, 21), ("global", "eps_lc")),
        "small": (tuple(range(2, 11)), KINDS4),
    }
    # (q, kind, cone as indices into family_rays(2, q)) on example_family(2, q)
    F2 = {
        "f2": ((2, "global", None), (2, "eps_lc", None)),
        "f2max": ((2, "at", (1, 2, 3)),),
        "f2face": ((3, "at", (0, 2)), (4, "at", (0, 1)), (3, "at", (0, 1)), (4, "at", (1, 3))),
    }

    def build(self, lib, seed, warm=False):
        rng = random.Random(self._rng_key(seed, warm))
        fam2 = {q: family_rays(2, q) for q in (2, 3, 4)}
        stars = [self._star_base(lib, rng, rank) for rank in (2, 3, 2, 3)]
        ops, seen = [], set()
        counters = {}
        schedule = self.WARM if warm else self.SCHEDULE
        n = len(self.WARM) if warm else self.n_inputs
        while len(ops) < n:
            slot = schedule[len(ops) % len(schedule)]
            k = counters.get(slot, 0)
            counters[slot] = k + 1
            cone = None
            if slot in self.F1:
                qs, kinds = self.F1[slot]
                # the kind pairing shifts on every pass through the q cycle
                q, kind = qs[k % len(qs)], kinds[(k + k // len(qs)) % len(kinds)]
                base, spec_base = family_rays(1, q), ["f1", q]
            elif slot in self.F2:
                q, kind, cone = self.F2[slot][k % len(self.F2[slot])]
                base, spec_base = fam2[q], ["f2", q]
            elif slot == "wps":
                rank = 2 + k % 2
                weights = [rng.randrange(1, 5) for _ in range(rank)]
                base, spec_base = wps_rays(weights), ["wps", weights]
                kind = self.KINDS4[k % 4]
            else:
                base, spec_base = stars[k % len(stars)], ["star", k % len(stars)]
                kind = self.KINDS4[k % 4]
            ops.append(self._make(lib, rng, base, kind, cone, spec_base, seen))
        return ops

    def _star_base(self, lib, rng, rank):
        rays, cones = wps_rays([rng.randrange(1, 4) for _ in range(rank)])
        f = lib.fans.fan(rank, rays, cones)
        for _ in range(2):
            c = rng.choice(f.max_cones)
            v = cone_point(f, c, [rng.randrange(1, 3) for _ in c])
            f = lib.fans.star_subdivision(f, primitive(v))
        return [list(r) for r in f.rays], [list(c) for c in f.max_cones]

    def _make(self, lib, rng, base, kind, cone, spec_base, seen):
        rays, cones = base
        rank = len(rays[0])
        while True:
            u, _ = unimodular(rng, rank)
            coeffs = rand_coeffs(rng, len(rays))
            key = (tuple(map(tuple, (mat_vec(u, r) for r in rays))), tuple(coeffs), kind)
            if key not in seen:
                seen.add(key)
                break
        f, perm = build_fan(lib, rays, cones, u)
        b = lib.divisors.divisor(f, remap(coeffs, perm, len(rays)))
        if kind in ("at_max", "at_face"):
            c = list(rng.choice(cones))
            if kind == "at_face" and len(c) > 1:
                c = sorted(rng.sample(c, rng.randrange(1, len(c))))
            cone = tuple(c)
        spec = {"base": spec_base, "u": u, "coeffs": [fr(c) for c in coeffs], "kind": kind}
        ctx = {"rays": rays, "cones": cones, "coeffs": coeffs, "cone": cone}
        if kind == "global":
            return Op(kind, ("singularities", "global_mld"), (f, b), spec, ctx)
        if kind == "eps_lc":
            eps = Fraction(1, rng.randrange(1, 60))
            spec["eps"] = fr(eps)
            ctx["eps"] = eps
            return Op(kind, ("singularities", "is_eps_lc"), (f, b, eps), spec, ctx)
        spec["cone"] = list(cone)
        new_cone = tuple(sorted(perm[i] for i in cone))
        return Op(kind, ("singularities", "mld_at_cone"), (f, b, new_cone), spec, ctx)

    def check(self, lib, op, out):
        if op.kind == "eps_lc":
            return None if isinstance(out, bool) else "is_eps_lc returned a non-bool"
        f, b = op.args[0], op.args[1]
        if out.status != "exact" or out.witness is None:
            return f"status {out.status} with coefficients below 1"
        if lib.singularities.log_discrepancy(f, b, out.witness) != out.value:
            return "witness does not re-evaluate to the reported value"
        if op.kind != "global":
            gens = f.cone_gens(op.args[2])
            if not lib.cones.relint_contains(gens, f.rank, out.witness):
                return "witness is not in the relative interior of the cone"
        return None

    def deep_check(self, lib, op, out):
        ctx = op.ctx
        f0, perm0 = build_fan(lib, ctx["rays"], ctx["cones"])
        b0 = lib.divisors.divisor(f0, remap(ctx["coeffs"], perm0, len(ctx["rays"])))
        if op.kind == "eps_lc":
            ref = lib.singularities.is_eps_lc(f0, b0, ctx["eps"])
            return None if ref == out else "is_eps_lc changed under GL_n(Z)"
        if op.kind == "global":
            ref = lib.singularities.global_mld(f0, b0)
        else:
            cone0 = tuple(sorted(perm0[i] for i in ctx["cone"]))
            ref = lib.singularities.mld_at_cone(f0, b0, cone0)
        if ref.value != out.value:
            return f"mld changed under GL_n(Z): {ref.value} vs {out.value}"
        f, b = op.args[0], op.args[1]
        if op.kind == "global" and f.rank == 2 and len(f.rays) <= 5:
            radius = max(abs(t) for t in out.witness)
            best = lib.singularities.brute_force_mld_in_ball(f, b, radius)
            if best is None or best[0] != out.value:
                return "brute force over the witness ball disagrees with global_mld"
        return None


# -- fibration_verify ----------------------------------------------------------


class FibrationVerify(Workload):
    """A small fixed pool of fibrations revisited with many boundaries and
    eps values: relative mld (every outcome), thresholds, discriminants,
    pullbacks, relative triviality, ampleness and the three verify
    harnesses.  The only in-process part with LPs and per-point
    fans.locate; the fans recur, so the caches are hot."""

    name = "fibration_verify"
    n_inputs = 12000
    round_ops = 128  # eight rounds of PATTERN, about 0.8 s
    PATTERN = (
        "rel_enum", "lct", "pullback", "rel_cert", "disc", "ample", "rel_search", "reltriv",
        "vfano", "rel_witness", "lct", "vadj", "rel_minus_inf", "reltriv", "vlc", "rel_indet",
    )
    CYCLES = {
        "rel_enum": ("ex13", "p1a1", "ef13", "tower", "ex13", "ef22"),
        "lct": ("ex13", "ef13", "p1a1", "tower", "ef22", "base2"),
        "pullback": ("ex13", "ef22", "tower", "base2", "ef13"),
        "rel_cert": ("ex13", "ef13"),
        "rel_search": ("ex13", "ef13"),
        "disc": ("ex13", "p1a1", "tower", "ef13", "ef22"),
        "ample": ("ex13", "tower", "ef22", "p1a1", "base2"),
        "reltriv": ("ex13", "p1a1", "tower", "ef13", "ef22", "base2"),
        "vfano": ("ex13", "p1a1", "tower", "ef13", "ex13", "ef22"),
        "vadj": ("p1a1", "tower", "ex13", "base2"),
        "vlc": ("p1a1", "ex13", "tower", "ef13"),
        "rel_minus_inf": ("p1a1", "tower"),
        "rel_witness": ("a2id",),
        "rel_indet": ("a2id",),
    }

    def pool(self, lib):
        fb = lib.fibration
        a1, _ = build_fan(lib, *A1, check=True)
        p1a1 = product_rays(P1, A1)
        p1p1a1 = product_rays(P1, p1a1)

        def over_a1(rays_cones):
            src, _ = build_fan(lib, *rays_cones, check=True)
            row = (0,) * (src.rank - 1) + (1,)
            return fb.morphism((row,), src, a1)

        out = {
            "ex13": lib.bounds.example_family(1, 2).f,
            "ef13": lib.bounds.example_family(1, 3).f,
            "ef22": lib.bounds.example_family(2, 2).f,
            "p1a1": over_a1(p1a1),
            "tower": over_a1(p1p1a1),
        }
        src, _ = build_fan(lib, *p1p1a1, check=True)
        tgt, _ = build_fan(lib, *p1a1, check=True)
        out["base2"] = fb.morphism(((0, 1, 0), (0, 0, 1)), src, tgt)
        a2, _ = build_fan(lib, [(1, 0), (0, 1)], [(0, 1)], check=True)
        out["a2id"] = fb.morphism(((1, 0), (0, 1)), a2, a2)
        return out

    def build(self, lib, seed, warm=False):
        rng = random.Random(self._rng_key(seed, warm))
        pool = self.pool(lib)
        counters = dict.fromkeys(self.CYCLES, 0)
        ops = []
        n = 2 * len(self.PATTERN) if warm else self.n_inputs
        while len(ops) < n:
            slot = self.PATTERN[len(ops) % len(self.PATTERN)]
            cyc = self.CYCLES[slot]
            name = cyc[counters[slot] % len(cyc)]
            counters[slot] += 1
            ops.append(self._make(lib, rng, slot, name, pool[name]))
        return ops

    @staticmethod
    def _vertical_trivial(f, rng, positive=True):
        """Coefficients 1 - mu * (last coordinate) for a fibration over A^1:
        K + B is then trivial over the base and the relative mld is mu."""
        top = max(v[-1] for v in f.source.rays)
        mu = Fraction(rng.randrange(1 if positive else 0, 5), 4 * top)
        return [1 - mu * v[-1] for v in f.source.rays], mu

    @staticmethod
    def _horizontal_trivial(f, rng):
        """For the rank-2 base: coefficient 1 on the rays of the P^1 factor
        and c on the others (trivial over the base), relative mld 1 - c."""
        c = rng.choice(COEFFS[:6])
        return [Fraction(1) if v[0] != 0 else c for v in f.source.rays], 1 - c

    def _make(self, lib, rng, slot, name, f):
        src = f.source
        n = len(src.rays)
        dv = lib.divisors.divisor
        spec = {"slot": slot, "morphism": name}
        ctx = {"morphism": name}

        def done(kind, call, args, coeffs=None, kwargs=None, **kw):
            if coeffs is not None:
                spec["coeffs"] = [fr(c) for c in coeffs]
            for k, v in {**kw, **(kwargs or {})}.items():
                spec[k] = canon(v)
            return Op(kind, call, args, spec, ctx, kwargs)

        if slot == "rel_enum":
            coeffs = rand_coeffs(rng, n)
            eps = Fraction(1, rng.randrange(2, 11))
            return done("relative_mld", ("fibration", "relative_mld"),
                        (f, dv(src, coeffs), (0,), eps), coeffs, eps=eps)
        if slot in ("rel_cert", "rel_search"):
            coeffs = [Fraction(1) if v == (-1, 0) else (0 if v[-1] else rng.choice(COEFFS[:7]))
                      for v in src.rays]
            if slot == "rel_cert":
                eps = Fraction(1, rng.randrange(12, 40))
                return done("relative_mld", ("fibration", "relative_mld"),
                            (f, dv(src, coeffs), (0,), eps), coeffs, eps=eps)
            eps = Fraction(rng.randrange(1, 4), 4)
            return done("relative_mld", ("fibration", "relative_mld"),
                        (f, dv(src, coeffs), (0,), eps), coeffs,
                        {"radius": rng.randrange(30, 90)}, eps=eps)
        if slot in ("rel_witness", "rel_indet"):
            c = rng.choice(COEFFS)
            coeffs = [Fraction(1) if v == (0, 1) else c for v in src.rays]
            if slot == "rel_witness":
                eps = (1 - c) + Fraction(rng.randrange(1, 5), 4)
            else:
                eps = (1 - c) * Fraction(rng.randrange(1, 5), 4)
            return done("relative_mld", ("fibration", "relative_mld"),
                        (f, dv(src, coeffs), (0, 1), eps), coeffs,
                        {"radius": rng.randrange(3, 9)}, eps=eps)
        if slot == "rel_minus_inf":
            coeffs = [rng.choice((Fraction(3, 2), Fraction(2), Fraction(5, 2))) if v[0] == 1
                      else rng.choice(COEFFS) for v in src.rays]
            eps = Fraction(1, rng.randrange(2, 6))
            return done("relative_mld", ("fibration", "relative_mld"),
                        (f, dv(src, coeffs), (0,), eps), coeffs, eps=eps)
        if slot == "lct":
            coeffs = rand_coeffs(rng, n)
            w = rng.randrange(len(f.target.rays))
            ctx["w"] = w
            return done("lc_threshold_over", ("fibration", "lc_threshold_over"),
                        (f, dv(src, coeffs), w), coeffs, w=w)
        if slot == "pullback":
            w = rng.randrange(len(f.target.rays))
            return done("pullback_multiplicities", ("fibration", "pullback_multiplicities"),
                        (f, w), None, w=w)
        if slot == "disc":
            coeffs, _ = self._vertical_trivial(f, rng, positive=False)
            return done("discriminant_divisor", ("fibration", "discriminant_divisor"),
                        (f, dv(src, coeffs)), coeffs)
        if slot == "ample":
            coeffs = [rng.choice(COEFFS + (Fraction(1),)) for _ in range(n)]
            return done("is_ample_over", ("divisors", "is_ample_over"),
                        (f, dv(src, coeffs)), coeffs)
        if slot == "reltriv":
            trivial = rng.random() < 0.5
            if trivial and name == "base2":
                coeffs, _ = self._horizontal_trivial(f, rng)
            elif trivial:
                coeffs, _ = self._vertical_trivial(f, rng, positive=False)
            else:
                coeffs = rand_coeffs(rng, n)
            ctx["trivial"] = trivial
            return done("rel_trivial_witness", ("divisors", "rel_trivial_witness"),
                        (f, dv(src, coeffs)), coeffs)
        if slot == "vfano":
            if name in ("ex13", "ef22", "ef13"):
                coeffs = [Fraction(0)] * n
                eps = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(3, 5), Fraction(1, 4)))
            else:
                coeffs, mu = self._vertical_trivial(f, rng)
                eps = mu * Fraction(rng.randrange(1, 5), 4)
            return done("verify_fano", ("bounds", "verify_fano_contraction_theorem"),
                        (f, dv(src, coeffs), (0,), eps), coeffs, {"radius": 40}, eps=eps)
        if slot == "vadj":
            if name == "base2":
                coeffs, mld = self._horizontal_trivial(f, rng)
                tau = (f.target.rays.index((0, 1)),)
                probes = tuple(rng.sample(((1, 1), (-1, 2), (1, 2), (-1, 1)), rng.randrange(0, 3)))
            else:
                coeffs, mld = self._vertical_trivial(f, rng)
                tau, probes = (0,), ()
            eps = mld * Fraction(rng.randrange(1, 5), 4)
            return done("verify_adjunction", ("bounds", "verify_adjunction_theorem"),
                        (f, dv(src, coeffs), tau, eps), coeffs,
                        {"probes": probes, "radius": 40}, eps=eps)
        if slot == "vlc":
            plus, mu = self._vertical_trivial(f, rng)
            below = [rng.choice([c for c in COEFFS if c <= p]) for p in plus]
            eps = mu * Fraction(rng.randrange(1, 5), 4)
            return done("verify_lc", ("bounds", "verify_lc_complement_theorem"),
                        (f, dv(src, below), dv(src, plus), (0,), eps), below,
                        {"radius": 40}, plus=[fr(c) for c in plus], eps=eps)
        raise ValueError(slot)

    def check(self, lib, op, out):
        f = op.args[0]
        a_fn = None
        if op.kind in ("relative_mld", "lc_threshold_over", "rel_trivial_witness"):
            a_fn = lib.divisors.log_discrepancy_function(f.source, op.args[1])
        if op.kind == "relative_mld":
            kind = type(out).__name__
            eps = op.args[3]
            if kind == "Exact":
                if type(out.value).__name__ == "_MinusInfinity":
                    return None if a_fn(out.witness) < 0 else "-inf witness is not negative"
                w = out.witness
                if math.gcd(*w) != 1 or a_fn(w) != out.value:
                    return "relative mld witness does not re-evaluate"
                return None if self._over_relint(lib, op, w) else "witness not over the base cone"
            if kind == "Witness":
                ok = a_fn(out.v) == out.value and out.value < eps
                return None if ok else "Witness does not re-evaluate below eps"
            if kind == "CertifiedAtLeast":
                return None if out.bound >= eps else "certified bound below eps"
            return None if out.radius == op.kwargs["radius"] else "wrong search radius"
        if op.kind == "lc_threshold_over":
            return None if out >= 0 else "negative threshold with coefficients below 1"
        if op.kind == "pullback_multiplicities":
            wv = f.target.rays[op.args[1]]
            for v, c in out:
                if v not in f.source.rays or c < 1 or mat_vec(f.matrix, v) != tuple(c * x for x in wv):
                    return "pullback multiplicity does not map to c * w"
            return None
        if op.kind == "discriminant_divisor":
            ok = len(out.thresholds) == len(f.target.rays) and all(
                c == 1 - t for c, t in zip(out.divisor.coeffs, out.thresholds)
            )
            return None if ok else "discriminant coefficients are not 1 - threshold"
        if op.kind == "rel_trivial_witness":
            if out is None:
                return "trivial boundary reported non-trivial" if op.ctx["trivial"] else None
            for c, fn in zip(f.source.max_cones, a_fn.functionals):
                for i in c:
                    v = f.source.rays[i]
                    w = mat_vec(f.matrix, v)
                    if dot(fn, v) != dot(out.m, v) + out.ell(w):
                        return "relative triviality witness does not reproduce A"
            return None
        if op.kind.startswith("verify"):
            return None if out.passed else f"theorem check reported {out.status}"
        return None

    @staticmethod
    def _over_relint(lib, op, w):
        f, tau = op.args[0], op.args[2]
        loc = lib.fans.locate(f.target, mat_vec(f.matrix, w))
        return loc is not None and loc.cone == tuple(tau)

    def deep_check(self, lib, op, out):
        """Threshold and relative mld are unchanged by a change of source
        coordinates (matrix M becomes M U^-1)."""
        if op.kind not in ("lc_threshold_over", "relative_mld"):
            return None
        f, b = op.args[0], op.args[1]
        rng = random.Random(digest(op.spec))
        u, uinv = unimodular(rng, f.source.rank)
        src, perm = build_fan(lib, f.source.rays, f.source.max_cones, u)
        g = lib.fibration.morphism(mat_mul(f.matrix, uinv), src, f.target)
        b2 = lib.divisors.divisor(src, remap(b.coeffs, perm, len(perm)))
        if op.kind == "lc_threshold_over":
            ref = lib.fibration.lc_threshold_over(g, b2, op.args[2])
            return None if ref == out else "threshold changed under GL_n(Z)"
        ref = lib.fibration.relative_mld(g, b2, *op.args[2:], **op.kwargs)
        if type(ref) is not type(out):
            return "relative mld outcome changed under GL_n(Z)"
        val = {"Exact": "value", "Witness": "value", "CertifiedAtLeast": "bound"}.get(type(out).__name__)
        if val and canon(getattr(ref, val)) != canon(getattr(out, val)):
            return "relative mld value changed under GL_n(Z)"
        return None


# -- construct_validate ----------------------------------------------------------


class ConstructValidate(Workload):
    """The write side: building and validating fans and morphisms.  Work is
    in cones.hrep / cut / covered_by (DD) and intlinalg HNF and kernels,
    with almost no lattice-point enumeration.  Every fan is new."""

    name = "construct_validate"
    n_inputs = 4000
    round_ops = 36  # three rounds of PATTERN, about 0.5 s
    PATTERN = (
        "fan", "family", "validate", "star", "fiber", "fan",
        "complete", "factor", "quotient", "validate", "tscan", "family",
    )

    def build(self, lib, seed, warm=False):
        rng = random.Random(self._rng_key(seed, warm))
        n = len(self.PATTERN) if warm else self.n_inputs
        # distinct q per (kind, r); the timed and warm-up ranges are disjoint
        qs = {}
        for key, hi in (("family2", 2000), ("family3", 2000), ("tscan", 2000),
                        ("validate1", 3000), ("validate2", 3000), ("validate3", 3000),
                        ("fiber2", 3000), ("fiber3", 3000), ("factor", 3000)):
            pool = list(range(hi + 1, hi + 200)) if warm else list(range(2, hi))
            rng.shuffle(pool)
            qs[key] = pool
        a1, _ = build_fan(lib, *A1, check=True)
        ctx = {"a1": a1, "qs": qs, "seen": set()}
        counts = dict.fromkeys(self.PATTERN, 0)
        ops = []
        while len(ops) < n:
            slot = self.PATTERN[len(ops) % len(self.PATTERN)]
            k = counts[slot]
            counts[slot] += 1
            ops.append(self._make(lib, rng, slot, k, ctx))
        return ops

    def _family_morphism(self, lib, rng, r, q, ctx, moved=True):
        rays, cones = family_rays(r, q)
        u, uinv = unimodular(rng, r + 1)
        if not moved:
            u = uinv = tuple(tuple(int(i == j) for j in range(r + 1)) for i in range(r + 1))
        src, _ = build_fan(lib, rays, cones, u)
        matrix = mat_mul(((0,) * r + (1,),), uinv)
        f = lib.fibration.morphism(matrix, src, ctx["a1"], check=False)
        return f, {"r": r, "q": q, "u": u}

    def _wps(self, rng, rank, ctx):
        while True:
            weights = [rng.randrange(1, 7) for _ in range(rank)]
            u, _ = unimodular(rng, rank)
            key = (tuple(weights), u)
            if key not in ctx["seen"]:
                ctx["seen"].add(key)
                return wps_rays(weights), weights, u

    def _make(self, lib, rng, slot, k, ctx):
        qs = ctx["qs"]
        if slot == "fan":
            if k % 3 == 2:
                (rays, cones), weights, u = self._wps(rng, 2, ctx)
                rays, cones = product_rays(P1, (rays, cones))
                u, _ = unimodular(rng, 3)
                spec_base = ["p1xwps", weights]
            else:
                (rays, cones), weights, u = self._wps(rng, 2 + k % 2, ctx)
                spec_base = ["wps", weights]
            moved = [mat_vec(u, r) for r in rays]
            spec = {"slot": slot, "base": spec_base, "u": u}
            return Op("fan", ("fans", "fan"), (len(moved[0]), moved, cones), spec,
                      {"complete": True})
        if slot == "family":
            r = 2 if k % 3 != 1 else 3
            q = qs[f"family{r}"].pop()
            return Op("example_family", ("bounds", "example_family"), (r, q),
                      {"slot": slot, "r": r, "q": q})
        if slot in ("validate", "fiber"):
            r = (1, 2, 3)[k % 3] if slot == "validate" else (2, 3)[k % 2]
            q = qs[f"{slot}{r}"].pop()
            # a change of coordinates sends the r = 3 properness test into the
            # DD blowup (excluded.json), so those sources keep their coordinates
            moved = not (slot == "validate" and r == 3)
            f, info = self._family_morphism(lib, rng, r, q, ctx, moved)
            call = ("fibration", "validate_morphism" if slot == "validate" else "generic_fiber_fan")
            return Op(slot, call, (f,), {"slot": slot, **info}, info)
        if slot == "factor":
            q = qs["factor"].pop()
            f, info = self._family_morphism(lib, rng, 2, q, ctx)
            return Op("factor_mfs", ("mfs", "factor_mfs"), (f,), {"slot": slot, **info}, info)
        if slot == "tscan":
            q = qs["tscan"].pop()
            return Op("tightness_scan", ("bounds", "tightness_scan"), (3, [q]),
                      {"slot": slot, "q": q}, {"q": q})
        (rays, cones), weights, u = self._wps(rng, 2 + k % 2, ctx)
        f, _ = build_fan(lib, rays, cones, u)
        spec = {"slot": slot, "weights": weights, "u": u}
        if slot == "complete":
            drop = k % 2 == 1
            if drop:
                f = lib.fans.Fan(f.rank, f.rays, f.max_cones[:-1])
            spec["drop"] = drop
            return Op("is_complete", ("fans", "is_complete"), (f,), spec, {"complete": not drop})
        if slot == "star":
            c = rng.choice(f.max_cones)
            while True:
                v = primitive(cone_point(f, c, [rng.randrange(1, 4) for _ in c]))
                if v not in f.rays:
                    break
            spec["v"] = v
            return Op("star_subdivision", ("fans", "star_subdivision"), (f, v), spec)
        v = f.rays[rng.randrange(len(f.rays))]
        spec["v"] = v
        return Op("quotient_fan", ("fans", "quotient_fan"), (f, v), spec)

    def check(self, lib, op, out):
        kind = op.kind
        if kind == "fan":
            rank, rays, cones = op.args
            ok = out.rays == tuple(sorted(tuple(r) for r in rays)) and len(out.max_cones) == len(cones)
            return None if ok else "fan() changed the rays or cones"
        if kind == "example_family":
            r, q = op.args
            v, c = lib.fibration.pullback_multiplicities(out.f, 0)[0]
            ok = c == u_sequence(r + 1, q) - 1 and len(out.x.rays) == r + 2
            return None if ok else "family multiplicity differs from u_{r+1,q} - 1"
        if kind == "validate":
            want = (True, True, True, op.ctx["r"])
            got = (out.compatible, out.is_contraction, out.is_proper, out.relative_dimension)
            return None if got == want else f"diagnostics {got} for a proper contraction"
        if kind == "fiber":
            basis, fiber = out
            f = op.args[0]
            ok = (
                all(not any(mat_vec(f.matrix, row)) for row in basis)
                and fiber.rank == op.ctx["r"]
                and len(fiber.rays) == op.ctx["r"] + 1
            )
            return None if ok else "generic fiber basis or fan has the wrong shape"
        if kind == "factor_mfs":
            ok = mat_mul(out.h.matrix, out.g.matrix) == op.args[0].matrix and out.a_e > 0
            return None if ok else "factorization does not compose back to the morphism"
        if kind == "tightness_scan":
            q = op.ctx["q"]
            (row,) = out
            m = u_sequence(4, q) - 1
            ok = row.multiplicity == m and row.ratio == m * delta(3, Fraction(1, q))
            return None if ok else "tightness row differs from the closed form"
        if kind == "is_complete":
            return None if out == op.ctx["complete"] else "completeness misreported"
        if kind == "star_subdivision":
            f, v = op.args
            ok = v in out.rays and len(out.rays) == len(f.rays) + 1
            return None if ok else "star subdivision lost the new ray"
        if kind == "quotient_fan":
            proj, img = out
            f, v = op.args
            ok = not any(mat_vec(proj, v)) and img.rank == f.rank - 1
            return None if ok else "quotient projection does not kill the ray"
        return None

    def deep_check(self, lib, op, out):
        """Fan validation agrees with the violation list of validate_fan."""
        if op.kind == "fan":
            return None if lib.fans.validate_fan(out) == () else "valid fan has violations"
        return None


# -- cli_pipeline ------------------------------------------------------------------


class CliPipeline(Workload):
    """Subprocess pipes through ``python -m toricmld.cli`` on small
    instances.  Interpreter start and the import of toricmld.cli dominate;
    serialize and cli are measured nowhere else."""

    name = "cli_pipeline"
    n_inputs = 1500
    deep_ops = 0
    round_ops = 6  # one round of PATTERN, about 1 s
    PATTERN = ("ef_mld", "delta", "ef_vfano", "ef_disc", "tscan", "ef_validate")

    def __init__(self, src_dir):
        self.src_dir = src_dir
        self.child = None  # launcher script (cli_child.py) in traced runs
        self.child_stats = []

    def build(self, lib, seed, warm=False):
        rng = random.Random(self._rng_key(seed, warm))
        n = 2 if warm else self.n_inputs
        ops = []
        while len(ops) < n:
            slot = self.PATTERN[len(ops) % len(self.PATTERN)]
            ops.append(self._make(rng, slot))
        return ops

    def _make(self, rng, slot):
        if slot == "delta":
            r, eps = rng.randrange(1, 5), Fraction(rng.randrange(1, 10), 10)
            stages = [["delta", "--r", str(r), "--eps", fr(eps)]]
            ctx = {"r": r, "eps": eps}
        elif slot == "tscan":
            r = rng.randrange(1, 3)
            q = sorted(rng.sample(range(2, 30), rng.randrange(1, 4)))
            stages = [["tightness-scan", "--r", str(r), "--q", ",".join(map(str, q)), "--out", "json"]]
            ctx = {"r": r, "q": q}
        else:
            r = 2 if slot == "ef_validate" or (slot == "ef_disc" and rng.random() < 0.5) else 1
            q = rng.randrange(2, 12) if r == 1 else rng.randrange(2, 30)
            first = ["example-family", "--r", str(r), "--q", str(q)]
            if slot == "ef_mld":
                second = ["mld", "--divisor", "zero"]
            elif slot == "ef_vfano":
                eps = Fraction(1, rng.randrange(2, 6))
                second = ["verify-fano", "--eps", fr(eps), "--radius", "40"]
            elif slot == "ef_disc":
                second = ["discriminant", "--divisor", "boundary"]
            else:
                second = ["validate"]
            stages = [first, second]
            ctx = {"r": r, "q": q}
        return Op(slot, None, stages, {"stages": stages}, ctx)

    def _argv(self, stage):
        if self.child:
            return [sys.executable, self.child] + stage
        return [sys.executable, "-m", "toricmld.cli"] + stage

    def run(self, lib, op):
        env = dict(os.environ, PYTHONPATH=self.src_dir)
        stages = op.args
        err = subprocess.PIPE if self.child else subprocess.DEVNULL
        procs = []
        spawned = []
        stdin = subprocess.DEVNULL
        try:
            for i, stage in enumerate(stages):
                last = i == len(stages) - 1
                spawned.append(time.monotonic_ns())
                p = subprocess.Popen(self._argv(stage), stdin=stdin, stdout=subprocess.PIPE,
                                     stderr=err, env=env)
                if stdin is not subprocess.DEVNULL:
                    stdin.close()
                stdin = p.stdout if not last else None
                procs.append(p)
            out, last_err = procs[-1].communicate(timeout=120)
            errs = []
            for p in procs[:-1]:
                p.wait(timeout=120)
                errs.append(p.stderr.read() if self.child else b"")
            errs.append(last_err or b"")
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
                for stream in (p.stdout, p.stderr):
                    if stream is not None:
                        stream.close()
        if self.child:
            for t0, e in zip(spawned, errs):
                self.child_stats.append((t0, e))
        text = out.decode()
        codes = [p.returncode for p in procs]
        return {"codes": codes, "report": json.loads(text) if text.strip() else None}

    def canon_out(self, op, out):
        report = dict(out["report"] or {})
        report.pop("timing_ms", None)
        return {"codes": out["codes"], "report": report}

    def check(self, lib, op, out):
        if any(c != 0 for c in out["codes"]):
            return f"exit codes {out['codes']}"
        rep = out["report"]
        if rep is None or rep.get("status") not in ("ok", "pass", "hypothesis_failed"):
            return "missing or failed report"
        pay = rep["payload"]
        ctx = op.ctx
        if op.kind == "delta":
            return None if pay["delta"] == fr(delta(ctx["r"], ctx["eps"])) else "delta differs"
        if op.kind == "tscan":
            for row, q in zip(pay["rows"], ctx["q"]):
                m = u_sequence(ctx["r"] + 1, q) - 1
                if row["multiplicity"] != m or row["ratio"] != fr(m * delta(ctx["r"], Fraction(1, q))):
                    return "tightness row differs from the closed form"
            return None
        if op.kind == "ef_mld":
            x = lib.bounds.example_family(ctx["r"], ctx["q"]).x
            ref = lib.singularities.global_mld(x, lib.divisors.zero_divisor(x))
            return None if pay["mld"] == fr(ref.value) else "CLI mld differs from the API"
        if op.kind == "ef_disc":
            return None if pay["coeffs"] == ["1"] else "boundary does not map to boundary"
        if op.kind == "ef_validate":
            ok = pay["is_proper"] and pay["is_contraction"] and pay["relative_dimension"] == ctx["r"]
            return None if ok else "family morphism failed validation"
        return None if pay["passed"] else "verify-fano reported a failed claim"


# -- the benchmark's workloads -------------------------------------------------------


class Mixed(Workload):
    """Rounds of ``round_ops`` consecutive operations of each part in turn.

    Each part generates its inputs exactly as it would alone (its random
    stream is keyed by its own name), so the k-th operation of a part is
    the same in every mix.  ``trace_rate`` is the mix's rate in ops/s, which
    the traced run uses to size itself.
    """

    def __init__(self, name, parts, trace_rate):
        self.name = name
        self.parts = parts
        self.round_ops = sum(p.round_ops for p in parts)
        self.trace_rate = trace_rate
        self.deep_ops = math.inf  # every op is offered; its part decides by its own index

    @property
    def cli(self):
        """The CliPipeline part, or None."""
        return next((p for p in self.parts if isinstance(p, CliPipeline)), None)

    def build(self, lib, seed, warm=False):
        lists = [p.build(lib, seed, warm) for p in self.parts]
        ops = []
        for r in range(max(-(-len(ops_p) // p.round_ops) for p, ops_p in zip(self.parts, lists))):
            if not warm and any((r + 1) * p.round_ops > len(l) for p, l in zip(self.parts, lists)):
                break  # timed inputs come in whole rounds only
            for p, ops_p in zip(self.parts, lists):
                for i in range(r * p.round_ops, min((r + 1) * p.round_ops, len(ops_p))):
                    inner = ops_p[i]
                    spec = {"part": p.name, "op": inner.spec}
                    ops.append(Op(inner.kind, None, (p, inner), spec, {"i": i}))
        return ops

    def run(self, lib, op):
        part, inner = op.args
        return part.run(lib, inner)

    def canon_out(self, op, out):
        part, inner = op.args
        return part.canon_out(inner, out)

    def check(self, lib, op, out):
        part, inner = op.args
        return part.check(lib, inner, out)

    def deep_check(self, lib, op, out):
        part, inner = op.args
        return part.deep_check(lib, inner, out) if op.ctx["i"] < part.deep_ops else None


def workloads(src_dir):
    return {
        "invariants": Mixed("invariants", (MldSweep(), FibrationVerify()), trace_rate=60),
        "construct_cli": Mixed("construct_cli", (ConstructValidate(), CliPipeline(src_dir)), trace_rate=21),
    }
