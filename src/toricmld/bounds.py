"""The explicit lower bound delta(r, eps), the doubling sequence u_{k,q},
the extremal family of fibrations built from it, and harnesses that check
the bound's claims on concrete instances.

The three verify_* harnesses share one gate.  A prologue raises, in this
order, on a negative radius, a missing b or tau_z, a tau_z that is not the
ray a harness needs, relative dimension 0, an empty tau_z or one that is
not a cone of the target, and eps outside (0, 1].  The hypotheses are then
checked in order; the last, that the relative mld over tau_z is at least
eps, runs only when the earlier ones hold.  Claims are asserted only when
every hypothesis holds, so a report whose hypotheses fail asserts nothing
and records why.

The family's i-th ray uses the i-th coordinate axis.  Putting every ray on
the first axis would leave the fiber rays in a closed half-space, so the
generic fiber fan could not be complete and the projection could not be
proper; the construction validates both and rejects anything that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from . import singularities
from .cones import box_points, contains, values_at
from .divisors import (
    PLFunction,
    ToricDivisor,
    divisor,
    log_discrepancy_function,
    rel_trivial_witness,
    zero_divisor,
)
from .errors import (
    ConstructionInvariantFailure,
    DomainError,
    NotACone,
    NotQCartier,
    ValidationError,
)
from .fans import Fan, fan, is_cone_of, star_subdivision
from .fibration import (
    BudgetExhausted,
    CertifiedAtLeast,
    Exact,
    Indeterminate,
    ToricMorphism,
    Witness,
    average_boundary,
    check_radius,
    discriminant_divisor,
    lc_thresholds,
    morphism,
    pullback_multiplicities,
    relative_mld,
    validate_morphism,
)
from .intlinalg import Vec, is_zero
from .singularities import MINUS_INFINITY, mld_at_cone

Rat = Fraction | int


def delta(r: int, eps: Rat) -> Fraction:
    """delta(r, eps) = eps^(2^r) / (2^(2^r - 1) * prod_{i=1}^r i^(2^i))."""
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    two_r = 2**r
    denom = 2 ** (two_r - 1)
    for i in range(1, r + 1):
        denom *= i ** (2**i)
    return eps**two_r / denom


def u_sequence(k: int, q: int) -> int:
    """u_1 = q and u_{j+1} = u_j (u_j + 1)."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if not isinstance(q, int) or q < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    u = q
    for _ in range(k - 1):
        u = u * (u + 1)
    return u


@dataclass(frozen=True)
class FamilyInstance:
    r: int
    q: int
    x: Fan
    z: Fan
    f: ToricMorphism
    multiple_ray: int  # index into x.rays of the ray carrying the fiber multiplicity


def example_family(r: int, q: int) -> FamilyInstance:
    """The rank-(r+1) fibration over the affine line whose central fiber
    multiplicity u_{r+1,q} - 1 meets the bound 1/delta(r, 1/q) up to a
    bounded factor."""
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    if not isinstance(q, int) or q < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    n = r + 1
    rays = []
    for i in range(r):
        u = u_sequence(i + 1, q)
        rays.append(tuple((1 + u if j == i else 0) - (q if j < r else 0) for j in range(n)))
    rays.append(tuple(-1 if j < r else 0 for j in range(n)))
    last = u_sequence(r + 1, q) - 1
    rays.append(tuple(last if j == r else -q for j in range(n)))
    cones = [s + (n,) for s in combinations(range(n), r)]
    try:
        x = fan(n, rays, cones)
        z = fan(1, [(1,)], [(0,)])
        f = morphism(((0,) * r + (1,),), x, z)
    except ValidationError as exc:
        raise ConstructionInvariantFailure(str(exc)) from exc
    diag = validate_morphism(f)
    if not (diag.compatible and diag.is_contraction and diag.is_proper):
        raise ConstructionInvariantFailure(f"not a proper contraction: {diag}")
    if diag.relative_dimension != r:
        raise ConstructionInvariantFailure(
            f"relative dimension {diag.relative_dimension}, expected {r}"
        )
    return FamilyInstance(
        r=r, q=q, x=x, z=z, f=f, multiple_ray=x.rays.index(rays[-1])
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one harness run; every flag comes from an exact rational
    comparison."""

    hypotheses: tuple[tuple[str, bool], ...]
    claims: tuple[tuple[str, bool], ...]
    measurements: tuple[tuple[str, object], ...]
    witnesses: tuple[tuple[str, object], ...] = ()

    @property
    def hypothesis_ok(self) -> bool:
        return all(ok for _, ok in self.hypotheses)

    @property
    def passed(self) -> bool:
        return (not self.hypothesis_ok) or all(ok for _, ok in self.claims)

    @property
    def status(self) -> str:
        if not self.hypothesis_ok:
            return "hypothesis_failed"
        return "pass" if self.passed else "fail"


def _start(f, b, tau_z, eps, radius, ray: str | None = None):
    """The harnesses' shared prologue; `ray`, when given, says why tau_z must
    be a ray, and tau_z must be a nonempty cone of the target.  A family
    instance stands for its morphism, with its zero divisor and first base
    ray unless b and tau_z are given.  Returns f, b, tau_z, eps, the
    relative dimension r and delta(r, eps)."""
    check_radius(radius)
    if isinstance(f, FamilyInstance):
        b = zero_divisor(f.x) if b is None else b
        tau_z = (0,) if tau_z is None else tau_z
        f = f.f
    elif b is None or tau_z is None:
        raise DomainError("b and tau_z are required unless a family instance is given")
    eps = Fraction(eps)
    if ray is not None and len(tau_z) != 1:
        raise DomainError(ray)
    r = validate_morphism(f).relative_dimension
    if r < 1:
        raise DomainError("the fibration must have positive relative dimension")
    if not tau_z:
        raise DomainError("the base cone must have dimension >= 1")
    if not is_cone_of(f.target, tau_z):
        raise NotACone(f"{tau_z} is not a cone of the target fan")
    return f, b, tau_z, eps, r, delta(r, eps)


def _rel_mld_gate(f, b, tau_z, eps, radius, hypotheses, measurements, witnesses) -> bool:
    """The last hypothesis gate: is the relative mld of (f, b) over tau_z
    at least eps?  Runs relative_mld only when every earlier hypothesis
    holds, then appends the gate, what was measured and any witness to the
    report lists.  Returns whether every hypothesis holds."""
    if not all(ok for _, ok in hypotheses):
        return False
    res = relative_mld(f, b, tau_z, eps, radius=radius)
    ok = False
    if isinstance(res, Exact):
        ok = res.value is not MINUS_INFINITY and res.value >= eps
        measurements.append(("relative_mld", res.value))
        witnesses.append(("relative_mld_witness", res.witness))
    elif isinstance(res, CertifiedAtLeast):
        ok = res.bound >= eps
        measurements.append(("relative_mld_lower_bound", res.bound))
    elif isinstance(res, Witness):
        measurements.append(("relative_mld_upper_bound", res.value))
        witnesses.append(("relative_mld_witness", res.v))
    elif isinstance(res, BudgetExhausted):
        measurements.append(("relative_mld_search_budget_exhausted_after", res.searched))
    else:
        assert isinstance(res, Indeterminate)
        measurements.append(("relative_mld_search_radius", res.radius))
    hypotheses.append(("relative_mld_at_least_eps", ok))
    return ok


def _mld_claim(label, rep, d, claims, measurements, witnesses=None) -> None:
    """Record the claim that rep, an mld report, is at least d, with rep's
    witness when a witnesses list is given."""
    measurements.append((label + "_mld", rep.value))
    ok = rep.value is not MINUS_INFINITY and rep.value >= d
    claims.append((label + "_mld_at_least_delta", ok))
    if witnesses is not None and rep.witness is not None:
        witnesses.append((label + "_mld_witness", rep.witness))


def verify_fano_contraction_theorem(
    f, b=None, tau_z=None, eps: Rat = Fraction(1, 2), radius: int = 10_000
) -> VerificationReport:
    """Check that an eps-relatively-lc fibration has fiber multiplicities
    at most 1/delta(r, eps) over the given base ray, and that the base
    itself is delta(r, eps)-lc there when its canonical class allows the
    comparison."""
    f, b, tau_z, eps, _, d = _start(
        f, b, tau_z, eps, radius, "multiplicities are read off over a ray of the base"
    )
    bound = 1 / d
    hypotheses, witnesses, claims = [], [], []
    measurements = [("delta", d), ("multiplicity_bound", bound)]
    if _rel_mld_gate(f, b, tau_z, eps, radius, hypotheses, measurements, witnesses):
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
            _mld_claim("base", rep, d, claims, measurements, witnesses)
    return VerificationReport(*map(tuple, (hypotheses, claims, measurements, witnesses)))


def verify_adjunction_theorem(
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
    f, b, tau_z, eps, r, d = _start(f, b, tau_z, eps, radius)
    measurements = [("delta", d)]
    witnesses, claims = [], []
    hypotheses = [("pair_trivial_over_base", rel_trivial_witness(f, b) is not None)]
    if _rel_mld_gate(f, b, tau_z, eps, radius, hypotheses, measurements, witnesses):
        alpha = Fraction(1, factorial(r))
        gamma = average_boundary(b, f.source, alpha)
        measurements.append(("alpha", alpha))
        disc = discriminant_divisor(f, gamma)
        measurements.append(("base_boundary", disc.divisor.coeffs))
        rep = mld_at_cone(f.target, disc.divisor, tau_z)
        _mld_claim("base", rep, d, claims, measurements, witnesses)
        for p in probes:
            p = tuple(int(x) for x in p)
            sub = star_subdivision(f.target, p)
            # triviality over the base is inherited by refinements, so only the
            # per-ray thresholds need recomputing on the finer fan
            lifted = ToricMorphism(matrix=f.matrix, source=f.source, target=sub)
            disc2 = divisor(sub, [1 - t for t in lc_thresholds(lifted, gamma)])
            rep2 = mld_at_cone(sub, disc2, (sub.rays.index(p),))
            _mld_claim("probe_" + ",".join(str(x) for x in p), rep2, d, claims, measurements)
    return VerificationReport(*map(tuple, (hypotheses, claims, measurements, witnesses)))


def verify_lc_complement_theorem(
    f,
    b_toric: ToricDivisor,
    b_plus: ToricDivisor,
    tau_z,
    eps: Rat,
    radius: int = 10_000,
) -> VerificationReport:
    """Check that adding delta(r, eps) times the fiber over the base ray
    to the smaller boundary keeps log discrepancies nonnegative on every
    cone whose image contains that ray.  The auxiliary boundary b_plus
    carries the hypotheses that B carries in the other harnesses."""
    f, b_plus, tau_z, eps, _, d = _start(
        f, b_plus, tau_z, eps, radius, "the fiber is taken over a ray of the base"
    )
    measurements = [("delta", d)]
    witnesses, claims = [], []
    below = all(s <= t for s, t in zip(b_toric.coeffs, b_plus.coeffs))
    hypotheses = [
        ("boundary_below_auxiliary", below),
        ("auxiliary_trivial_over_base", rel_trivial_witness(f, b_plus) is not None),
    ]
    if _rel_mld_gate(f, b_plus, tau_z, eps, radius, hypotheses, measurements, witnesses):
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
    return VerificationReport(*map(tuple, (hypotheses, claims, measurements, witnesses)))


def _fiber_cones_minimum(f: ToricMorphism, a: PLFunction, w: Vec):
    """Least value of A, and the first point attaining it, over the
    generators and nonzero box points of each source cone whose image
    contains w; (None, None) when no cone qualifies.  Each point is
    evaluated with the numerators of the cone being scanned, which agree
    with A's value there because A matches on shared faces."""
    src = f.source
    den, nums = a.integral()
    worst = None
    worst_at = None
    for c, m, simplices in zip(src.max_cones, nums, singularities._triangulated(src)):
        gens = src.cone_gens(c)
        imgs = tuple(f.apply(g) for g in gens)
        imgs = tuple(g for g in imgs if not is_zero(g))
        if not contains(imgs, f.target.rank, w):
            continue
        points = list(gens)
        for simplex in simplices:
            # the first box point is the only zero one
            points.extend(box_points(src.cone_gens(simplex), src.rank)[1:])
        vals = values_at(m, points)
        least = min(vals, default=None)
        if least is not None and (worst is None or least < worst):
            worst, worst_at = least, points[vals.index(least)]
    if worst is None:
        return None, None
    return Fraction(worst, den), worst_at


@dataclass(frozen=True)
class ScanRow:
    q: int
    multiplicity: int
    inverse_delta: Fraction
    ratio: Fraction


def tightness_scan(r: int, q_list) -> tuple[ScanRow, ...]:
    """For each q, the central fiber multiplicity of the extremal family
    against the bound 1/delta(r, 1/q); the ratio stays bounded away from 0."""
    if not isinstance(r, int) or r < 1:
        raise DomainError(f"r must be a positive integer, got {r!r}")
    qs = sorted(set(int(q) for q in q_list))
    if not qs or qs[0] < 2:
        raise DomainError("each q must be an integer >= 2")
    rows = []
    for q in qs:
        m = u_sequence(r + 1, q) - 1
        inst = example_family(r, q)
        pulls = pullback_multiplicities(inst.f, 0)
        assert tuple(c for _, c in pulls) == (m,)
        dq = delta(r, Fraction(1, q))
        rows.append(ScanRow(q=q, multiplicity=m, inverse_delta=1 / dq, ratio=m * dq))
    return tuple(rows)


def tightness_csv(rows) -> str:
    lines = ["q,multiplicity,inverse_delta,ratio"]
    for row in rows:
        lines.append(
            f"{row.q},{row.multiplicity},{row.inverse_delta},{row.ratio}"
        )
    return "\n".join(lines) + "\n"
