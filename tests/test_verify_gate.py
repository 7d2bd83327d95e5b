"""The verify_* harnesses share one prologue, one relative-mld gate and one
claim helper.  A sweep compares every report field and status with the
harnesses as they were before (``reference_verify_*`` in helpers) and
requires each path through the prologue and gate to be taken at least
once; a table pins the error each harness raises on each bad input.
"""

import random
from fractions import Fraction

import pytest

from helpers import (
    a1,
    identity_morphism,
    outcome,
    p1,
    product_fan,
    random_half_plane_fibration,
    reference_verify_adjunction_theorem,
    reference_verify_fano_contraction_theorem,
    reference_verify_lc_complement_theorem,
    to_a1,
)
from toricmld import fibration
from toricmld.bounds import (
    VerificationReport,
    example_family,
    verify_adjunction_theorem,
    verify_fano_contraction_theorem,
    verify_lc_complement_theorem,
)
from toricmld.divisors import divisor, zero_divisor
from toricmld.errors import DomainError
from toricmld.fans import fan
from toricmld.fibration import morphism
from toricmld.singularities import MINUS_INFINITY

FANO = (verify_fano_contraction_theorem, reference_verify_fano_contraction_theorem)
ADJUNCTION = (verify_adjunction_theorem, reference_verify_adjunction_theorem)
LC = (verify_lc_complement_theorem, reference_verify_lc_complement_theorem)

HALF, ONE = Fraction(1, 2), Fraction(1)
OUTCOMES = {
    "relative_mld_lower_bound": "certified_at_least",
    "relative_mld_upper_bound": "witness",
    "relative_mld_search_budget_exhausted_after": "budget_exhausted",
    "relative_mld_search_radius": "indeterminate",
}


def paths(name, rep):
    """The paths through the prologue and gate that rep shows were taken."""
    hyp, meas = dict(rep.hypotheses), dict(rep.measurements)
    out = set()
    if hyp.get("boundary_below_auxiliary") is False:
        out.add("below_false")
    if False in (ok for h, ok in rep.hypotheses if h.endswith("_trivial_over_base")):
        out.add(name + ":trivial_false")
    for key, value in meas.items():
        if key == "relative_mld":
            out.add(name + (":minus_infinity" if value is MINUS_INFINITY else ":exact"))
            out.add("minus_infinity" if value is MINUS_INFINITY else "exact")
        elif key in OUTCOMES:
            out.add(OUTCOMES[key])
    if meas.get("base_q_gorenstein") is False:
        out.add("base_not_q_gorenstein")
    if any(c.startswith("probe_") for c, _ in rep.claims):
        out.add("probes")
    return out


def same(pair, *args, **kwargs):
    """Run a harness and its reference on one input; both must return equal
    reports with equal statuses, or raise the same error."""
    got, want = (outcome(fn, *args, **kwargs) for fn in pair)
    assert got == want
    if isinstance(want, VerificationReport):
        assert (got.status, got.passed) == (want.status, want.passed)
    return got


def vertical_trivial(f, mu):
    """Coefficients 1 - mu * (last coordinate), trivial over A^1."""
    return divisor(f.source, [1 - mu * v[-1] for v in f.source.rays])


def sweep(seeds):
    taken = set()

    def run(name, pair, *args, **kwargs):
        rep = same(pair, *args, **kwargs)
        if isinstance(rep, VerificationReport):
            taken.update(paths(name, rep))

    for seed in seeds:
        rng = random.Random(seed)
        f = random_half_plane_fibration(rng, extra_rank=seed % 2)
        src = f.source
        rands = [
            divisor(src, [rng.choice((0, HALF, ONE, ONE, Fraction(3, 2))) for _ in src.rays])
            for _ in range(3)
        ]
        rand = rands[0]
        triv = vertical_trivial(f, Fraction(rng.randrange(0, 5), 4))
        above = divisor(src, [c + rng.choice((0, HALF)) for c in triv.coeffs])
        below = divisor(src, [c - rng.choice((0, HALF)) for c in triv.coeffs])
        for eps in (Fraction(1, 3), ONE):
            for radius in (0, 2):
                for b in rands:
                    run("fano", FANO, f, b, (0,), eps, radius=radius)
                for b in (rand, triv):
                    run("adjunction", ADJUNCTION, f, b, (0,), eps, radius=radius)
                for b_toric, b_plus in ((below, triv), (above, triv), (below, rand)):
                    run("lc", LC, f, b_toric, b_plus, (0,), eps, radius=radius)
    return taken


SWEEP_PATHS = {
    "below_false",
    "adjunction:trivial_false",
    "lc:trivial_false",
    "exact",
    "minus_infinity",
    "certified_at_least",
    "witness",
    "adjunction:exact",
    "lc:exact",
}


def test_sweep_matches_reference():
    taken = sweep(range(16))
    assert SWEEP_PATHS <= taken, SWEEP_PATHS - taken


def test_family_instances_match_reference():
    for r, q in ((1, 2), (1, 3), (2, 2)):
        inst = example_family(r, q)
        zero = zero_divisor(inst.x)
        plus = vertical_trivial(inst.f, Fraction(1, 8))
        for eps in (Fraction(1, 4), HALF):
            for rep in (
                same(FANO, inst, eps=eps, radius=6),
                same(FANO, inst, plus, (0,), eps, radius=6),
                same(ADJUNCTION, inst, eps=eps, radius=6),
                same(ADJUNCTION, inst, plus, (0,), eps, radius=6),
                same(LC, inst, zero, plus, (0,), eps, radius=6),
            ):
                assert isinstance(rep, VerificationReport)


def non_q_gorenstein_base():
    """The non-Q-Gorenstein cone over (1, 0, 1), (0, 1, 1), (-1, 0, 1),
    (0, -1, 2) times P^1 over it, with -1 on the ray over (0, -1, 2) so that
    the source pair is Q-Cartier while the base's canonical class is not."""
    z = fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)], [(0, 1, 2, 3)])
    x = product_fan(z, p1())
    f = morphism(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), x, z)
    return f, divisor(x, [-1 if v == (0, -1, 2, 0) else 0 for v in x.rays])


def test_non_q_gorenstein_base_matches_reference():
    f, b = non_q_gorenstein_base()
    for w in range(len(f.target.rays)):
        rep = same(FANO, f, b, (w,), HALF, radius=4)
        assert "base_not_q_gorenstein" in paths("fano", rep)


def searched_pair():
    """P^1 times a half-plane fibration over A^1, with a boundary whose
    closed-region bound 0 lies below eps = 1/3 and 2/3 while the least
    value the radius-capped search finds is 1/2."""
    src = fan(
        3,
        [(-1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 5, 3), (1, 0, 0)],
        [(0, 1, 3), (0, 2, 3), (1, 3, 4), (2, 3, 4)],
    )
    coeffs = {(-1, 0, 0): 1, (0, -1, 0): HALF, (0, 1, 0): 0, (0, 5, 3): HALF, (1, 0, 0): 1}
    return to_a1(src), divisor(src, [coeffs[v] for v in src.rays])


def test_indeterminate_and_witness_match_reference():
    f, b = searched_pair()
    taken = set()
    for eps in (Fraction(1, 3), Fraction(2, 3)):
        for radius in (0, 2):
            taken |= paths("fano", same(FANO, f, b, (0,), eps, radius=radius))
    assert {"indeterminate", "witness"} <= taken


def test_budget_exhausted_matches_reference(monkeypatch):
    monkeypatch.setattr(fibration, "_SEARCH_BUDGET", 2)
    f, b = searched_pair()
    assert "budget_exhausted" in paths("fano", same(FANO, f, b, (0,), Fraction(1, 3), radius=2))
    sweep(range(4))


def test_probes_match_reference():
    src = product_fan(p1(), product_fan(p1(), a1()))
    tgt = product_fan(p1(), a1())
    f = morphism(((0, 1, 0), (0, 0, 1)), src, tgt)
    tau = (tgt.rays.index((0, 1)),)
    taken = set()
    for c in (0, HALF):
        hb = divisor(src, [1 if v[0] != 0 else c for v in src.rays])
        for eps in (HALF, ONE):
            rep = same(ADJUNCTION, f, hb, tau, eps, probes=((1, 1), (-1, 2), (2, 1)), radius=4)
            taken |= paths("adjunction", rep)
    assert "probes" in taken


# -- errors --------------------------------------------------------------------

RADIUS = (DomainError, "the search radius must be >= 0, got -1")
MISSING = (DomainError, "b and tau_z are required unless a family instance is given")
FANO_RAY = (DomainError, "multiplicities are read off over a ray of the base")
LC_RAY = (DomainError, "the fiber is taken over a ray of the base")
REL_DIM = (DomainError, "the fibration must have positive relative dimension")


def eps_error(eps):
    return (DomainError, f"eps must lie in (0, 1], got {eps}")


def error_cases():
    """(label, calls, errors): each harness and its reference called on one
    bad input, with the error the harness raises."""
    src = product_fan(p1(), a1())
    f = to_a1(src)
    zero = zero_divisor(src)
    hb = divisor(src, [1 if v[1] == 0 else 0 for v in src.rays])  # trivial over A^1
    ident = identity_morphism(a1())
    izero = zero_divisor(a1())
    two = Fraction(2)

    def call(f, b, tau, eps, radius=4, b_toric=zero):
        return (
            (FANO, (f, b, tau, eps), {"radius": radius}),
            (ADJUNCTION, (f, b, tau, eps), {"radius": radius}),
            (LC, (f, b_toric, b, tau, eps), {"radius": radius}),
        )

    return [
        ("negative radius", call(f, zero, (0,), HALF, radius=-1), (RADIUS,) * 3),
        ("radius before b", call(f, None, (0,), HALF, radius=-1), (RADIUS,) * 3),
        ("missing b", call(f, None, (0,), HALF), (MISSING,) * 3),
        ("missing tau_z", call(f, zero, None, HALF), (MISSING,) * 3),
        ("missing before ray", call(f, None, (0, 1), 0), (MISSING,) * 3),
        (
            # the adjunction harness takes any base cone, so its error comes
            # from relative_mld in the gate, after the triviality hypothesis
            "tau_z not a ray",
            call(f, hb, (), HALF),
            (FANO_RAY, (DomainError, "the base cone must have dimension >= 1"), LC_RAY),
        ),
        (
            "ray before relative dimension",
            call(ident, izero, (), HALF, b_toric=izero),
            (FANO_RAY, REL_DIM, LC_RAY),
        ),
        ("relative dimension 0", call(ident, izero, (0,), HALF, b_toric=izero), (REL_DIM,) * 3),
        (
            "relative dimension before eps",
            call(ident, izero, (0,), two, b_toric=izero),
            (REL_DIM,) * 3,
        ),
        ("eps 0", call(f, zero, (0,), 0), (eps_error(0),) * 3),
        ("eps 2", call(f, zero, (0,), two), (eps_error(2),) * 3),
        ("eps -1/2", call(f, zero, (0,), -HALF), (eps_error(-HALF),) * 3),
    ]


CASES = error_cases()

# Where the shared prologue changed what a harness raises: the parent's
# fano harness left relative dimension 0 to delta, and its lc harness
# neither required b_plus and tau_z nor checked them before the ray check.
PARENT_ERRORS = {
    ("missing b", 2): (AttributeError, "'NoneType' object has no attribute 'coeffs'"),
    ("missing tau_z", 2): (TypeError, "object of type 'NoneType' has no len()"),
    ("missing before ray", 2): LC_RAY,
    ("relative dimension 0", 0): (DomainError, "r must be a positive integer, got 0"),
    ("relative dimension before eps", 0): (DomainError, "r must be a positive integer, got 0"),
}


@pytest.mark.parametrize("label, calls, errors", CASES, ids=[c[0] for c in CASES])
def test_error_precedence(label, calls, errors):
    for i, ((fn, ref), args, kwargs) in enumerate(calls):
        assert outcome(fn, *args, **kwargs) == errors[i]
        assert outcome(ref, *args, **kwargs) == PARENT_ERRORS.get((label, i), errors[i])
