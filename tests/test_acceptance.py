"""End-to-end checks over the public API.

Each test covers one numbered criterion, prints a single PASS/FAIL summary
line (run pytest with -s to see them), and enforces its runtime budget.
All comparisons are exact rational arithmetic.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from helpers import (
    a1,
    certified_search_radius,
    ex13_r1_q2,
    p1,
    p2,
    p112,
    p123,
    product_fan,
    random_fan,
    random_wps_fan,
    to_a1,
)
from toricmld.bounds import delta, example_family, tightness_scan, u_sequence
from toricmld.divisors import (
    boundary_divisor,
    divisor,
    rel_trivial_witness,
    zero_divisor,
)
from toricmld.fans import star_subdivision
from toricmld.fibration import (
    discriminant_divisor,
    morphism,
    pullback_multiplicities,
    validate_morphism,
)
from toricmld.intlinalg import mat_mul, primitive, vec_scale
from toricmld.mfs import extremal_log_discrepancies, factor_mfs, q_vector
from toricmld.singularities import (
    MINUS_INFINITY,
    brute_force_mld_in_ball,
    global_mld,
    is_eps_lc,
    log_discrepancy,
)


def _finish(tag: str, start: float, budget_s: float, failures: list) -> None:
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        failures.append(f"runtime {elapsed:.4f}s exceeds budget {budget_s}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"[{tag}] {verdict} ({elapsed * 1000:.2f} ms)")
    assert not failures, "; ".join(str(x) for x in failures)


def test_criterion_1_delta_formula():
    start = time.perf_counter()
    failures = []
    for k in range(1, 11):
        eps = Fraction(k, 10)
        if delta(1, eps) != eps**2 / 2:
            failures.append(f"delta(1,{eps}) != eps^2/2")
    # independent big-integer evaluation of the closed form
    def reference(r, eps):
        denom = 2 ** (2**r - 1)
        for i in range(1, r + 1):
            denom *= i ** (2**i)
        return Fraction(eps.numerator ** (2**r), eps.denominator ** (2**r) * denom)

    for r, eps, expected in [
        (2, Fraction(1, 2), Fraction(1, 2048)),
        (3, Fraction(1), Fraction(1, 13436928)),
    ]:
        got = delta(r, eps)
        if got != expected:
            failures.append(f"delta({r},{eps}) = {got}, expected {expected}")
        if got != reference(r, eps):
            failures.append(f"delta({r},{eps}) disagrees with reference evaluation")
    _finish("criterion 1: explicit bound formula", start, 0.001, failures)


def test_criterion_2_example_instance_mld():
    start = time.perf_counter()
    failures = []
    x = example_family(1, 2).x
    b = zero_divisor(x)
    rep = global_mld(x, b)
    if rep.value != Fraction(3, 5):
        failures.append(f"global mld {rep.value}, expected 3/5")
    radius = certified_search_radius(x, b, rep.value)
    val, _ = brute_force_mld_in_ball(x, b, radius)
    if val != Fraction(3, 5):
        failures.append(f"ball search in radius {radius} found {val}")
    if not is_eps_lc(x, b, Fraction(1, 2)):
        failures.append("instance is not 1/2-lc")
    _finish("criterion 2: extremal instance mld 3/5", start, 1.0, failures)


def test_criterion_3_fiber_multiplicities():
    start = time.perf_counter()
    failures = []
    for r in (1, 2):
        for q in range(1, 6):
            inst = example_family(r, q)
            pulls = pullback_multiplicities(inst.f, 0)
            expected = u_sequence(r + 1, q) - 1
            if len(pulls) != 1:
                failures.append(f"(r={r},q={q}): {len(pulls)} components")
                continue
            _, mult = pulls[0]
            if mult != expected:
                failures.append(f"(r={r},q={q}): multiplicity {mult} != {expected}")
            if mult > 1 / delta(r, Fraction(1, q)):
                failures.append(f"(r={r},q={q}): {mult} exceeds 1/delta")
    _finish("criterion 3: fiber multiplicity bound", start, 5.0, failures)


def test_criterion_4_extremal_discrepancies():
    start = time.perf_counter()
    failures = []
    fans = [p2(), p112(), p123()]
    rng = random.Random(4)
    for rank in (1, 2, 3):
        fans.extend(random_wps_fan(rng, rank) for _ in range(4))
    for f in fans:
        q = q_vector(f).q
        a = extremal_log_discrepancies(f)
        for i, (qi, v) in enumerate(zip(q, f.rays)):
            closed = Fraction(sum(q) - qi, qi)
            direct = log_discrepancy(f, zero_divisor(f), primitive(vec_scale(-1, v)))
            if not (a[i] == closed == direct):
                failures.append(f"{f.rays}: ray {i} gives {a[i]}, {closed}, {direct}")
    _finish("criterion 4: extremal fiber discrepancies", start, 1.0, failures)


def _adjunction_fixtures():
    fixtures = [example_family(r, q).f for r, q in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]]
    for fiber in (p1(), p2(), p112()):
        fixtures.append(to_a1(product_fan(fiber, a1())))
    fixtures.append(to_a1(star_subdivision(product_fan(p1(), a1()), (1, 1))))
    base = star_subdivision(product_fan(p1(), a1()), (1, 1))
    fixtures.append(morphism(((0, 1, 0), (0, 0, 1)), product_fan(p1(), base), base))
    base2 = star_subdivision(product_fan(p1(), a1()), (1, 2))
    fixtures.append(
        morphism(((0, 0, 1, 0), (0, 0, 0, 1)), product_fan(p2(), base2), base2)
    )
    return fixtures


def test_criterion_5_discriminant_of_toric_boundary():
    start = time.perf_counter()
    failures = []
    fixtures = _adjunction_fixtures()
    if len(fixtures) < 10:
        failures.append(f"only {len(fixtures)} fixtures")
    for f in fixtures:
        res = discriminant_divisor(f, boundary_divisor(f.source))
        if res.divisor.coeffs != boundary_divisor(f.target).coeffs:
            failures.append(f"{f.matrix}: discriminant {res.divisor.coeffs}")
        if not res.moduli_is_zero:
            failures.append(f"{f.matrix}: moduli part not zero")
    _finish("criterion 5: boundary adjunction on 11 fixtures", start, 5.0, failures)


def test_criterion_6_mfs_factorization():
    start = time.perf_counter()
    failures = []
    cases = [
        (example_family(2, 2).f, Fraction(4, 7)),
        (to_a1(product_fan(p2(), a1())), Fraction(2)),
    ]
    for f, expected_ae in cases:
        res = factor_mfs(f)
        r = validate_morphism(f).relative_dimension
        if res.a_e != expected_ae:
            failures.append(f"a_e {res.a_e}, expected {expected_ae}")
        if res.a_e > r:
            failures.append(f"a_e {res.a_e} exceeds relative dimension {r}")
        if res.g.target.rank != f.source.rank - 1:
            failures.append("intermediate base rank is not one less")
        if mat_mul(res.h.matrix, res.g.matrix) != f.matrix:
            failures.append("h o g != f")
        for name, leg in [("pi", res.pi), ("g", res.g), ("h", res.h)]:
            d = validate_morphism(leg)
            if not (d.is_proper and d.is_contraction):
                failures.append(f"{name} is not a proper contraction")
    _finish("criterion 6: mfs factorization", start, 1.0, failures)


def _rel_trivial_boundaries():
    """P1 x A1 over A1 with every boundary trivial over the base."""
    plain = product_fan(p1(), a1())
    cases = []
    for f, slopes in [
        (to_a1(plain), (0, Fraction(1, 3), Fraction(1, 2), 1)),
        (to_a1(star_subdivision(plain, (1, 1))), (0, Fraction(1, 2), 1)),
        (to_a1(star_subdivision(plain, (1, 2))), (0, Fraction(1, 4), Fraction(1, 2))),
    ]:
        src = f.source
        boundaries = [
            divisor(src, [1 if r[1] == 0 else 1 - m * r[1] for r in src.rays])
            for m in slopes
        ]
        cases.append((f, boundaries))
    return cases


def test_criterion_7_averaging_convexity():
    start = time.perf_counter()
    failures = []
    for f, boundaries in _rel_trivial_boundaries():
        for b in boundaries:
            if rel_trivial_witness(f, b) is None:
                failures.append(f"{b.coeffs}: not trivial over the base")
        discs = [discriminant_divisor(f, b).divisor.coeffs for b in boundaries]
        for (b, db), (g, dg) in combinations(zip(boundaries, discs), 2):
            for alpha in (Fraction(1, 2), Fraction(1, 3)):
                mixed = divisor(
                    f.source,
                    [alpha * x + (1 - alpha) * y for x, y in zip(b.coeffs, g.coeffs)],
                )
                dm = discriminant_divisor(f, mixed).divisor.coeffs
                for i, (m, x, y) in enumerate(zip(dm, db, dg)):
                    if m > alpha * x + (1 - alpha) * y:
                        failures.append(
                            f"ray {i}: mixed coefficient {m} exceeds the average"
                        )
    _finish("criterion 7: discriminant averaging", start, 1.0, failures)


def test_criterion_8_tightness():
    start = time.perf_counter()
    failures = []
    rows = tightness_scan(1, range(2, 51))
    ratios = [row.ratio for row in rows]
    for row in rows:
        if not Fraction(2, 5) <= row.ratio <= Fraction(2, 3):
            failures.append(f"q={row.q}: ratio {row.ratio} outside [2/5, 2/3]")
    for a, b in zip(ratios, ratios[1:]):
        if not a > b:
            failures.append("ratio sequence is not strictly decreasing")
            break
    if not all(r > Fraction(1, 2) for r in ratios):
        failures.append("a ratio dropped to 1/2 or below")
    if ratios[-1] - Fraction(1, 2) >= Fraction(1, 100):
        failures.append(f"final ratio {ratios[-1]} is not approaching 1/2")
    for r in (1, 2, 3):
        for q in range(2, 11):
            u = u_sequence(r + 1, q)
            if not q ** (2**r) <= u <= (2 * q) ** (2**r):
                failures.append(f"u_{r + 1},{q} = {u} outside [q^(2^r), (2q)^(2^r)]")
    _finish("criterion 8: tightness of the exponent", start, 1.0, failures)


def test_criterion_9_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    checked = 0
    seed = 0
    while checked < 50:
        rng = random.Random(seed)
        seed += 1
        f = random_fan(rng, max_rank=3, subdivisions=2)
        denom = rng.choice([2, 3, 4, 5, 6])
        b = divisor(f, [Fraction(rng.randrange(0, denom + 1), denom) for _ in f.rays])
        rep = global_mld(f, b)
        if rep.value is MINUS_INFINITY:
            failures.append(f"seed {seed - 1}: minus infinity with coefficients <= 1")
            checked += 1
            continue
        if log_discrepancy(f, b, rep.witness) != rep.value:
            failures.append(f"seed {seed - 1}: witness does not attain the value")
        if rep.value == 0:
            radius = max(8, max(abs(t) for t in rep.witness))
        else:
            radius = certified_search_radius(f, b, rep.value)
            if radius > 8:
                radius = max(8, max(abs(t) for t in rep.witness))
        val, _ = brute_force_mld_in_ball(f, b, radius)
        if val != rep.value:
            failures.append(f"seed {seed - 1}: ball oracle found {val}, not {rep.value}")
        checked += 1
    _finish("criterion 9: oracle agreement on 50 random fans", start, 60.0, failures)
