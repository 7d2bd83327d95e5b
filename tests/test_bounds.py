from fractions import Fraction

import pytest

from helpers import a1, a2, identity_morphism, p1, p2, product_fan, to_a1
from toricmld import fibration
from toricmld.bounds import (
    _rel_mld_gate,
    FamilyInstance,
    VerificationReport,
    delta,
    example_family,
    tightness_csv,
    tightness_scan,
    u_sequence,
    verify_adjunction_theorem,
    verify_fano_contraction_theorem,
    verify_lc_complement_theorem,
)
from toricmld.divisors import boundary_divisor, divisor, zero_divisor
from toricmld.errors import DomainError
from toricmld.fibration import (
    generic_fiber_fan,
    morphism,
    pullback_multiplicities,
    relative_mld,
)
from toricmld.mfs import q_vector
from toricmld.singularities import is_eps_lc


class TestDelta:
    def test_rank_one_is_half_eps_squared(self):
        for k in range(1, 11):
            eps = Fraction(k, 10)
            assert delta(1, eps) == eps**2 / 2

    def test_anchor_values(self):
        assert delta(1, Fraction(1, 2)) == Fraction(1, 8)
        assert delta(2, Fraction(1, 2)) == Fraction(1, 2048)
        assert delta(3, 1) == Fraction(1, 13436928)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta(0, Fraction(1, 2))
        with pytest.raises(DomainError):
            delta(1, 0)
        with pytest.raises(DomainError):
            delta(1, Fraction(3, 2))
        with pytest.raises(DomainError):
            delta(1, Fraction(-1, 2))

    def test_monotone_in_eps_and_rank(self):
        grid = [Fraction(k, 10) for k in range(1, 11)]
        for r in range(1, 5):
            for lo, hi in zip(grid, grid[1:]):
                assert delta(r, lo) < delta(r, hi)
        for eps in grid:
            for r in range(1, 4):
                assert delta(r + 1, eps) < delta(r, eps)

    def test_composition_bound(self):
        for s, t in [(1, 1), (1, 2), (2, 1)]:
            for eps in [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1, 1)]:
                assert delta(s + t, eps) <= delta(t, delta(s, eps))


class TestUSequence:
    def test_anchors(self):
        assert u_sequence(1, 2) == 2
        assert u_sequence(3, 2) == 42
        assert u_sequence(2, 3) == 12

    def test_domain(self):
        with pytest.raises(DomainError):
            u_sequence(0, 2)
        with pytest.raises(DomainError):
            u_sequence(1, 0)

    def test_growth_order(self):
        for r in range(1, 4):
            for q in range(2, 11):
                u = u_sequence(r + 1, q)
                assert q ** (2**r) <= u <= (2 * q) ** (2**r)


class TestExampleFamily:
    def test_rank_one_q_two(self):
        inst = example_family(1, 2)
        assert set(inst.x.rays) == {(1, 0), (-1, 0), (-2, 5)}
        assert inst.x.rays[inst.multiple_ray] == (-2, 5)
        assert inst.z.rays == ((1,),)

    def test_rank_one_q_one(self):
        inst = example_family(1, 1)
        assert set(inst.x.rays) == {(1, 0), (-1, 0), (-1, 1)}
        assert pullback_multiplicities(inst.f, 0) == (((-1, 1), 1),)

    def test_rank_two_q_two(self):
        inst = example_family(2, 2)
        assert set(inst.x.rays) == {
            (1, -2, 0),
            (-2, 5, 0),
            (-1, -1, 0),
            (-2, -2, 41),
        }
        _, fib = generic_fiber_fan(inst.f)
        assert sorted(q_vector(fib).q) == [1, 3, 7]

    def test_multiplicity_formula(self):
        for r in (1, 2):
            for q in range(1, 6):
                inst = example_family(r, q)
                pulls = pullback_multiplicities(inst.f, 0)
                assert len(pulls) == 1
                v, c = pulls[0]
                assert v == inst.x.rays[inst.multiple_ray]
                assert c == u_sequence(r + 1, q) - 1

    def test_family_is_one_over_q_lc(self):
        for r in (1, 2):
            for q in range(1, 6):
                inst = example_family(r, q)
                assert is_eps_lc(inst.x, zero_divisor(inst.x), Fraction(1, q))

    def test_domain(self):
        with pytest.raises(DomainError):
            example_family(0, 2)
        with pytest.raises(DomainError):
            example_family(1, 0)


def horizontal_pair():
    """P1 x A1 over A1 with the two fiber sections as boundary."""
    src = product_fan(p1(), a1())
    f = to_a1(src)
    hb = divisor(src, [1 if r[1] == 0 else 0 for r in src.rays])
    return f, hb


class TestVerifyFano:
    def test_family_rank_one(self):
        rep = verify_fano_contraction_theorem(example_family(1, 2), eps=Fraction(1, 2))
        assert rep.status == "pass"
        m = dict(rep.measurements)
        assert m["relative_mld"] == Fraction(3, 5)
        assert m["multiplicities"] == (5,)
        assert m["multiplicity_bound"] == 8
        assert m["base_mld"] == 1

    def test_family_rank_two(self):
        rep = verify_fano_contraction_theorem(example_family(2, 2), eps=Fraction(1, 2))
        assert rep.status == "pass"
        m = dict(rep.measurements)
        assert m["multiplicities"] == (41,)
        assert m["multiplicity_bound"] == 2048

    def test_trivial_product(self):
        f, hb = horizontal_pair()
        rep = verify_fano_contraction_theorem(f, hb, (0,), eps=1)
        assert rep.status == "pass"
        m = dict(rep.measurements)
        assert m["multiplicities"] == (1,)
        assert m["multiplicity_bound"] == 2

    def test_requires_base_ray(self):
        f, hb = horizontal_pair()
        with pytest.raises(DomainError):
            verify_fano_contraction_theorem(f, hb, (), eps=1)


class TestVerifyAdjunction:
    def test_trivial_product(self):
        f, hb = horizontal_pair()
        rep = verify_adjunction_theorem(f, hb, (0,), eps=1)
        assert rep.status == "pass"
        m = dict(rep.measurements)
        assert m["alpha"] == 1
        assert m["base_boundary"] == (Fraction(0),)
        assert m["base_mld"] == 1

    def test_full_boundary_fails_hypothesis(self):
        inst = example_family(1, 2)
        rep = verify_adjunction_theorem(inst, boundary_divisor(inst.x), (0,), eps=Fraction(1, 2))
        assert rep.status == "hypothesis_failed"
        assert dict(rep.hypotheses)["relative_mld_at_least_eps"] is False
        assert rep.claims == ()
        assert rep.passed  # nothing asserted, nothing failed

    def test_zero_boundary_not_trivial_over_base(self):
        inst = example_family(1, 2)
        rep = verify_adjunction_theorem(inst, zero_divisor(inst.x), (0,), eps=Fraction(1, 2))
        assert rep.status == "hypothesis_failed"
        assert dict(rep.hypotheses)["pair_trivial_over_base"] is False

    def test_probed_base_subdivision(self):
        # fibration with a rank-2 base so the base genuinely subdivides
        src = product_fan(p1(), product_fan(p1(), a1()))
        tgt = product_fan(p1(), a1())
        f = morphism(((0, 1, 0), (0, 0, 1)), src, tgt)
        hb = divisor(src, [1 if r[0] != 0 else 0 for r in src.rays])
        tau = (tgt.rays.index((0, 1)),)
        rep = verify_adjunction_theorem(f, hb, tau, eps=1, probes=((1, 1), (-1, 2)))
        assert rep.status == "pass"
        labels = [name for name, _ in rep.claims]
        assert "probe_1,1_mld_at_least_delta" in labels
        assert "probe_-1,2_mld_at_least_delta" in labels


class TestSearchGate:
    def test_negative_radius_rejected(self):
        """Also where a failed hypothesis ends the harness before any search."""
        inst = example_family(1, 2)
        zero, full = zero_divisor(inst.x), boundary_divisor(inst.x)
        eps = Fraction(1, 2)
        calls = [
            lambda r: relative_mld(inst.f, full, (0,), eps, radius=r),
            lambda r: verify_fano_contraction_theorem(inst, eps=eps, radius=r),
            lambda r: verify_adjunction_theorem(inst, zero, (0,), eps=eps, radius=r),
            lambda r: verify_lc_complement_theorem(inst, zero, full, (0,), eps, radius=r),
        ]
        for call in calls:
            call(0)
            with pytest.raises(DomainError):
                call(-1)

    def test_budget_exhausted_is_named(self, monkeypatch):
        monkeypatch.setattr(fibration, "_SEARCH_BUDGET", 2)
        src = a2()
        f = identity_morphism(src)
        b = divisor(src, [1 if r == (0, 1) else 0 for r in src.rays])
        hypotheses, measurements, witnesses = [], [], []
        ok = _rel_mld_gate(f, b, (0, 1), Fraction(1, 2), 3, hypotheses, measurements, witnesses)
        assert ok is False
        assert hypotheses == [("relative_mld_at_least_eps", False)]
        assert measurements == [("relative_mld_search_budget_exhausted_after", 2)]
        assert witnesses == []


class TestVerifyLcComplement:
    def test_trivial_product(self):
        f, hb = horizontal_pair()
        rep = verify_lc_complement_theorem(f, zero_divisor(f.source), hb, (0,), 1)
        assert rep.status == "pass"
        m = dict(rep.measurements)
        assert m["delta"] == Fraction(1, 2)
        assert m["minimum_log_discrepancy_found"] >= 0

    def test_full_boundary_fails_hypothesis(self):
        f, _ = horizontal_pair()
        full = boundary_divisor(f.source)
        rep = verify_lc_complement_theorem(f, full, full, (0,), 1)
        assert rep.status == "hypothesis_failed"

    def test_family_with_full_auxiliary_fails_hypothesis(self):
        inst = example_family(1, 2)
        rep = verify_lc_complement_theorem(
            inst, zero_divisor(inst.x), boundary_divisor(inst.x), (0,), Fraction(1, 2)
        )
        assert rep.status == "hypothesis_failed"

    def test_coefficient_order_gate(self):
        f, hb = horizontal_pair()
        rep = verify_lc_complement_theorem(f, hb, zero_divisor(f.source), (0,), 1)
        assert rep.status == "hypothesis_failed"
        assert dict(rep.hypotheses)["boundary_below_auxiliary"] is False


class TestTightnessScan:
    def test_rank_one_rows(self):
        rows = tightness_scan(1, [2, 3, 10])
        assert [(r.q, r.multiplicity, r.inverse_delta, r.ratio) for r in rows] == [
            (2, 5, 8, Fraction(5, 8)),
            (3, 11, 18, Fraction(11, 18)),
            (10, 109, 200, Fraction(109, 200)),
        ]

    def test_rank_two_row(self):
        (row,) = tightness_scan(2, [2])
        assert (row.multiplicity, row.inverse_delta, row.ratio) == (
            41,
            2048,
            Fraction(41, 2048),
        )

    def test_rows_past_rank_three(self):
        """The family builds and its multiplicity assert holds at r = 4 and 5;
        no rank cap is left."""
        got = [(r, row) for r, q in ((4, 2), (4, 3), (5, 2)) for row in tightness_scan(r, [q])]
        assert [row.multiplicity for _, row in got] == [3_263_441, 599_882_555, 10_650_056_950_805]
        for r, row in got:
            assert row.inverse_delta == 1 / delta(r, Fraction(1, row.q))
            assert row.ratio == row.multiplicity * delta(r, Fraction(1, row.q))

    def test_ratio_band_and_monotonicity(self):
        rows = tightness_scan(1, range(2, 13))
        ratios = [r.ratio for r in rows]
        assert all(Fraction(2, 5) <= x <= Fraction(2, 3) for x in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(x > Fraction(1, 2) for x in ratios)

    def test_rows_sorted_and_deduplicated(self):
        rows = tightness_scan(1, [5, 2, 5, 3])
        assert [r.q for r in rows] == [2, 3, 5]

    def test_csv_shape(self):
        text = tightness_csv(tightness_scan(1, [2, 3]))
        lines = text.strip().split("\n")
        assert lines[0] == "q,multiplicity,inverse_delta,ratio"
        assert lines[1] == "2,5,8,5/8"
        assert lines[2] == "3,11,18,11/18"

    def test_domain(self):
        with pytest.raises(DomainError):
            tightness_scan(1, [1, 2])
        with pytest.raises(DomainError):
            tightness_scan(0, [2])
        with pytest.raises(DomainError):
            tightness_scan(1, [])
