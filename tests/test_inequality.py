import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given
from scipy.optimize import brentq

from partial_eraser import (
    Axis,
    Branch,
    DomainError,
    ExperimentConfig,
    MeasureStep,
    PartialMeasurementOp,
    Photon,
    Preparation,
    delta_ac,
    delta_pair,
    inequality_margin,
    violation_region,
    violation_report,
)
from partial_eraser.montecarlo import count_trials

# exact boundary: with w = sqrt(rho) + 1/sqrt(rho) the margin vanishes at
# the positive root of w^3 - 4 w^2 + 8 = 0, i.e. w = 1 + sqrt(5)
EXACT_BOUNDARY = ((1 + math.sqrt(5) + math.sqrt(2 + 2 * math.sqrt(5))) / 2) ** 2

log_rhos = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x)
HUGE_RHOS = [9.5e153, 1e154, 1.34e154, 1e300, 9e307, 1.7976931348623157e308]


def decimal_delta(r: Decimal) -> float:
    """delta(r) in 60-digit decimal arithmetic, rounded once to a float."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(1 - (1 + r.sqrt()) ** 2 / (2 + 2 * r))


class TestDeltaFunctions:
    def test_matched_ratio_agrees_perfectly(self):
        assert delta_pair(1.0) == 0.0
        assert delta_ac(1.0) == 0.0

    def test_ratio_two_is_three_percent(self):
        assert delta_pair(2.0) == pytest.approx(0.02860, abs=5e-6)
        assert round(delta_pair(2.0), 2) == 0.03

    def test_ratio_four_is_ten_percent(self):
        assert delta_pair(4.0) == pytest.approx(0.10, abs=1e-12)

    def test_chain_at_two_is_ten_percent(self):
        assert delta_ac(2.0) == pytest.approx(0.10, abs=1e-12)

    def test_chain_at_four(self):
        assert delta_ac(4.0) == pytest.approx(1 - 25 / 34, abs=1e-12)
        assert delta_ac(4.0) == pytest.approx(delta_pair(16.0), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            delta_pair(bad)
        with pytest.raises(DomainError):
            delta_ac(bad)

    @pytest.mark.parametrize(
        "function", [delta_pair, delta_ac, inequality_margin, violation_report]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_rho_outside_positive_reals(self, function, bad):
        # NaN once read 0.0, perfect agreement, and inf failed as "got 0.0".
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            function(bad)

    def test_chaining_identity_on_log_grid(self):
        for rho in np.geomspace(0.1, 100.0, 300):
            assert abs(delta_ac(rho) - delta_pair(rho * rho)) < 1e-12

    @given(log_rhos)
    def test_reciprocal_symmetry(self, rho):
        assert abs(delta_pair(rho) - delta_pair(1.0 / rho)) < 1e-12

    @given(log_rhos)
    def test_range(self, rho):
        assert 0.0 <= delta_pair(rho) < 0.5

    @pytest.mark.parametrize("rho", HUGE_RHOS)
    def test_delta_ac_at_huge_ratio(self, rho):
        assert abs(delta_ac(rho) - decimal_delta(Decimal(rho) ** 2)) < 1e-12

    @pytest.mark.parametrize("rho", [1e154, 9e307, 1.7976931348623157e308])
    def test_delta_pair_at_huge_ratio(self, rho):
        assert abs(delta_pair(rho) - decimal_delta(Decimal(rho))) < 1e-12


class TestViolation:
    def test_margin_at_two(self):
        report = violation_report(2.0)
        assert report.margin == pytest.approx(0.1 - 2 * delta_pair(2.0), abs=1e-15)
        assert report.margin == pytest.approx(0.04281, abs=1e-5)
        assert report.violated

    def test_margin_far_outside(self):
        assert inequality_margin(100.0) < 0.0
        assert not violation_report(100.0).violated

    def test_margin_at_huge_ratio(self):
        # both rates tend to 1/2, so the margin tends to 1/2 - 2 (1/2)
        assert violation_report(1e154).margin == pytest.approx(-0.5, abs=1e-12)

    def test_margin_positive_just_above_one(self):
        for rho in np.linspace(1.0 + 1e-4, 1.1, 200):
            assert inequality_margin(rho) > 0.0

    def test_margin_vanishes_at_one(self):
        assert abs(inequality_margin(1.0)) < 1e-12

    def test_boundary_against_brentq_oracle(self):
        low, high = violation_region(1e-9)
        assert low == 1.0
        oracle = brentq(inequality_margin, 8.0, 9.0, xtol=1e-12)
        assert high == pytest.approx(oracle, abs=1e-8)
        assert high == pytest.approx(EXACT_BOUNDARY, abs=1e-8)

    def test_boundary_at_loose_tolerance(self):
        _, fine = violation_region(1e-6)
        _, coarse = violation_region(1e-2)
        assert abs(coarse - fine) < 1e-2

    def test_tolerance_domain(self):
        with pytest.raises(DomainError):
            violation_region(0.0)

    def test_tolerance_below_float_spacing(self):
        # The bisection stops at adjacent floats instead of looping forever.
        _, high = violation_region(5e-324)
        assert abs(high - EXACT_BOUNDARY) < 1e-12

    @pytest.mark.parametrize(
        "tolerance, high",
        [
            (1e300, 12.0),
            (1e-2, 8.35546875),
            (1e-6, 8.352409839630127),
            (1e-9, 8.352410031948239),
            (5e-324, 8.352410032042776),
        ],
    )
    def test_region_bits_pinned(self, tolerance, high):
        # the bisection starts from [8, 16]; each tolerance stops it at a
        # fixed interval, whose midpoint is pinned bit for bit
        assert violation_region(tolerance) == (1.0, high)

    def test_margin_signs_bracket_the_region(self):
        # the facts the bisection's starting interval rests on
        assert inequality_margin(8.0) > 0.0 > inequality_margin(16.0)
        for eps in (1e-3, 1e-2, 1e-1):
            assert inequality_margin(1.0 + eps) > 0.0

    def test_bound_broken_below_one(self):
        # delta(r) = delta(1/r), so the region mirrors onto (1 / 8.35..., 1)
        for rho in np.linspace(1.01, 8.3, 200):
            assert violation_report(1.0 / rho).violated
            assert inequality_margin(1.0 / rho) == pytest.approx(
                inequality_margin(rho), rel=1e-9
            )
        assert not violation_report(1.0 / 8.4).violated


def disagreement_rate(k, trials, seed):
    """Sampled diagonal disagreement of a pair prepared at ratio k, and the
    number of surviving trials it is measured over."""
    config = ExperimentConfig(
        Preparation.epr(),
        (MeasureStep(Photon.A, PartialMeasurementOp(Axis.X, Branch.PLUS, 1.0 / k)),),
        Axis.Y,
        trials,
        seed,
    )
    _, surviving, agreeing = count_trials(config)
    return (surviving - agreeing) / surviving, surviving


class TestMonteCarloConsistency:
    @pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
    def test_single_leg_rates(self, rho):
        rate, n = disagreement_rate(rho, 100_000, seed=1234)
        expected = delta_pair(rho)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 3 * sigma

    def test_chained_disagreement_exceeds_sum(self):
        trials = 100_000
        ab = disagreement_rate(2.0, trials, seed=11)
        bc = disagreement_rate(2.0, trials, seed=22)
        ac = disagreement_rate(4.0, trials, seed=33)
        excess = ac[0] - ab[0] - bc[0]
        sigma = math.sqrt(sum(r * (1 - r) / n for r, n in (ab, bc, ac)))
        assert excess > 5 * sigma
