import math

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from partial_eraser import (
    Axis,
    Branch,
    DomainError,
    ExperimentConfig,
    IntensityQuadruple,
    MeasureStep,
    PairState,
    PartialMeasurementOp,
    Photon,
    Preparation,
    TrackingMode,
    ZeroSurvival,
    apply_partial_pair,
    apply_quadruple,
    basis_vector,
    epr_decompose,
    make_epr,
    sample_partial_pair,
    weighted_epr_track,
    y_correlation_pair,
)
from partial_eraser.epr import (
    pair_axis_amplitudes,
    pair_click_probability,
    pair_distance,
)
from partial_eraser.montecarlo import count_trials

from conftest import alphas_positive, axes, branches, quadruples

SQRT_HALF = math.sqrt(0.5)


def op(axis, branch, alpha):
    return PartialMeasurementOp(axis, branch, alpha)


# --- independent 4x4 oracle ------------------------------------------------

def pair_to_vec(pair):
    # standard tensor ordering (uu, ur, ru, rr)
    return np.array([pair.amp_uu, pair.amp_ur, pair.amp_ru, pair.amp_rr])


def scaling_2x2(the_op):
    b = np.array(basis_vector(the_op.axis, the_op.branch))
    o = np.array(basis_vector(the_op.axis, the_op.branch.other()))
    return math.sqrt(the_op.alpha) * np.outer(b, b.conj()) + np.outer(o, o.conj())


def pair_oracle(steps, pair):
    """Fold kron-product scaling maps over the 4-vector and renormalize."""
    vec = pair_to_vec(pair)
    eye = np.eye(2)
    for photon, the_op in steps:
        s = scaling_2x2(the_op)
        full = np.kron(s, eye) if photon is Photon.A else np.kron(eye, s)
        vec = full @ vec
    return vec / np.linalg.norm(vec)


def assert_matches_oracle(pair, steps, tol=1e-12):
    result = pair
    for photon, the_op in steps:
        result = apply_partial_pair(result, photon, the_op)
    expected = pair_oracle(steps, pair)
    assert np.allclose(pair_to_vec(result), expected, atol=tol, rtol=0.0)
    return result


# --- construction and decomposition ----------------------------------------

class TestMakeEpr:
    def test_amplitudes(self):
        pair = make_epr()
        assert pair.amp_uu == pytest.approx(SQRT_HALF)
        assert pair.amp_rr == pytest.approx(SQRT_HALF)
        assert pair.amp_ur == 0.0
        assert pair.amp_ru == 0.0
        assert pair.weight == 1.0

    def test_pure_epr_decomposition(self):
        decomp = epr_decompose(make_epr())
        assert abs(decomp.epr_amp - 1.0) < 1e-12
        assert abs(decomp.anti_epr_amp) < 1e-12

    def test_diagonal_basis_expansion(self):
        # equally correlated in the diagonal basis as well
        n = pair_axis_amplitudes(make_epr(), Axis.Y)
        assert n[0][0] == pytest.approx(SQRT_HALF, abs=1e-12)
        assert n[1][1] == pytest.approx(SQRT_HALF, abs=1e-12)
        assert abs(n[0][1]) < 1e-12
        assert abs(n[1][0]) < 1e-12

    def test_circular_basis_is_anticorrelated(self):
        n = pair_axis_amplitudes(make_epr(), Axis.Z)
        assert abs(n[0][0]) < 1e-12
        assert abs(n[1][1]) < 1e-12
        assert abs(n[0][1]) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert abs(n[1][0]) == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_pair_norm_validated(self):
        with pytest.raises(DomainError):
            PairState(1.0, 1.0, 0.0, 0.0)


class TestApplyPartialPair:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9])
    def test_single_up_measurement_formula(self, alpha):
        pair = apply_partial_pair(make_epr(), Photon.A, op(Axis.X, Branch.PLUS, alpha))
        assert pair.amp_uu == pytest.approx(math.sqrt(alpha / (1 + alpha)), abs=1e-12)
        assert pair.amp_rr == pytest.approx(math.sqrt(1 / (1 + alpha)), abs=1e-12)
        assert pair.amp_ur == 0.0
        assert pair.amp_ru == 0.0

    def test_identity(self):
        pair = make_epr()
        assert apply_partial_pair(pair, Photon.A, op(Axis.X, Branch.PLUS, 1.0)) is pair

    def test_matched_quadruple_restores_epr(self):
        # products 0.9*0.6 = 0.8*0.675, so the ratio is one
        quad = IntensityQuadruple(0.9, 0.8, 0.6, 27 / 40)
        assert quad.k_ratio == pytest.approx(1.0, abs=1e-12)
        pair = apply_quadruple(make_epr(), quad)
        decomp = epr_decompose(pair)
        assert abs(decomp.epr_amp - 1.0) < 1e-12
        assert abs(decomp.anti_epr_amp) < 1e-12

    def test_quadruple_amplitudes(self):
        quad = IntensityQuadruple(0.7, 0.4, 0.9, 0.8)
        pair = apply_quadruple(make_epr(), quad)
        ag = quad.alpha * quad.gamma
        bd = quad.beta * quad.delta
        assert pair.amp_uu == pytest.approx(math.sqrt(ag / (ag + bd)), abs=1e-12)
        assert pair.amp_rr == pytest.approx(math.sqrt(bd / (ag + bd)), abs=1e-12)

    def test_zero_survival(self):
        collapsed = apply_partial_pair(make_epr(), Photon.A, op(Axis.X, Branch.PLUS, 0.0))
        with pytest.raises(ZeroSurvival):
            apply_partial_pair(collapsed, Photon.B, op(Axis.X, Branch.MINUS, 0.0))

    @given(axes, branches, alphas_positive, st.sampled_from(list(Photon)))
    def test_matches_kron_oracle(self, axis, branch, alpha, photon):
        assert_matches_oracle(make_epr(), [(photon, op(axis, branch, alpha))])


class TestEprDecompose:
    def test_after_half_measurement(self):
        pair = apply_partial_pair(make_epr(), Photon.A, op(Axis.X, Branch.PLUS, 0.5))
        decomp = epr_decompose(pair)
        assert decomp.epr_amp.real == pytest.approx(0.98560, abs=5e-6)
        assert decomp.anti_epr_amp.real == pytest.approx(0.16910, abs=5e-6)
        assert abs(decomp.epr_amp) ** 2 + abs(decomp.anti_epr_amp) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_complete_measurement_leaves_even_blend(self):
        pair = apply_partial_pair(make_epr(), Photon.A, op(Axis.X, Branch.PLUS, 0.0))
        assert pair.amp_rr == pytest.approx(1.0, abs=1e-12)
        decomp = epr_decompose(pair)
        assert abs(decomp.epr_amp) == pytest.approx(SQRT_HALF, abs=1e-12)
        assert abs(decomp.anti_epr_amp) == pytest.approx(SQRT_HALF, abs=1e-12)
        # even blend: the diagonal agreement drops to one half
        agreement = abs(decomp.epr_amp) ** 2
        assert agreement == pytest.approx(0.5, abs=1e-12)

    @given(quadruples())
    def test_epr_never_below_anti(self, quad):
        decomp = epr_decompose(apply_quadruple(make_epr(), quad))
        assert abs(decomp.epr_amp) >= abs(decomp.anti_epr_amp) - 1e-12

    @given(quadruples())
    def test_components_match_product_formulas(self, quad):
        decomp = epr_decompose(apply_quadruple(make_epr(), quad))
        ag = math.sqrt(quad.alpha * quad.gamma)
        bd = math.sqrt(quad.beta * quad.delta)
        norm = math.sqrt(2 * (ag**2 + bd**2))
        assert decomp.epr_amp.real == pytest.approx((bd + ag) / norm, abs=1e-12)
        assert decomp.anti_epr_amp.real == pytest.approx((bd - ag) / norm, abs=1e-12)


class TestCorrelation:
    @pytest.mark.parametrize(
        "quad, expected",
        [
            (IntensityQuadruple(1.0, 1.0, 1.0, 1.0), 1.0),
            (IntensityQuadruple(1.0, 0.5, 1.0, 1.0), 0.9714045207910317),
            (IntensityQuadruple(0.25, 1.0, 1.0, 1.0), 0.9),
        ],
    )
    def test_known_ratios(self, quad, expected):
        assert y_correlation_pair(quad) == pytest.approx(expected, abs=1e-12)

    def test_complete_measurement_halves_correlation(self):
        assert y_correlation_pair(IntensityQuadruple(0.0, 1.0, 1.0, 1.0)) == 0.5
        assert y_correlation_pair(IntensityQuadruple(1.0, 0.0, 1.0, 1.0)) == 0.5

    def test_undefined_when_both_products_vanish(self):
        with pytest.raises(DomainError):
            y_correlation_pair(IntensityQuadruple(0.0, 0.0, 1.0, 1.0))

    @given(quadruples())
    def test_range_and_k_dependence(self, quad):
        c = y_correlation_pair(quad)
        assert 0.5 <= c <= 1.0 + 1e-12
        k = quad.k_ratio
        assert c == pytest.approx((1 + math.sqrt(k)) ** 2 / (2 + 2 * k), rel=1e-12)

    @given(quadruples())
    def test_correlation_is_survivor_agreement(self, quad):
        pair = apply_quadruple(make_epr(), quad)
        n = pair_axis_amplitudes(pair, Axis.Y)
        agreement = abs(n[0][0]) ** 2 + abs(n[1][1]) ** 2
        assert agreement == pytest.approx(y_correlation_pair(quad), abs=1e-12)


class TestKOnlyDependence:
    @given(
        quadruples(),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_equal_ratios_equal_states(self, quad, scale_a, scale_b):
        other = IntensityQuadruple(
            quad.alpha * scale_a, quad.beta * scale_a,
            quad.gamma * scale_b, quad.delta * scale_b,
        )
        assert other.k_ratio == pytest.approx(quad.k_ratio, rel=1e-9)
        one = apply_quadruple(make_epr(), quad)
        two = apply_quadruple(make_epr(), other)
        assert pair_distance(one, two) < 1e-12

    def test_measured_fraction_family(self):
        # 50% of up  ==  90% up with 80% right  ==  99% up with 98% right
        family = [
            IntensityQuadruple(0.5, 1.0, 1.0, 1.0),
            IntensityQuadruple(0.1, 0.2, 1.0, 1.0),
            IntensityQuadruple(0.01, 0.02, 1.0, 1.0),
        ]
        states = [apply_quadruple(make_epr(), q) for q in family]
        for other in states[1:]:
            assert pair_distance(states[0], other) < 1e-12


class TestErasureAcrossPhotons:
    @given(alphas_positive)
    def test_counter_measurement_on_partner_restores_epr(self, alpha):
        pair = apply_partial_pair(make_epr(), Photon.A, op(Axis.X, Branch.PLUS, alpha))
        pair = apply_partial_pair(pair, Photon.B, op(Axis.X, Branch.MINUS, alpha))
        assert pair_distance(pair, make_epr()) < 1e-12

    def test_partner_counters_in_measurement_order(self):
        alpha = 0.9
        steps = [
            (Photon.A, op(Axis.X, Branch.PLUS, alpha)),
            (Photon.A, op(Axis.Y, Branch.PLUS, alpha)),
            (Photon.B, op(Axis.X, Branch.MINUS, alpha)),
            (Photon.B, op(Axis.Y, Branch.MINUS, alpha)),
        ]
        result = assert_matches_oracle(make_epr(), steps)
        assert pair_distance(result, make_epr()) < 1e-12

    def test_partner_counters_reversed_fail(self):
        alpha = 0.9
        steps = [
            (Photon.A, op(Axis.X, Branch.PLUS, alpha)),
            (Photon.A, op(Axis.Y, Branch.PLUS, alpha)),
            (Photon.B, op(Axis.Y, Branch.MINUS, alpha)),
            (Photon.B, op(Axis.X, Branch.MINUS, alpha)),
        ]
        result = assert_matches_oracle(make_epr(), steps)
        assert pair_distance(result, make_epr()) > 1e-3

    def test_same_photon_counters_in_reverse_order(self):
        alpha = 0.9
        steps = [
            (Photon.A, op(Axis.X, Branch.PLUS, alpha)),
            (Photon.A, op(Axis.Y, Branch.PLUS, alpha)),
            (Photon.A, op(Axis.Z, Branch.PLUS, alpha)),
            (Photon.A, op(Axis.Z, Branch.MINUS, alpha)),
            (Photon.A, op(Axis.Y, Branch.MINUS, alpha)),
            (Photon.A, op(Axis.X, Branch.MINUS, alpha)),
        ]
        result = assert_matches_oracle(make_epr(), steps)
        assert pair_distance(result, make_epr()) < 1e-12


class TestWeightedTracking:
    def test_half_measurement_parts(self):
        epr, anti = weighted_epr_track(IntensityQuadruple(0.5, 1.0, 1.0, 1.0))
        assert epr == pytest.approx(0.85355, abs=5e-6)
        assert anti == pytest.approx(0.14645, abs=5e-6)

    def test_counter_measurement_erases_anti_part(self):
        epr, anti = weighted_epr_track(IntensityQuadruple(0.5, 0.5, 1.0, 1.0))
        assert anti == 0.0
        assert epr == pytest.approx(SQRT_HALF, abs=1e-12)
        # the surviving correlated intensity is the amplitude squared
        assert epr**2 == pytest.approx(0.5, abs=1e-12)

    def test_unmeasured_pair(self):
        assert weighted_epr_track(IntensityQuadruple(1, 1, 1, 1)) == (1.0, 0.0)

    @given(quadruples())
    def test_matches_weighted_simulation(self, quad):
        pair = apply_quadruple(make_epr(), quad, TrackingMode.WEIGHTED)
        decomp = epr_decompose(pair)
        root_w = math.sqrt(pair.weight)
        epr, anti = weighted_epr_track(quad)
        assert root_w * decomp.epr_amp.real == pytest.approx(epr, abs=1e-12)
        assert root_w * decomp.anti_epr_amp.real == pytest.approx(anti, abs=1e-12)

    @given(alphas_positive)
    def test_counterfactual_capture_accounting(self, alpha):
        # measured pair carries an anti-EPR intensity of ((1-sqrt(a))/2)^2;
        # the partner-side counter prunes exactly that plus the matched
        # correlated intensity, all of it showing up as click weight
        measured = apply_partial_pair(
            make_epr(), Photon.A, op(Axis.X, Branch.PLUS, alpha), TrackingMode.WEIGHTED
        )
        anti_intensity = measured.weight * abs(epr_decompose(measured).anti_epr_amp) ** 2
        assert anti_intensity == pytest.approx(((1 - math.sqrt(alpha)) / 2) ** 2, abs=1e-12)

        counter = op(Axis.X, Branch.MINUS, alpha)
        click_mass = measured.weight * pair_click_probability(measured, Photon.B, counter)
        erased = apply_partial_pair(measured, Photon.B, counter, TrackingMode.WEIGHTED)
        assert abs(epr_decompose(erased).anti_epr_amp) < 1e-12
        assert measured.weight - erased.weight == pytest.approx(click_mass, abs=1e-12)


def y_agreement(plan, trials):
    """Sampled diagonal agreement among the pairs that survive ``plan``
    (on the seed of the ``rng`` fixture), and the number of survivors."""
    config = ExperimentConfig(Preparation.epr(), tuple(plan), Axis.Y, trials, 20240817)
    _, surviving, agreeing = count_trials(config)
    return agreeing / surviving, surviving


class TestSampling:
    def test_epr_always_agrees(self):
        assert y_agreement([], 300) == (1.0, 300)

    def test_complete_measurement_randomizes(self):
        rate, n = y_agreement([MeasureStep(Photon.A, op(Axis.X, Branch.PLUS, 0.0))], 100_000)
        sigma = math.sqrt(0.25 / n)
        assert abs(rate - 0.5) < 3 * sigma

    def test_k_four_agreement(self):
        rate, n = y_agreement([MeasureStep(Photon.A, op(Axis.X, Branch.PLUS, 0.25))], 100_000)
        sigma = math.sqrt(0.9 * 0.1 / n)
        assert abs(rate - 0.9) < 3 * sigma

    def test_sample_partial_pair_click_collapses_partner(self, rng):
        the_op = op(Axis.X, Branch.PLUS, 0.0)
        outcome = sample_partial_pair(make_epr(), Photon.A, the_op, TrackingMode.NORMALIZED, rng)
        while not outcome.clicked:
            outcome = sample_partial_pair(
                make_epr(), Photon.A, the_op, TrackingMode.NORMALIZED, rng
            )
        post = outcome.post_state
        assert abs(post.amp_uu) == pytest.approx(1.0, abs=1e-12)
        assert post.weight == 1.0
