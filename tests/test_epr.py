import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import assume, example, given

from partial_eraser import (
    Axis,
    Branch,
    CascadeStep,
    DomainError,
    ExperimentConfig,
    IntensityQuadruple,
    MeasureStep,
    PairState,
    PartialEraserError,
    PartialMeasurementOp,
    Photon,
    Preparation,
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
from partial_eraser import epr, measurement
from partial_eraser.epr import (
    collapse_pair,
    pair_axis_amplitudes,
    pair_click_probability,
    pair_distance,
)
from partial_eraser.polarization import _BRAS, _KETS
from partial_eraser.montecarlo import (
    analytic_agreement,
    analytic_survival,
    count_trials,
    enumerate_event_tree,
)

from conftest import (
    alphas,
    alphas_positive,
    amplitude_text,
    axes,
    branches,
    finite,
    outcome_text,
    quadruples,
    unit_pairs,
)

SQRT_HALF = math.sqrt(0.5)

photons = st.sampled_from(list(Photon))


def op(axis, branch, alpha):
    return PartialMeasurementOp(axis, branch, alpha)


@st.composite
def pair_states(draw):
    """Random normalized pair; almost never symmetric under swapping the
    photons, so an A/B index mix-up shows."""
    parts = [draw(st.floats(min_value=-1.0, max_value=1.0, **finite)) for _ in range(8)]
    norm = math.sqrt(sum(p * p for p in parts))
    assume(norm > 1e-3)
    return PairState(*(complex(parts[2 * i], parts[2 * i + 1]) / norm for i in range(4)))


# --- independent 4x4 oracle ------------------------------------------------

def pair_to_vec(pair):
    # standard tensor ordering (uu, ur, ru, rr)
    return np.array([pair.amp_uu, pair.amp_ur, pair.amp_ru, pair.amp_rr])


def scaling_2x2(the_op):
    b = np.array(basis_vector(the_op.axis, the_op.branch))
    o = np.array(basis_vector(the_op.axis, the_op.branch.other()))
    return math.sqrt(the_op.alpha) * np.outer(b, b.conj()) + np.outer(o, o.conj())


def on_photon(photon, matrix):
    """A 2x2 single-photon matrix acting on ``photon``'s tensor factor."""
    eye = np.eye(2)
    return np.kron(matrix, eye) if photon is Photon.A else np.kron(eye, matrix)


def projected(pair, photon, the_op):
    """(|b><b| on ``photon``) applied to the pair's 4-vector."""
    b = np.array(basis_vector(the_op.axis, the_op.branch))
    return on_photon(photon, np.outer(b, b.conj())) @ pair_to_vec(pair)


def pair_oracle(steps, pair):
    """Fold kron-product scaling maps over the 4-vector and renormalize."""
    vec = pair_to_vec(pair)
    for photon, the_op in steps:
        vec = on_photon(photon, scaling_2x2(the_op)) @ vec
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

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    @pytest.mark.parametrize("index", range(4))
    def test_pair_norm_rejects_nan(self, nan, index):
        """A NaN norm compares false both ways, so it fails the check."""
        amps = [1.0, 0.0, 0.0, 0.0] if index else [0.0, 1.0, 0.0, 0.0]
        amps[index] = nan
        with pytest.raises(DomainError, match="unit norm"):
            PairState(*amps)


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

    @pytest.mark.parametrize("alpha, gamma", [(0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_k_ratio_undefined_without_the_up_products(self, alpha, gamma):
        with pytest.raises(DomainError, match=r"^k ratio undefined when alpha \* gamma = 0$"):
            IntensityQuadruple(alpha, 0.5, gamma, 0.5).k_ratio

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

    @given(
        pair_states(),
        st.lists(st.tuples(photons, axes, branches, alphas_positive), min_size=1, max_size=4),
    )
    def test_matches_kron_oracle_on_asymmetric_pairs(self, pair, steps):
        assert_matches_oracle(pair, [(photon, op(*args)) for photon, *args in steps])


class TestPairOracles:
    """The click, collapse and basis-change maps against 4x4 kron oracles,
    on random pairs that are not symmetric under swapping the photons."""

    @given(pair_states(), photons, axes, branches, st.floats(0.0, 1.0))
    def test_click_probability(self, pair, photon, axis, branch, alpha):
        the_op = op(axis, branch, alpha)
        expected = (1.0 - alpha) * np.linalg.norm(projected(pair, photon, the_op)) ** 2
        assert abs(pair_click_probability(pair, photon, the_op) - expected) < 1e-12

    @given(pair_states(), photons, axes, branches)
    def test_collapse(self, pair, photon, axis, branch):
        the_op = op(axis, branch, 0.5)
        vec = projected(pair, photon, the_op)
        assume(np.linalg.norm(vec) > 1e-6)
        result = pair_to_vec(collapse_pair(pair, photon, the_op))
        assert np.allclose(result, vec / np.linalg.norm(vec), atol=1e-12, rtol=0.0)

    @given(pair_states(), axes)
    def test_axis_amplitudes(self, pair, axis):
        kets = [np.array(basis_vector(axis, branch)) for branch in (Branch.PLUS, Branch.MINUS)]
        n = pair_axis_amplitudes(pair, axis)
        for k in range(2):
            for l in range(2):
                expected = np.vdot(np.kron(kets[k], kets[l]), pair_to_vec(pair))
                assert abs(n[k][l] - expected) < 1e-12


# z,plus then x,minus then x,plus, all complete measurements: the third
# silence is impossible, but rounding leaves its click mass below 1.
CERTAIN_CLICK_PLAN = ((Axis.Z, Branch.PLUS), (Axis.X, Branch.MINUS), (Axis.X, Branch.PLUS))


class TestClickSilenceContract:
    @pytest.mark.parametrize("photon", list(Photon))
    def test_event_tree_when_silence_impossible(self, photon):
        plan = tuple(MeasureStep(photon, op(a, b, 0.0)) for a, b in CERTAIN_CLICK_PLAN)
        config = ExperimentConfig(Preparation.epr(), plan, Axis.Y, 1, 0)
        leaves = enumerate_event_tree(config)
        assert abs(sum(leaf.probability for leaf in leaves) - 1.0) < 1e-12
        assert analytic_survival(config) == 0.0

    @given(st.lists(st.tuples(photons, axes, branches), min_size=1, max_size=8))
    @example([(Photon.A, axis, branch) for axis, branch in CERTAIN_CLICK_PLAN])
    @example([(Photon.B, axis, branch) for axis, branch in CERTAIN_CLICK_PLAN])
    def test_click_certain_wherever_silence_impossible(self, chain):
        pair = make_epr()
        for photon, axis, branch in chain:
            the_op = op(axis, branch, 0.0)
            try:
                pair = apply_partial_pair(pair, photon, the_op)
            except ZeroSurvival:
                assert pair_click_probability(pair, photon, the_op) >= 1.0
                return


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


def transposed_branch(axis, branch):
    """The branch whose ket is the complex conjugate of ``branch``'s ket:
    the branch that the transpose of a measurement of ``branch`` measures."""
    ket = tuple(c.conjugate() for c in basis_vector(axis, branch))
    return next(other for other in Branch if basis_vector(axis, other) == ket)


class TestEprTheorems:
    """The paper's two theorems, on every axis.  For |EPR> = (|uu> +
    |rr>)/sqrt(2), (M x 1)|EPR> = (1 x M^T)|EPR>: a partial measurement on
    one photon is the transposed measurement on the other, and so a
    counter-measurement on either photon erases a measurement on the
    other."""

    def test_transpose_flips_the_branch_only_on_z(self):
        for axis in Axis:
            for branch in Branch:
                expected = branch.other() if axis is Axis.Z else branch
                assert transposed_branch(axis, branch) is expected

    @given(photons, axes, branches, alphas)
    def test_op_on_one_photon_is_transposed_op_on_other(self, photon, axis, branch, alpha):
        other = Photon.B if photon is Photon.A else Photon.A
        the_op = op(axis, branch, alpha)
        transposed = op(axis, transposed_branch(axis, branch), alpha)
        assert pair_click_probability(make_epr(), photon, the_op) == pytest.approx(
            pair_click_probability(make_epr(), other, transposed), abs=1e-12
        )
        here = apply_partial_pair(make_epr(), photon, the_op)
        assert pair_distance(here, apply_partial_pair(make_epr(), other, transposed)) < 1e-12

    @given(photons, axes, branches, alphas_positive)
    def test_counter_on_other_photon_restores_epr(self, photon, axis, branch, alpha):
        other = Photon.B if photon is Photon.A else Photon.A
        measured = apply_partial_pair(make_epr(), photon, op(axis, branch, alpha))
        counter = op(axis, transposed_branch(axis, branch).other(), alpha)
        erased = apply_partial_pair(measured, other, counter)
        assert pair_distance(erased, make_epr()) < 1e-12


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
        # the surviving pair, scaled by the root of the probability that
        # all four measurements stay silent
        steps = [
            (Photon.A, op(Axis.X, Branch.PLUS, quad.alpha)),
            (Photon.A, op(Axis.X, Branch.MINUS, quad.beta)),
            (Photon.B, op(Axis.X, Branch.PLUS, quad.gamma)),
            (Photon.B, op(Axis.X, Branch.MINUS, quad.delta)),
        ]
        pair, survival = make_epr(), 1.0
        for photon, the_op in steps:
            survival *= 1.0 - pair_click_probability(pair, photon, the_op)
            pair = apply_partial_pair(pair, photon, the_op)
        assert pair == apply_quadruple(make_epr(), quad)
        decomp = epr_decompose(pair)
        epr, anti = weighted_epr_track(quad)
        assert math.sqrt(survival) * decomp.epr_amp.real == pytest.approx(epr, abs=1e-12)
        assert math.sqrt(survival) * decomp.anti_epr_amp.real == pytest.approx(anti, abs=1e-12)

    @given(alphas_positive)
    def test_counterfactual_capture_accounting(self, alpha):
        # measured pair carries an anti-EPR intensity of ((1-sqrt(a))/2)^2;
        # the partner-side counter prunes exactly that plus the matched
        # correlated intensity, all of it showing up as clicks, and leaves
        # the intensity alpha
        first = op(Axis.X, Branch.PLUS, alpha)
        survival = 1.0 - pair_click_probability(make_epr(), Photon.A, first)
        measured = apply_partial_pair(make_epr(), Photon.A, first)
        anti_intensity = survival * abs(epr_decompose(measured).anti_epr_amp) ** 2
        assert anti_intensity == pytest.approx(((1 - math.sqrt(alpha)) / 2) ** 2, abs=1e-12)

        counter = op(Axis.X, Branch.MINUS, alpha)
        click_mass = survival * pair_click_probability(measured, Photon.B, counter)
        erased = apply_partial_pair(measured, Photon.B, counter)
        assert abs(epr_decompose(erased).anti_epr_amp) < 1e-12
        assert survival - click_mass == pytest.approx(alpha, abs=1e-12)


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
        outcome = sample_partial_pair(make_epr(), Photon.A, the_op, NORMALIZED, rng)
        while not outcome.clicked:
            outcome = sample_partial_pair(make_epr(), Photon.A, the_op, NORMALIZED, rng)
        assert abs(outcome.post_state.amp_uu) == pytest.approx(1.0, abs=1e-12)


# --- the seeds and inputs of the pins at the end of this file ---------------

PINNED_SEED = 20261018
ORACLE_PINNED_SEED = 20261019
QUADRUPLE_PINNED_SEED = 20261020


def pinned_pick(gen, options):
    return options[int(gen.random() * len(options))]


def pinned_pair_plan(gen):
    """An EPR plan of one to four steps on random photons and branches: a
    quarter are 100-beam cascades with 1 to 100 detectors, the rest ops on
    a random axis with alpha 0, 1 or random.  Drawn with ``gen.random()``."""
    steps = []
    for _ in range(1 + int(gen.random() * 4)):
        photon, branch = pinned_pick(gen, list(Photon)), pinned_pick(gen, list(Branch))
        if gen.random() < 0.25:
            steps.append(CascadeStep(photon, branch, 1 + int(gen.random() * 100)))
        else:
            alpha = pinned_pick(gen, (0.0, 1.0, gen.random()))
            steps.append(MeasureStep(photon, op(pinned_pick(gen, list(Axis)), branch, alpha)))
    return tuple(steps)


def pinned_oracles(preparation, plan, axis):
    """The reprs of the event tree, survival and agreement of one plan."""
    config = ExperimentConfig(preparation, plan, axis, 1, 0)
    lines = []
    for fn in (enumerate_event_tree, analytic_survival, analytic_agreement):
        try:
            lines.append(repr(fn(config)))
        except PartialEraserError as exc:
            lines.append(type(exc).__name__)
    return lines


# PairState(1, 0, 0, e) under a complete up measurement of photon A: the
# silence survives with probability e^2, which underflows near e = 1e-160.
NEAR_ZERO_SURVIVAL = (
    (1e-150, None),
    (1e-160, DomainError),
    (3e-162, DomainError),
    (1e-162, ZeroSurvival),
)


@pytest.mark.parametrize("e, error", NEAR_ZERO_SURVIVAL)
def test_near_zero_survival_errors(e, error):
    """Where the renormalized silence loses its unit norm the pair algebra
    raises DomainError; where the survival underflows to 0, ZeroSurvival.
    The click is certain either way."""
    pair = PairState(1, 0, 0, e)
    the_op = op(Axis.X, Branch.PLUS, 0.0)
    assert pair_click_probability(pair, Photon.A, the_op) == 1.0
    assert sample_partial_pair(
        pair, Photon.A, the_op, NORMALIZED, np.random.default_rng(0)
    ).clicked
    if error is None:
        assert apply_partial_pair(pair, Photon.A, the_op) == PairState(0, 0, 0, 1)
        return
    with pytest.raises(error) as excinfo:
        apply_partial_pair(pair, Photon.A, the_op)
    assert type(excinfo.value) is error
    expected = "pair amplitudes must have unit norm" if error is DomainError else "no-click impossible"
    assert str(excinfo.value).startswith(expected)


def pinned_fraction(gen):
    """0, 1 or a random fraction, a third each: a 0 measures a branch
    completely, so some quadruples leave no silence."""
    edge = pinned_pick(gen, (0.0, 1.0, None))
    return gen.random() if edge is None else edge


# --- the basis tables the pair kernels read, built once ----------------------

def silence_reference(pair, photon, the_op):
    """``epr._silence`` as it multiplied the basis constants on every call;
    its table form must give the same bits."""
    kets, bras = _KETS[the_op.axis], _BRAS[the_op.axis]
    if the_op.branch is Branch.PLUS:
        (b0, b1), (o0, o1) = kets
        (bb0, bb1), (ob0, ob1) = bras
    else:
        (o0, o1), (b0, b1) = kets
        (ob0, ob1), (bb0, bb1) = bras
    root = math.sqrt(the_op.alpha)
    w00, w01 = root * b0 * bb0 + o0 * ob0, root * b0 * bb1 + o0 * ob1
    w10, w11 = root * b1 * bb0 + o1 * ob0, root * b1 * bb1 + o1 * ob1
    uu, rr = pair.amp_uu, pair.amp_rr
    if photon is Photon.A:
        m01, m10 = pair.amp_ur, pair.amp_ru
    else:
        m01, m10 = pair.amp_ru, pair.amp_ur
    n01, n10 = w00 * m01 + w01 * rr, w10 * uu + w11 * m10
    ur, ru = (n01, n10) if photon is Photon.A else (n10, n01)
    uu, rr = w00 * uu + w01 * m10, w10 * m01 + w11 * rr
    survival = abs(uu) ** 2 + abs(ur) ** 2 + abs(ru) ** 2 + abs(rr) ** 2
    c0, c1 = bb0 * pair.amp_uu + bb1 * m10, bb0 * m01 + bb1 * pair.amp_rr
    p_click = (1.0 - the_op.alpha) * (abs(c0) ** 2 + abs(c1) ** 2)
    if survival <= 0.0:
        p_click = max(p_click, 1.0)
    return p_click, (uu, rr, ur, ru), survival


def axis_amplitudes_reference(pair, axis):
    """``pair_axis_amplitudes`` as it multiplied the bras on every call."""
    uu, ur, ru, rr = pair.amp_uu, pair.amp_ur, pair.amp_ru, pair.amp_rr
    (k0, k1), (l0, l1) = _BRAS[axis]
    return [
        [
            0 + k0 * k0 * uu + k0 * k1 * ur + k1 * k0 * ru + k1 * k1 * rr,
            0 + k0 * l0 * uu + k0 * l1 * ur + k1 * l0 * ru + k1 * l1 * rr,
        ],
        [
            0 + l0 * k0 * uu + l0 * k1 * ur + l1 * k0 * ru + l1 * k1 * rr,
            0 + l0 * l0 * uu + l0 * l1 * ur + l1 * l0 * ru + l1 * l1 * rr,
        ],
    ]


def signed_part_pairs(gen):
    """Pairs whose real and imaginary parts are +-0.0 and +-1, or +-0.0
    and +-sqrt(1/2), the zeros' signs drawn with ``gen.random()``: the
    parts on which a reordered product or sum would show in the bits."""
    def zero():
        return -0.0 if gen.random() < 0.5 else 0.0

    for slot in range(4):
        for real, imag in ((1.0, 0), (-1.0, 0), (0, 1.0), (0, -1.0)):
            for _ in range(2):
                amps = [complex(zero(), zero()) for _ in range(4)]
                amps[slot] = complex(real or zero(), imag or zero())
                yield PairState(*amps)
    for sign_uu, sign_rr in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for _ in range(2):
            yield PairState(
                complex(sign_uu * SQRT_HALF, zero()),
                complex(sign_rr * SQRT_HALF, zero()),
                complex(zero(), zero()),
                complex(zero(), zero()),
            )


def test_silence_table_entries_are_the_products_they_replace():
    """Each (axis, branch) entry holds the measured ket and bra and the
    other branch's four projector terms, repr for repr, signed zeros
    included."""
    assert set(epr._SILENCE_TERMS) == {(axis, branch) for axis in Axis for branch in Branch}
    for axis in Axis:
        for branch in Branch:
            b0, b1 = basis_vector(axis, branch)
            o0, o1 = basis_vector(axis, branch.other())
            bb0, bb1, ob0, ob1 = (c.conjugate() for c in (b0, b1, o0, o1))
            expected = (b0, b1, bb0, bb1, o0 * ob0, o0 * ob1, o1 * ob0, o1 * ob1)
            assert repr(epr._SILENCE_TERMS[axis, branch]) == repr(expected)


def test_pair_bra_table_entries_are_the_products_they_replace():
    assert set(epr._PAIR_BRAS) == set(Axis)
    for axis in Axis:
        (k0, k1), (l0, l1) = (
            tuple(c.conjugate() for c in basis_vector(axis, branch)) for branch in Branch
        )
        expected = (
            k0 * k0, k0 * k1, k1 * k0, k1 * k1,
            k0 * l0, k0 * l1, k1 * l0, k1 * l1,
            l0 * k0, l0 * k1, l1 * k0, l1 * k1,
            l0 * l0, l0 * l1, l1 * l0, l1 * l1,
        )  # fmt: skip
        assert repr(epr._PAIR_BRAS[axis]) == repr(expected)


def test_table_kernels_match_the_per_call_products():
    """Seeded differential: ``epr._silence`` and ``pair_axis_amplitudes``
    against the forms that multiplied the constants per call, repr for
    repr, on the pinned pairs and on pairs of signed zeros and units, over
    every photon, axis and branch and alpha 0, 1 and random."""
    gen = np.random.default_rng(PINNED_SEED + 20)
    pairs = [*pair_inputs(gen), *signed_part_pairs(gen)]
    assert len(pairs) == 55 + 40
    assert any("-0" in repr(pair) for pair in pairs)
    cases = 0
    for pair in pairs:
        for axis in Axis:
            assert repr(pair_axis_amplitudes(pair, axis)) == repr(
                axis_amplitudes_reference(pair, axis)
            )
            for photon in Photon:
                for branch in Branch:
                    for alpha in (0.0, 1.0, gen.random()):
                        the_op = op(axis, branch, alpha)
                        amps = pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru
                        terms = epr._SILENCE_TERMS[axis, branch]
                        assert repr(epr._silence(amps, photon, terms, the_op.alpha)) == repr(
                            silence_reference(pair, photon, the_op)
                        )
                        cases += 1
    assert cases == 95 * 36


def four_op_quadruple(pair, quad):
    """``apply_quadruple`` as four ``apply_partial_pair`` calls through
    public ops: the loop its one fold over the amplitudes replaced."""
    steps = (
        (Photon.A, Branch.PLUS, quad.alpha),
        (Photon.A, Branch.MINUS, quad.beta),
        (Photon.B, Branch.PLUS, quad.gamma),
        (Photon.B, Branch.MINUS, quad.delta),
    )
    for photon, branch, alpha in steps:
        pair = apply_partial_pair(pair, photon, op(Axis.X, branch, alpha))
    return pair


def result_or_error(fn, *args):
    """``repr(fn(*args))``, or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except PartialEraserError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_quadruple_fold_matches_four_pair_updates():
    """Seeded differential: ``apply_quadruple`` against four
    ``apply_partial_pair`` calls, repr for repr and error for error, on the
    pinned pairs, the signed-zero pairs and the near-zero survivals, for
    every quadruple of 0, 1 and a random fraction.  Where every fraction
    is 1 both give back the input pair itself."""
    gen = np.random.default_rng(PINNED_SEED + 40)
    near_zero = [PairState(1, 0, 0, e) for e, _ in NEAR_ZERO_SURVIVAL]
    pairs = [*pair_inputs(gen), *signed_part_pairs(gen), *near_zero]
    assert len(pairs) == 55 + 40 + 4
    outcomes = Counter()
    for pair in pairs:
        for edges in itertools.product((0.0, 1.0, None), repeat=4):
            quad = IntensityQuadruple(*(gen.random() if e is None else e for e in edges))
            fold = result_or_error(apply_quadruple, pair, quad)
            assert fold == result_or_error(four_op_quadruple, pair, quad)
            outcomes[fold.split(":")[0].split("(")[0]] += 1  # the type of the result
        same = IntensityQuadruple(1.0, 1.0, 1.0, 1.0)
        assert apply_quadruple(pair, same) is pair is four_op_quadruple(pair, same)
    assert outcomes == {"PairState": 5156, "ZeroSurvival": 2809, "DomainError": 54}


# --- pinned amplitudes of the pair algebra, oracles and pair sampling --------

PAIR_AMPLITUDES_DIGEST = "4f72d595154cb2cceca7fdbe5d5bc3189cae2edbb40aa77b4f4f6467f5c9701d"
ORACLE_DIGEST = "cf4a046b59d584bbecc44d9cc12c02a339459cae5479b0283ce6bd3933b5b508"
PAIR_SAMPLING_OUTCOMES_DIGEST = "16437b06c7dbb24e2cba4cb3dcb700681bcf7c274044df5753e3ac8cc2c832d6"
QUADRUPLE_AMPLITUDES_DIGEST = "6775a242190518c508c4c681ff04b9862fecc2da1236f57a853d0001548dd9eb"
# ``sample_partial_pair`` still takes a mode, and its one member.
NORMALIZED = measurement.TrackingMode.NORMALIZED


def pair_inputs(gen):
    """make_epr(), the four product basis pairs, then 50 random unit
    pairs."""
    yield make_epr()
    for amps in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        yield PairState(*amps)
    yield from unit_pairs(gen, 50)


def test_pair_amplitudes_pinned():
    """Per (pair, photon, op), with alpha 0, 1 and random:
    ``pair_axis_amplitudes``, the amplitudes of ``apply_partial_pair`` and
    ``collapse_pair``, and ``pair_click_probability`` wherever the silence
    is possible.  Any change to their bits, to a signed zero or to where
    ZeroSurvival is raised changes the digest."""
    gen = np.random.default_rng(PINNED_SEED)
    lines = []
    for pair in pair_inputs(gen):
        for photon in Photon:
            for axis in Axis:
                lines.append(repr(pair_axis_amplitudes(pair, axis)))
                for branch in Branch:
                    for alpha in (0.0, 1.0, gen.random()):
                        the_op = op(axis, branch, alpha)
                        silent = amplitude_text(apply_partial_pair, pair, photon, the_op)
                        lines += [silent, amplitude_text(collapse_pair, pair, photon, the_op)]
                        if silent != "ZeroSurvival":
                            lines.append(repr(pair_click_probability(pair, photon, the_op)))
    assert (len(lines), lines.count("ZeroSurvival")) == (6262, 32)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PAIR_AMPLITUDES_DIGEST


def test_oracle_bits_pinned():
    """The event tree, survival and agreement of 300 seeded EPR plans with
    each final axis, and of the single-photon cascades with m = 1..100
    detectors and with m measuring then m erasing detectors.  Any change to
    the bits of a leaf or a probability, or to a raised error, changes the
    digest."""
    gen = np.random.default_rng(ORACLE_PINNED_SEED)
    lines = []
    for _ in range(300):
        plan = pinned_pair_plan(gen)
        for axis in Axis:
            lines += pinned_oracles(Preparation.epr(), plan, axis)
    for m in range(1, 101):
        measure = CascadeStep(Photon.A, Branch.PLUS, m)
        erase = CascadeStep(Photon.A, Branch.MINUS, m)
        lines += pinned_oracles(Preparation.single(), (measure,), Axis.Y)
        lines += pinned_oracles(Preparation.single(), (measure, erase), Axis.Y)
    assert (len(lines), lines.count("ZeroSurvival")) == (3300, 22)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORACLE_DIGEST


def test_pair_sampling_outcomes_pinned():
    """Two ``sample_partial_pair`` outcomes per (pair, photon, op), over
    every axis and branch and alpha 0, 1 and random, on one seeded stream:
    ``clicked``, probability, post-state amplitudes and detector.  Any
    change to their bits, to a raised error or to the number of draws
    taken from the stream changes the digest."""
    gen = np.random.default_rng(ORACLE_PINNED_SEED)
    stream = np.random.default_rng(ORACLE_PINNED_SEED + 1)
    lines = []
    for pair in pair_inputs(gen):
        for photon in Photon:
            for axis in Axis:
                for branch in Branch:
                    for alpha in (0.0, 1.0, gen.random()):
                        the_op = op(axis, branch, alpha)
                        for _ in range(2):
                            try:
                                outcome = sample_partial_pair(
                                    pair, photon, the_op, NORMALIZED, stream
                                )
                            except PartialEraserError as exc:
                                lines.append(type(exc).__name__)
                                continue
                            lines.append(outcome_text(outcome))
    assert (len(lines), lines.count("ZeroSurvival")) == (3960, 0)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PAIR_SAMPLING_OUTCOMES_DIGEST


def test_apply_quadruple_amplitudes_pinned():
    """The amplitudes of ``apply_quadruple`` on the 55 pinned pairs, 20
    seeded quadruples each.  Any change to their bits, to a signed zero or
    to where ZeroSurvival is raised changes the digest."""
    gen = np.random.default_rng(QUADRUPLE_PINNED_SEED)
    lines = []
    for pair in pair_inputs(gen):
        for _ in range(20):
            quad = IntensityQuadruple(*(pinned_fraction(gen) for _ in range(4)))
            lines.append(amplitude_text(apply_quadruple, pair, quad))
    assert (len(lines), lines.count("ZeroSurvival")) == (1100, 265)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == QUADRUPLE_AMPLITUDES_DIGEST
