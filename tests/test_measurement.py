import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from partial_eraser import (
    Axis,
    AxisMismatch,
    Branch,
    DetectorPlacement,
    DomainError,
    ExperimentConfig,
    IntensityQuadruple,
    MeasurementOutcome,
    MeasureStep,
    PairState,
    PartialMeasurementOp,
    Photon,
    PolarizationState,
    Preparation,
    ZeroSurvival,
    apply_quadruple,
    apply_sequence,
    basis_state,
    basis_vector,
    build_cascade,
    cascade_measure,
    click_probability,
    compose_same_axis,
    components_in,
    make_epr,
    no_click_map,
    sample_partial_pair,
)
from partial_eraser import epr, measurement
from partial_eraser.measurement import TrackingMode, _step, no_click_sequence_probability
from partial_eraser.montecarlo import count_trials
from partial_eraser.polarization import NORM_TOL

from conftest import (
    alphas,
    alphas_positive,
    amplitude_distance,
    amplitude_text,
    assert_twin_built,
    axes,
    balanced_states,
    branches,
    polarization_states,
    signed_part_states,
    tiny_part_states,
    unit_pairs,
    unit_states,
)

DIAG = basis_state(Axis.Y, Branch.PLUS)
UP = basis_state(Axis.X, Branch.PLUS)
RIGHT = basis_state(Axis.X, Branch.MINUS)


def op(axis, branch, alpha):
    return PartialMeasurementOp(axis, branch, alpha)


def scaling_matrix_oracle(the_op):
    """Independent 2x2 branch-scaling map, built from outer products."""
    b = np.array(basis_vector(the_op.axis, the_op.branch))
    o = np.array(basis_vector(the_op.axis, the_op.branch.other()))
    return math.sqrt(the_op.alpha) * np.outer(b, b.conj()) + np.outer(o, o.conj())


def sequence_oracle(ops, state):
    """Fold the scaling matrices over the state vector and renormalize."""
    vec = np.array([state.amp_up, state.amp_right])
    for the_op in ops:
        vec = scaling_matrix_oracle(the_op) @ vec
    return vec / np.linalg.norm(vec)


def brute_force_cascade_survival(alpha, n_beams=100):
    """Surviving intensity of a measured diagonal photon, summed beam by
    beam over the graded mirror chain (no operator algebra involved)."""
    transmissions = [(n_beams - 1 - i) / (n_beams - i) for i in range(n_beams)]
    remaining = 0.5  # up-branch intensity of the diagonal state
    beams = []
    for t in transmissions:
        beams.append(remaining * (1.0 - t))
        remaining *= t
    n_detectors = round((1.0 - alpha) * n_beams)
    unmeasured_up = sum(beams[n_detectors:])
    return unmeasured_up + 0.5  # right branch is untouched


class TestNoClickMap:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 99 / 100])
    def test_even_state_formula(self, alpha):
        state = no_click_map(op(Axis.X, Branch.PLUS, alpha), DIAG)
        assert state.amp_up == pytest.approx(math.sqrt(alpha / (1 + alpha)), abs=1e-12)
        assert state.amp_right == pytest.approx(math.sqrt(1 / (1 + alpha)), abs=1e-12)

    @given(polarization_states(), axes, branches)
    def test_identity_at_alpha_one(self, state, axis, branch):
        assert no_click_map(op(axis, branch, 1.0), state) is state

    def test_half_measurement_survival(self):
        the_op = op(Axis.X, Branch.PLUS, 0.5)
        state = no_click_map(the_op, DIAG)
        assert state.amp_up == pytest.approx(math.sqrt(0.5 / 1.5), abs=1e-12)
        assert state.amp_right == pytest.approx(math.sqrt(1 / 1.5), abs=1e-12)
        survival = no_click_sequence_probability([the_op], DIAG)
        assert survival == pytest.approx(0.75, abs=1e-12)
        # oracle: beam-by-beam intensity bookkeeping over the mirror chain
        assert survival == pytest.approx(brute_force_cascade_survival(0.5), abs=1e-12)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_survival_matches_beam_sum(self, alpha):
        n_detectors = round((1 - alpha) * 100)
        actual_alpha = (100 - n_detectors) / 100
        survival = no_click_sequence_probability([op(Axis.X, Branch.PLUS, actual_alpha)], DIAG)
        assert survival == pytest.approx(brute_force_cascade_survival(actual_alpha), abs=1e-12)

    def test_opposite_branch_state_untouched(self):
        state = no_click_map(op(Axis.X, Branch.PLUS, 0.3), RIGHT)
        assert state.amp_up == 0.0
        assert state.amp_right == 1.0

    def test_zero_survival(self):
        with pytest.raises(ZeroSurvival):
            no_click_map(op(Axis.X, Branch.PLUS, 0.0), UP)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            op(Axis.X, Branch.PLUS, 1.2)
        with pytest.raises(DomainError):
            op(Axis.X, Branch.PLUS, -0.2)

    @given(polarization_states(), axes, branches, alphas_positive)
    def test_matches_matrix_oracle(self, state, axis, branch, alpha):
        the_op = op(axis, branch, alpha)
        expected = sequence_oracle([the_op], state)
        result = no_click_map(the_op, state)
        assert abs(result.amp_up - expected[0]) < 1e-12
        assert abs(result.amp_right - expected[1]) < 1e-12

    @given(
        polarization_states(),
        axes,
        branches,
        alphas_positive,
    )
    def test_result_passes_the_state_checks(self, state, axis, branch, alpha):
        # the map builds its result without re-running the state checks;
        # the checked constructor must accept it unchanged
        result = no_click_map(op(axis, branch, alpha), state)
        assert type(result.amp_up) is complex and type(result.amp_right) is complex
        assert PolarizationState(result.amp_up, result.amp_right) == result


class TestClickProbability:
    def test_single_detector_is_half_percent(self):
        assert click_probability(op(Axis.X, Branch.PLUS, 99 / 100), DIAG) == pytest.approx(
            0.005, abs=1e-15
        )

    def test_empty_branch_never_clicks(self):
        assert click_probability(op(Axis.X, Branch.PLUS, 0.4), RIGHT) == 0.0

    def test_certain_click_when_silence_is_impossible(self):
        # |amp_up|^2 rounds to 1 - 2^-52 here, but nothing lies outside the
        # measured branch, so a complete measurement must click.
        state = PolarizationState(complex(0.7071067811865475, 0.7071067811865475), 0.0)
        complete = op(Axis.X, Branch.PLUS, 0.0)
        assert click_probability(complete, state) == 1.0
        with pytest.raises(ZeroSurvival):
            no_click_map(complete, state)

    def test_half_measurement_quarter(self):
        assert click_probability(op(Axis.X, Branch.PLUS, 0.5), DIAG) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_quarter_against_beam_level_sampling(self, rng):
        # oracle: photon lands on one of 200 equal beams; 50 carry detectors
        beams = rng.integers(0, 200, size=100_000)
        empirical = np.mean(beams < 50)
        sigma = math.sqrt(0.25 * 0.75 / 100_000)
        assert abs(empirical - 0.25) < 3 * sigma

    @given(polarization_states(), axes, branches, alphas)
    def test_complementarity_with_no_click(self, state, axis, branch, alpha):
        p_click = click_probability(op(axis, branch, alpha), state)
        assert 0.0 <= p_click <= 1.0 + 1e-12
        c_plus, c_minus = components_in(state, axis)
        c = c_plus if branch is Branch.PLUS else c_minus
        survival = alpha * abs(c) ** 2 + (1 - abs(c) ** 2)
        assert p_click + survival == pytest.approx(1.0, abs=1e-12)


def sampled_clicks(ops, trials):
    """Clicks among ``trials`` diagonal photons sent through ``ops``, on the
    seed of the ``rng`` fixture."""
    config = ExperimentConfig(
        Preparation.single(Branch.PLUS),
        tuple(MeasureStep(Photon.A, the_op) for the_op in ops),
        Axis.Y,
        trials,
        20240817,
    )
    clicked, _, _ = count_trials(config)
    return clicked


class TestSample:
    def test_identity_never_clicks(self):
        assert sampled_clicks([op(Axis.X, Branch.PLUS, 1.0)], 200) == 0

    def test_complete_measurement_always_clicks(self):
        # The first op leaves only the right branch, which the second
        # measures completely.
        ops = [op(Axis.X, Branch.PLUS, 0.0), op(Axis.X, Branch.MINUS, 0.0)]
        assert sampled_clicks(ops, 200) == 200

    def test_click_fraction_matches_probability(self):
        n = 100_000
        clicks = sampled_clicks([op(Axis.X, Branch.PLUS, 0.5)], n)
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(clicks / n - 0.25) < 3 * sigma


class TestComposition:
    def test_same_branch_alphas_multiply(self):
        composed = compose_same_axis(op(Axis.X, Branch.PLUS, 0.9), op(Axis.X, Branch.PLUS, 0.8))
        assert composed.axis is Axis.X
        assert composed.branch is Branch.PLUS
        assert composed.alpha == pytest.approx(0.72, abs=1e-15)

    def test_equal_opposite_is_identity(self):
        composed = compose_same_axis(op(Axis.X, Branch.MINUS, 0.4), op(Axis.X, Branch.PLUS, 0.4))
        assert composed.is_identity

    def test_unequal_opposite_reduces_to_ratio(self):
        composed = compose_same_axis(op(Axis.X, Branch.MINUS, 0.8), op(Axis.X, Branch.PLUS, 0.9))
        assert composed.branch is Branch.MINUS
        assert composed.alpha == pytest.approx(0.8 / 0.9, abs=1e-15)

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatch):
            compose_same_axis(op(Axis.X, Branch.PLUS, 0.5), op(Axis.Y, Branch.PLUS, 0.5))

    def test_double_complete_measurement_rejected(self):
        with pytest.raises(DomainError):
            compose_same_axis(op(Axis.X, Branch.PLUS, 0.0), op(Axis.X, Branch.MINUS, 0.0))

    @given(balanced_states(), axes, alphas_positive, alphas_positive)
    def test_composed_action_equals_sequential(self, state, axis, a, b):
        op1 = op(axis, Branch.PLUS, a)
        op2 = op(axis, Branch.MINUS, b)
        sequential = apply_sequence([op1, op2], state)
        composed = no_click_map(compose_same_axis(op2, op1), state)
        assert amplitude_distance(sequential, composed) < 1e-12

    @given(balanced_states(), axes, alphas_positive, alphas_positive)
    def test_same_axis_commutative(self, state, axis, a, b):
        op1 = op(axis, Branch.PLUS, a)
        op2 = op(axis, Branch.MINUS, b)
        one_way = apply_sequence([op1, op2], state)
        other_way = apply_sequence([op2, op1], state)
        assert amplitude_distance(one_way, other_way) < 1e-12


REVERSED_COUNTER_STRING = [
    op(Axis.X, Branch.PLUS, 0.9),
    op(Axis.Y, Branch.PLUS, 0.9),
    op(Axis.Z, Branch.PLUS, 0.9),
    op(Axis.Z, Branch.MINUS, 0.9),
    op(Axis.Y, Branch.MINUS, 0.9),
    op(Axis.X, Branch.MINUS, 0.9),
]

SAME_ORDER_COUNTER_STRING = [
    op(Axis.X, Branch.PLUS, 0.9),
    op(Axis.Y, Branch.PLUS, 0.9),
    op(Axis.Z, Branch.PLUS, 0.9),
    op(Axis.X, Branch.MINUS, 0.9),
    op(Axis.Y, Branch.MINUS, 0.9),
    op(Axis.Z, Branch.MINUS, 0.9),
]


class TestSequences:
    def test_empty_sequence_is_identity(self):
        assert apply_sequence([], DIAG) is DIAG

    def test_reverse_order_counter_string_restores_state(self):
        result = apply_sequence(REVERSED_COUNTER_STRING, DIAG)
        assert amplitude_distance(result, DIAG) < 1e-12

    @given(polarization_states())
    def test_reverse_order_counter_string_restores_any_state(self, state):
        result = apply_sequence(REVERSED_COUNTER_STRING, state)
        assert amplitude_distance(result, state) < 1e-12

    def test_same_order_counter_string_fails(self):
        result = apply_sequence(SAME_ORDER_COUNTER_STRING, DIAG)
        # oracle: independent matrix fold confirms the residual rotation
        expected = sequence_oracle(SAME_ORDER_COUNTER_STRING, DIAG)
        assert abs(result.amp_up - expected[0]) < 1e-12
        assert abs(result.amp_right - expected[1]) < 1e-12
        assert amplitude_distance(result, DIAG) > 1e-3

    @given(polarization_states(), st.lists(st.tuples(axes, branches, alphas_positive), max_size=4))
    def test_matches_matrix_oracle(self, state, raw_ops):
        ops = [op(axis, branch, alpha) for axis, branch, alpha in raw_ops]
        expected = sequence_oracle(ops, state)
        result = apply_sequence(ops, state)
        assert abs(result.amp_up - expected[0]) < 1e-11
        assert abs(result.amp_right - expected[1]) < 1e-11


class TestErasureAlgebra:
    @given(balanced_states(), alphas_positive)
    def test_erasure_identity(self, state, alpha):
        erased = apply_sequence(
            [op(Axis.X, Branch.PLUS, alpha), op(Axis.X, Branch.MINUS, alpha)], state
        )
        assert amplitude_distance(erased, state) < 1e-12

    @given(
        balanced_states(),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_only_the_ratio_matters(self, state, base, ratio, scale):
        pair_one = [op(Axis.X, Branch.PLUS, base * ratio), op(Axis.X, Branch.MINUS, base)]
        pair_two = [
            op(Axis.X, Branch.PLUS, base * ratio * scale),
            op(Axis.X, Branch.MINUS, base * scale),
        ]
        one = apply_sequence(pair_one, state)
        two = apply_sequence(pair_two, state)
        assert amplitude_distance(one, two) < 1e-12

    @given(alphas_positive)
    def test_erasure_cost_is_survival(self, alpha):
        # erasure restores the diagonal state, at the cost of the intensity
        ops = [op(Axis.X, Branch.PLUS, alpha), op(Axis.X, Branch.MINUS, alpha)]
        final = apply_sequence(ops, DIAG)
        survival = no_click_sequence_probability(ops, DIAG)
        surviving_amp = math.sqrt(survival) * abs(components_in(final, Axis.Y)[0])
        assert surviving_amp == pytest.approx(math.sqrt(alpha), abs=1e-12)
        assert survival == pytest.approx(alpha, abs=1e-12)

    @given(balanced_states(), st.lists(st.tuples(axes, branches, alphas_positive), max_size=4))
    def test_sequence_survival_is_the_unnormalized_norm(self, state, raw_ops):
        # the survival is the squared norm of the unrenormalized scaled state
        ops = [op(axis, branch, alpha) for axis, branch, alpha in raw_ops]
        vec = np.array([state.amp_up, state.amp_right])
        for the_op in ops:
            vec = scaling_matrix_oracle(the_op) @ vec
        survival = no_click_sequence_probability(ops, state)
        assert survival == pytest.approx(np.linalg.norm(vec) ** 2, abs=1e-12)


def walk_event_tree(ops, state):
    """All click/no-click branch probabilities of an op list (local oracle)."""
    probs = []

    def recurse(current, idx, prob):
        if idx == len(ops):
            probs.append(prob)
            return
        p_click = click_probability(ops[idx], current)
        if p_click > 0.0:
            probs.append(prob * p_click)
        if p_click < 1.0:
            recurse(no_click_map(ops[idx], current), idx + 1, prob * (1.0 - p_click))

    recurse(state, 0, 1.0)
    return probs


@settings(max_examples=60)
@given(polarization_states(), st.lists(st.tuples(axes, branches, alphas), min_size=1, max_size=5))
def test_probability_conservation_over_event_tree(state, raw_ops):
    ops = [op(axis, branch, alpha) for axis, branch, alpha in raw_ops]
    assert sum(walk_event_tree(ops, state)) == pytest.approx(1.0, abs=1e-9)


def sampled_outcomes():
    """Clicks (with a detector) and silences from ``cascade_measure``, and
    clicks and silences from ``sample_partial_pair``, on one seeded stream;
    then silences of a placement without detectors, which keep the input."""
    gen = np.random.default_rng(808)
    cascade = build_cascade(10)
    for branch in Branch:
        placement = DetectorPlacement(branch, frozenset({1, 4, 7}))
        for _ in range(40):
            yield cascade_measure(DIAG, placement, cascade, gen)
    the_op = op(Axis.X, Branch.PLUS, 0.5)
    for photon in Photon:
        for _ in range(40):
            yield sample_partial_pair(make_epr(), photon, the_op, TrackingMode.NORMALIZED, gen)
    for branch in Branch:
        yield cascade_measure(DIAG, DetectorPlacement(branch, frozenset()), cascade, gen)


class TestOutcomeContract:
    """Sampled outcomes are built without ``__init__``; they must be the
    outcomes the public constructor builds from the same fields."""

    def test_sampled_outcomes_equal_constructed_ones(self):
        kinds = set()
        for outcome in sampled_outcomes():
            built = MeasurementOutcome(
                outcome.clicked, outcome.probability, outcome.post_state, outcome.detector
            )
            assert outcome == built
            assert repr(outcome) == repr(built)
            assert hash(outcome) == hash(built)
            assert type(outcome.clicked) is bool
            # the same fields, in the same order, with the same values (signed
            # zeros too), of the outcome and its state
            state = outcome.post_state
            rebuilt = type(state)(*(getattr(state, f.name) for f in dataclasses.fields(state)))
            for record, expected in ((outcome, built), (state, rebuilt)):
                assert pickle.dumps(record) == pickle.dumps(expected)
                assert record.__getstate__() == expected.__getstate__()
            state_type = type(outcome.post_state).__name__
            kinds.add((state_type, outcome.clicked, outcome.detector is None))
        assert kinds == {
            ("PolarizationState", True, False),
            ("PolarizationState", False, True),
            ("PairState", True, True),
            ("PairState", False, True),
        }


class TestTwinBuiltRecords:
    """Every record built past ``__init__`` is filled into its twin and
    switched to its class; each must be the record that the constructor
    builds from the same fields (``conftest.assert_twin_built``)."""

    def test_silent_states(self):
        """``_silent_state``'s states, through ``no_click_map`` and ``_step``
        on tiny, signed-zero and random states, every axis and branch."""
        gen = np.random.default_rng(3401)
        states = [*tiny_part_states(), *signed_part_states(), *unit_states(gen, 40)]
        built = 0
        for state in states:
            for axis in Axis:
                for branch in Branch:
                    the_op = op(axis, branch, 0.3)
                    post = _step(state, None, the_op)[1]
                    if post is not None:
                        assert_twin_built(post, PolarizationState, measurement._OpenState)
                        assert no_click_map(the_op, state) == post
                        built += 1
        assert built > 3000

    def test_outcomes_and_their_states(self):
        """Outcomes from ``cascade_measure`` (clicks and silences),
        ``sample_partial_pair`` and ``_outcome``, with their post-states."""
        outcomes = [*sampled_outcomes(), measurement._outcome(False, 0.25, DIAG)]
        for outcome in outcomes:
            assert_twin_built(outcome, MeasurementOutcome, measurement._OpenOutcome)
            state = outcome.post_state
            if type(state) is PairState:
                assert_twin_built(state, PairState, epr._OpenPair)
            elif state not in (DIAG, UP, RIGHT):  # silent, or a click's basis state
                assert_twin_built(state, PolarizationState, measurement._OpenState)
        assert len(outcomes) == 163

    def test_pairs(self):
        """Pairs from ``_pair_step`` on random pairs, every photon, axis and
        branch, and from ``apply_quadruple`` on random quadruples."""
        gen = np.random.default_rng(3402)
        pairs = []
        for pair in unit_pairs(gen, 30):
            for photon in Photon:
                for axis in Axis:
                    for branch in Branch:
                        pairs.append(epr._pair_step(pair, photon, op(axis, branch, 0.4))[1])
        for _ in range(60):
            quad = IntensityQuadruple(*(0.05 + 0.95 * gen.random() for _ in range(4)))
            pairs.append(apply_quadruple(make_epr(), quad))
        for pair in pairs:
            assert_twin_built(pair, PairState, epr._OpenPair)
        assert len(pairs) == 420


# Unmeasured fractions from none to the smallest subnormal and to just below 1.
SILENT_ALPHAS = (0.0, 5e-324, 1e-300, 1e-16, 0.01, 0.5, 0.99, 1.0 - 2.0**-53)


def test_every_silent_state_is_a_unit_state():
    """``measurement._silent_state`` builds every single-photon no-click
    state past ``__init__``, with no zero-vector check.  On tiny, subnormal
    and signed-zero components, on every axis and both branches, the states
    that ``no_click_map`` and ``_step`` give have unit norm."""
    states = [*tiny_part_states(), *signed_part_states()]
    posts, worst = [], 0.0
    for state in states:
        for axis in Axis:
            for branch in Branch:
                for alpha in SILENT_ALPHAS:
                    the_op = op(axis, branch, alpha)
                    posts.append(_step(state, None, the_op)[1])
                    try:
                        posts.append(no_click_map(the_op, state))
                    except ZeroSurvival:
                        posts.append(None)
    for post in posts:
        if post is not None:
            worst = max(worst, abs(abs(post.amp_up) ** 2 + abs(post.amp_right) ** 2 - 1.0))
    assert (len(states), len(posts), posts.count(None)) == (600, 57600, 1456)
    assert worst <= NORM_TOL


# --- pinned amplitudes of the single-photon algebra -------------------------

SINGLE_PINNED_SEED = 20261021

SINGLE_AMPLITUDES_DIGEST = "91cdb19bfb3ff45edbf265b172be78e5a1185ebece30f2930bc888c7975d54f8"


def single_photon_inputs(gen):
    """The six basis states, then 40 random unit states."""
    for axis in Axis:
        for branch in Branch:
            yield basis_state(axis, branch)
    yield from unit_states(gen, 40)


def test_single_photon_amplitudes_pinned():
    """Per state, every (axis, branch, alpha) op with alpha 0, 1, 1e-40
    and random: ``click_probability`` and the amplitudes of
    ``no_click_map``; then three random op sequences through
    ``apply_sequence`` and ``no_click_sequence_probability``.  Any change to
    the bits of a click or survival probability, of a no-click amplitude
    or to where ZeroSurvival is raised changes the digest."""
    gen = np.random.default_rng(SINGLE_PINNED_SEED)
    ops = []
    lines = []
    for state in single_photon_inputs(gen):
        for axis in Axis:
            for branch in Branch:
                for alpha in (0.0, 1.0, 1e-40, gen.random()):
                    the_op = op(axis, branch, alpha)
                    ops.append(the_op)
                    lines += [
                        repr(click_probability(the_op, state)),
                        amplitude_text(no_click_map, the_op, state),
                    ]
        for _ in range(3):
            sequence = [ops[int(gen.random() * len(ops))] for _ in range(1 + int(gen.random() * 4))]
            lines += [
                amplitude_text(apply_sequence, sequence, state),
                repr(no_click_sequence_probability(sequence, state)),
            ]
    assert (len(lines), lines.count("ZeroSurvival")) == (2484, 11)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SINGLE_AMPLITUDES_DIGEST
