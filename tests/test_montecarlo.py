import dataclasses
import functools
import math
import pickle
import random
import re
import sys
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, seed, settings

from partial_eraser import montecarlo
from partial_eraser import (
    Axis,
    Branch,
    CascadeStep,
    ConfigError,
    DetectorPlacement,
    DomainError,
    EventLeaf,
    ExperimentConfig,
    InsufficientStatistics,
    IntensityQuadruple,
    MeasureStep,
    PartialMeasurementOp,
    Photon,
    Preparation,
    PrepKind,
    TrialRecord,
    TrialStats,
    ZeroSurvival,
    analytic_agreement,
    analytic_survival,
    basis_state,
    basis_vector,
    conditional_click_stat,
    enumerate_event_tree,
    estimate_vs_analytic,
    make_epr,
    run_experiment,
    weighted_epr_track,
    y_correlation_pair,
    y_correlation_single,
)
from partial_eraser.measurement import no_click_sequence_probability
from partial_eraser.montecarlo import (
    _CHUNK,
    _compile_plan,
    _digit_groups,
    _log_cell,
    _log_renderer,
    _row_counts,
    aggregate_records,
    count_trials,
    counter_stage_click,
    disagreed,
    iter_trials,
    survived,
    trial_uniforms,
)

from conftest import alphas, axes, branches, quadruples


def measure(photon, axis, branch, alpha):
    return MeasureStep(photon, PartialMeasurementOp(axis, branch, alpha))


def epr_config(plan, trials=100_000, seed=42):
    return ExperimentConfig(
        preparation=Preparation.epr(),
        plan=tuple(plan),
        final_axis=Axis.Y,
        trials=trials,
        master_seed=seed,
    )


HALF_UP_ON_A = measure(Photon.A, Axis.X, Branch.PLUS, 0.5)
HALF_RIGHT_ON_B = measure(Photon.B, Axis.X, Branch.MINUS, 0.5)


class TestRunExperiment:
    def test_golden_half_measurement(self):
        config = epr_config([HALF_UP_ON_A])
        stats = run_experiment(config)
        assert stats.total == 100_000
        assert stats.clicked + stats.surviving == stats.total

        survival_sigma = math.sqrt(0.75 * 0.25 / stats.total)
        assert abs(stats.surviving / stats.total - 0.75) < 3 * survival_sigma

        expected = y_correlation_pair(IntensityQuadruple(0.5, 1, 1, 1))
        assert stats.analytic_prediction == pytest.approx(expected, abs=1e-12)
        agree_sigma = math.sqrt(expected * (1 - expected) / stats.surviving)
        assert abs(stats.agreement_rate - expected) < 3 * agree_sigma
        assert abs(estimate_vs_analytic(stats)) < 4.0

    def test_empty_plan_agrees_perfectly(self):
        stats = run_experiment(epr_config([], trials=2_000))
        assert stats.clicked == 0
        assert stats.agreement_rate == 1.0
        assert stats.analytic_prediction == pytest.approx(1.0, abs=1e-12)
        assert estimate_vs_analytic(stats) == 0.0

    def test_erasure_restores_full_agreement(self):
        stats = run_experiment(epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=20_000))
        assert stats.agreement_rate == 1.0
        survival_sigma = math.sqrt(0.5 * 0.5 / stats.total)
        assert abs(stats.surviving / stats.total - 0.5) < 3 * survival_sigma

    def test_single_photon_correlation(self):
        config = ExperimentConfig(
            preparation=Preparation.single(Branch.PLUS),
            plan=(measure(Photon.A, Axis.X, Branch.PLUS, 0.5),),
            final_axis=Axis.Y,
            trials=50_000,
            master_seed=7,
        )
        stats = run_experiment(config)
        expected = y_correlation_single(0.5)
        assert stats.analytic_prediction == pytest.approx(expected, abs=1e-12)
        sigma = math.sqrt(expected * (1 - expected) / stats.surviving)
        assert abs(stats.agreement_rate - expected) < 3 * sigma

    def test_reproducible_bit_for_bit(self):
        config = epr_config([HALF_UP_ON_A], trials=5_000)
        assert run_experiment(config) == run_experiment(config)

    def test_seed_changes_outcomes(self):
        one = run_experiment(epr_config([HALF_UP_ON_A], trials=5_000, seed=1))
        two = run_experiment(epr_config([HALF_UP_ON_A], trials=5_000, seed=2))
        assert one != two

    def test_survival_accounting(self):
        config = epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=20_000)
        stats = run_experiment(config)
        survival = analytic_survival(config)
        assert survival == pytest.approx(0.5, abs=1e-12)
        sigma = math.sqrt(survival * (1 - survival) / stats.total)
        assert abs(stats.surviving / stats.total - survival) < 3 * sigma

    @given(quadruples())
    def test_survival_is_weighted_track_squared_sum(self, quad):
        config = epr_config(
            [
                measure(Photon.A, Axis.X, Branch.PLUS, quad.alpha),
                measure(Photon.A, Axis.X, Branch.MINUS, quad.beta),
                measure(Photon.B, Axis.X, Branch.PLUS, quad.gamma),
                measure(Photon.B, Axis.X, Branch.MINUS, quad.delta),
            ],
            trials=10,
        )
        epr, anti = weighted_epr_track(quad)
        assert analytic_survival(config) == pytest.approx(epr**2 + anti**2, abs=1e-12)

    def test_zero_survival_plan(self):
        config = ExperimentConfig(
            preparation=Preparation.single(Branch.PLUS),
            plan=(
                measure(Photon.A, Axis.X, Branch.PLUS, 0.0),
                measure(Photon.A, Axis.X, Branch.MINUS, 0.0),
            ),
            final_axis=Axis.Y,
            trials=10,
            master_seed=0,
        )
        assert analytic_survival(config) == 0.0
        leaves = enumerate_event_tree(config)
        assert sum(leaf.probability for leaf in leaves if not leaf.clicked) == 0.0
        assert sum(leaf.probability for leaf in leaves) == pytest.approx(1.0, abs=1e-12)

    def test_cascade_step_equivalent_to_op(self):
        by_op = epr_config([HALF_UP_ON_A], trials=30_000, seed=5)
        by_cascade = epr_config(
            [CascadeStep(Photon.A, Branch.PLUS, 50, 100)], trials=30_000, seed=5
        )
        assert analytic_agreement(by_cascade) == pytest.approx(
            analytic_agreement(by_op), abs=1e-12
        )
        stats = run_experiment(by_cascade)
        sigma = math.sqrt(0.75 * 0.25 / stats.total)
        assert abs(stats.surviving / stats.total - 0.75) < 3 * sigma
        assert abs(estimate_vs_analytic(stats)) < 4.0


class TestConfigValidation:
    def test_photon_b_in_single_photon_plan(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                preparation=Preparation.single(),
                plan=(HALF_RIGHT_ON_B,),
                final_axis=Axis.Y,
                trials=10,
                master_seed=0,
            )

    def test_zero_trials(self):
        with pytest.raises(ConfigError):
            epr_config([], trials=0)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            epr_config([], seed=-1)
        with pytest.raises(ConfigError):
            epr_config([], seed=2**64)

    def test_trials_bound_is_the_stream_length(self):
        assert epr_config([], trials=2**64).trials == 2**64
        with pytest.raises(ConfigError, match=f"^trials must be <= {2**64}, got {2**64 + 1}$"):
            epr_config([], trials=2**64 + 1)

    def test_cascade_step_bounds(self):
        with pytest.raises(ConfigError):
            CascadeStep(Photon.A, Branch.PLUS, 5, 4)

    @pytest.mark.parametrize(
        "args", [(2.5,), (2, 10.5), (True,), (2, True), (np.float64(2.0),), ("2",)]
    )
    def test_cascade_step_counts_are_integers(self, args):
        with pytest.raises(ConfigError, match="must be an integer"):
            CascadeStep(Photon.A, Branch.PLUS, *args)

    @pytest.mark.parametrize(
        "trials, seed", [(2.5, 0), (True, 0), (10, 1.5), (10, False), (10, np.float64(3.0))]
    )
    def test_trials_and_seed_are_integers(self, trials, seed):
        with pytest.raises(ConfigError, match="must be an integer"):
            epr_config([], trials=trials, seed=seed)

    @pytest.mark.parametrize(
        "kind, branch",
        [
            ("epr", Branch.PLUS),
            ("single", Branch.PLUS),
            (None, Branch.PLUS),
            (PrepKind.SINGLE_PHOTON, "minus"),
            (PrepKind.SINGLE_PHOTON, None),
            (PrepKind.EPR_PAIR, Axis.Y),
            (PrepKind.EPR_PAIR, Branch.MINUS),
        ],
    )
    def test_preparation_takes_only_members(self, kind, branch):
        """A kind or branch that is not a member would be read as some
        member (a string kind as a pair, a string branch as plus) and
        report a wrong agreement without an error.  A pair has no branch:
        one of minus would be ignored, and ``format_experiment`` would
        write it back as the plus pair."""
        with pytest.raises(ConfigError, match="preparation (kind|branch) must be one of"):
            Preparation(kind, branch)

    @pytest.mark.parametrize("axis", ["y", None, Branch.PLUS])
    def test_final_axis_is_an_axis(self, axis):
        with pytest.raises(ConfigError, match="final_axis must be one of Axis.X"):
            dataclasses.replace(epr_config([]), final_axis=axis)

    @pytest.mark.parametrize(
        "build, args, bad, error, field",
        [
            (PartialMeasurementOp, ("x", Branch.PLUS, 0.5), 0, DomainError, "axis"),
            (PartialMeasurementOp, (Branch.PLUS, Branch.PLUS, 0.5), 0, DomainError, "axis"),
            (PartialMeasurementOp, (Axis.X, "plus", 0.5), 1, DomainError, "branch"),
            (PartialMeasurementOp, (Axis.X, None, 0.5), 1, DomainError, "branch"),
            (PartialMeasurementOp, (Axis.X, Branch.PLUS, True), 2, DomainError, "alpha"),
            (PartialMeasurementOp, (Axis.X, Branch.PLUS, False), 2, DomainError, "alpha"),
            (MeasureStep, ("A", HALF_UP_ON_A.op), 0, ConfigError, "photon"),
            (MeasureStep, (True, HALF_UP_ON_A.op), 0, ConfigError, "photon"),
            (MeasureStep, (Photon.A, 0.5), 1, ConfigError, "op"),
            (MeasureStep, (Photon.A, HALF_UP_ON_A), 1, ConfigError, "op"),
            (CascadeStep, ("A", Branch.PLUS, 3), 0, ConfigError, "photon"),
            (CascadeStep, (Photon.A, "plus", 3), 1, ConfigError, "branch"),
            (CascadeStep, (Photon.A, Axis.X, 3), 1, ConfigError, "branch"),
            (DetectorPlacement, ("plus", frozenset({1})), 0, DomainError, "branch"),
            (DetectorPlacement, (False, frozenset({1})), 0, DomainError, "branch"),
            (PartialMeasurementOp, (Axis.X, Branch.PLUS, "0.5"), 2, DomainError, "alpha"),
            (PartialMeasurementOp, (Axis.X, Branch.PLUS, np.True_), 2, DomainError, "alpha"),
            (PartialMeasurementOp, (Axis.X, Branch.PLUS, None), 2, DomainError, "alpha"),
            (IntensityQuadruple, (True, 1, 1, 1), 0, DomainError, "alpha"),
            (IntensityQuadruple, (1, "0.5", 1, 1), 1, DomainError, "beta"),
            (IntensityQuadruple, (1, 1, 1, np.False_), 3, DomainError, "delta"),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_steps_and_ops_take_only_members(self, build, args, bad, error, field):
        """A foreign axis, branch or photon would be read as some member
        (a string branch as minus, a string photon as photon B), an op that
        is not one fails later, and neither a bool nor a value that is not a
        real number, such as a numeric string, is a fraction."""
        value = re.escape(repr(args[bad]))
        with pytest.raises(error, match=f"^{field} must be .*, got {value}$"):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, bad, error, field",
        [
            (ExperimentConfig, (Preparation.single(), (HALF_UP_ON_A.op,), Axis.Y, 10, 0),
             HALF_UP_ON_A.op, ConfigError, "plan steps"),
            (ExperimentConfig, (Preparation.epr(), ("junk",), Axis.Y, 10, 0),
             "junk", ConfigError, "plan steps"),
            (ExperimentConfig, (Preparation.epr(), (HALF_UP_ON_A, None), Axis.Y, 10, 0),
             None, ConfigError, "plan steps"),
            (ExperimentConfig, (Preparation.epr(), None, Axis.Y, 10, 0),
             None, ConfigError, "plan"),
            (ExperimentConfig, (Preparation.epr(), 3, Axis.Y, 10, 0), 3, ConfigError, "plan"),
            (ExperimentConfig, ("prep", (), Axis.Y, 10, 0), "prep", ConfigError, "preparation"),
            (ExperimentConfig, (PrepKind.EPR_PAIR, (), Axis.Y, 10, 0),
             PrepKind.EPR_PAIR, ConfigError, "preparation"),
            (DetectorPlacement, (Branch.PLUS, 5), 5, DomainError, "beam indices"),
            (DetectorPlacement, (Branch.PLUS, None), None, DomainError, "beam indices"),
        ],
        ids=[
            "op as step", "string step", "None step", "None plan", "int plan",
            "string preparation", "kind as preparation", "int indices", "None indices",
        ],
    )
    def test_configs_take_only_steps(self, build, args, bad, error, field):
        """A preparation that is not a ``Preparation``, a plan that is not
        an iterable of ``MeasureStep`` and ``CascadeStep``, and beam indices
        that are not iterable are refused where they are given, not read
        later as some attribute they lack."""
        value = re.escape(repr(bad))
        with pytest.raises(error, match=f"^{field} must be .*, got {value}$"):
            build(*args)

    def test_numpy_numbers_are_fractions(self):
        the_op = PartialMeasurementOp(Axis.X, Branch.PLUS, np.float32(0.5))
        assert type(the_op.alpha) is float and the_op.alpha == 0.5
        quad = IntensityQuadruple(np.float64(0.25), np.int64(1), 1, np.float32(0.5))
        assert (quad.alpha, quad.beta, quad.gamma, quad.delta) == (0.25, 1.0, 1.0, 0.5)
        assert all(type(value) is float for value in vars(quad).values())

    def test_numpy_integers_are_counts(self):
        """Stored as ``int``, so they show as the Python integers do."""
        step = CascadeStep(Photon.A, Branch.PLUS, np.int64(2), np.int32(10))
        config = epr_config([step], trials=np.int64(500), seed=np.uint64(2**64 - 1))
        assert run_experiment(config).total == 500
        same = epr_config([CascadeStep(Photon.A, Branch.PLUS, 2, 10)], 500, 2**64 - 1)
        assert repr(step) == repr(same.plan[0]) == (
            "CascadeStep(photon=<Photon.A: 'A'>, branch=<Branch.PLUS: 'plus'>, "
            "n_detectors=2, n_beams=10)"
        )
        assert repr(config) == repr(same)
        assert repr(run_experiment(config)) == repr(run_experiment(same))
        values = (step.n_detectors, step.n_beams, config.trials, config.master_seed)
        assert all(type(value) is int for value in values)


class TestCascadeStepOp:
    def test_folds_build_no_op(self, monkeypatch):
        """A cascade step builds its op once, when it is made; no fold
        builds one."""
        config = epr_config(
            [CascadeStep(Photon.A, Branch.PLUS, 30), CascadeStep(Photon.B, Branch.MINUS, 20, 50)],
            trials=5000,
        )
        built = []
        post_init = PartialMeasurementOp.__post_init__

        def counting(op):
            built.append(op)
            post_init(op)

        monkeypatch.setattr(PartialMeasurementOp, "__post_init__", counting)
        config._walk
        enumerate_event_tree(config)
        analytic_agreement(config)
        run_experiment(config)
        assert built == []
        CascadeStep(Photon.A, Branch.PLUS, 1)  # the count sees a construction
        assert len(built) == 1

    def test_replace_and_pickle_keep_the_op(self):
        step = CascadeStep(Photon.A, Branch.PLUS, 30, 40)
        assert step.op == PartialMeasurementOp(Axis.X, Branch.PLUS, 0.25)
        assert repr(step) == (
            "CascadeStep(photon=<Photon.A: 'A'>, branch=<Branch.PLUS: 'plus'>, "
            "n_detectors=30, n_beams=40)"
        )
        other = dataclasses.replace(step, branch=Branch.MINUS, n_detectors=10)
        assert other.op == PartialMeasurementOp(Axis.X, Branch.MINUS, 0.75)
        copy = pickle.loads(pickle.dumps(step))
        assert copy == step and copy.op == step.op


class TestConditionalClickStat:
    def test_baseline_disagreement_among_survivors(self):
        config = epr_config([HALF_UP_ON_A], trials=60_000, seed=99)
        rate = conditional_click_stat(config, survived, event=disagreed)
        expected = 1.0 - y_correlation_single(0.5)
        sigma = math.sqrt(expected * (1 - expected) / (0.75 * config.trials))
        assert abs(rate - expected) < 3 * sigma

    def test_counter_measurement_removes_disagreement(self):
        config = epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=60_000, seed=99)
        assert conditional_click_stat(config, survived, event=disagreed) == 0.0

    def test_counter_stage_click_mass(self):
        config = epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=60_000, seed=17)
        rate = conditional_click_stat(config, lambda record: True, counter_stage_click(1))
        sigma = math.sqrt(0.25 * 0.75 / config.trials)
        assert abs(rate - 0.25) < 3 * sigma

    def test_vacuous_condition_empty_plan(self):
        config = epr_config([], trials=500)
        rate = conditional_click_stat(config, lambda record: True, counter_stage_click(0))
        assert rate == 0.0

    def test_insufficient_statistics(self):
        config = epr_config([HALF_UP_ON_A], trials=200, seed=3)
        with pytest.raises(InsufficientStatistics):
            conditional_click_stat(config, disagreed, counter_stage_click(0))


class TestEstimator:
    def test_perfect_match(self):
        stats = TrialStats(100, 0, 100, 97, 0.97, 0.0017, 0.97)
        assert estimate_vs_analytic(stats) == 0.0

    def test_arithmetic(self):
        stats = TrialStats(1000, 0, 1000, 975, 0.975, 0.002, 0.9714)
        assert estimate_vs_analytic(stats) == pytest.approx(1.8, abs=1e-12)

    def test_zero_error_mismatch_is_infinite(self):
        stats = TrialStats(10, 0, 10, 10, 1.0, 0.0, 0.9)
        assert estimate_vs_analytic(stats) == math.inf

    def test_no_survivors_have_no_z_score(self):
        stats = TrialStats(10, 10, 0, 0, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError, match="^z score undefined with no surviving trials$"):
            estimate_vs_analytic(stats)

    def test_zero_error_forgives_rounding_of_an_exact_prediction(self):
        stats = TrialStats(10, 0, 10, 10, 1.0, 0.0, 1 - 2**-52)
        assert estimate_vs_analytic(stats) == 0.0


# --- exhaustive event tree ---------------------------------------------------

TOY_CONFIG = ExperimentConfig(
    preparation=Preparation.single(Branch.PLUS),
    plan=(
        CascadeStep(Photon.A, Branch.PLUS, 2, 4),
        CascadeStep(Photon.A, Branch.MINUS, 1, 4),
    ),
    final_axis=Axis.Y,
    trials=100_000,
    master_seed=11,
)


def toy_leaf_weights():
    """Branch weights of TOY_CONFIG from first principles.

    Stage 0: two of four beams on the up branch, click mass (2/4)(1/2),
    split per detector.  Stage 1: one of four beams on the right branch of
    the surviving state (up 1/3, right 2/3), click mass (1/4)(2/3).  The
    survivor (up 2/5, right 3/5) meets a diagonal measurement.
    """
    per_det_0 = 0.5 * 0.5 / 2
    pass_0 = 1 - 0.5 * 0.5
    per_det_1 = pass_0 * ((1 / 4) * (2 / 3))
    survive = pass_0 * (1 - (1 / 4) * (2 / 3))
    p_diag = (math.sqrt(2 / 5) + math.sqrt(3 / 5)) ** 2 / 2
    return {
        "click@0:det0": per_det_0,
        "click@0:det1": per_det_0,
        "click@1:det0": per_det_1,
        "final:plus": survive * p_diag,
        "final:minus": survive * (1 - p_diag),
    }


def leaf_key(leaf):
    return leaf.path[-1]


def record_key(record):
    if record.click_step is not None:
        return f"click@{record.click_step}:det{record.detector}"
    return f"final:{record.result_a.value}"


class TestEventTree:
    def test_weights_match_closed_forms(self):
        leaves = enumerate_event_tree(TOY_CONFIG)
        expected = toy_leaf_weights()
        assert len(leaves) == len(expected)
        for leaf in leaves:
            assert leaf.probability == pytest.approx(expected[leaf_key(leaf)], abs=1e-12)

    def test_weights_sum_to_one(self):
        total = sum(leaf.probability for leaf in enumerate_event_tree(TOY_CONFIG))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_frequencies_match(self):
        counts = Counter(record_key(r) for r in iter_trials(TOY_CONFIG))
        n = TOY_CONFIG.trials
        for key, p in toy_leaf_weights().items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[key] / n - p) < 5 * sigma, key

    def test_pair_tree_weights(self):
        config = epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=10)
        leaves = enumerate_event_tree(config)
        by_key = {leaf.path[-1]: leaf.probability for leaf in leaves}
        assert by_key["click@0"] == pytest.approx(0.25, abs=1e-12)
        assert by_key["click@1"] == pytest.approx(0.25, abs=1e-12)
        assert by_key["final:plus,plus"] == pytest.approx(0.25, abs=1e-12)
        assert by_key["final:minus,minus"] == pytest.approx(0.25, abs=1e-12)
        assert by_key["final:plus,minus"] == pytest.approx(0.0, abs=1e-15)
        assert by_key["final:minus,plus"] == pytest.approx(0.0, abs=1e-15)
        assert sum(by_key.values()) == pytest.approx(1.0, abs=1e-12)

    def test_agreement_flags(self):
        leaves = enumerate_event_tree(TOY_CONFIG)
        for leaf in leaves:
            if leaf.clicked:
                assert leaf.agreement is None
            else:
                assert leaf.agreement is (leaf_key(leaf) == "final:plus")

    def test_long_erasure_chain(self):
        """1,000 rounds of measuring A and erasing on B: a tree deeper than
        the interpreter's recursion limit."""
        rounds = [
            measure(Photon.A, Axis.X, Branch.PLUS, 0.99),
            measure(Photon.B, Axis.X, Branch.MINUS, 0.99),
        ]
        config = epr_config(rounds * 1000, trials=10)
        leaves = enumerate_event_tree(config)
        assert len(leaves) == 2004
        assert sum(leaf.probability for leaf in leaves) == pytest.approx(1.0, abs=1e-12)
        surviving = sum(leaf.probability for leaf in leaves if not leaf.clicked)
        assert surviving == pytest.approx(4.317e-05, rel=1e-3)
        assert surviving == pytest.approx(analytic_survival(config), rel=1e-12)
        assert analytic_agreement(config) == 1.0


# --- batch streams and the chunked sampler ----------------------------------


def sequential_draws(seed, start, n):
    """Entries ``start .. start+n-1`` of the stream layout in its scalar
    form: ``default_rng(seed)`` moved past the ``start`` draws of the
    trials before, then one draw per trial, one at a time."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start)
    return np.array([rng.random() for _ in range(n)])


class TestTrialUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize(
        "start, stop", [(0, 3000), (2**32 - 5, 2**32 + 5), (2**32 + 7, 2**32 + 7 + _CHUNK)]
    )
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_equals_trial_stream(self, seed, start, stop, k):
        """Entry ``i`` is draw ``start + i`` of the one ``default_rng(seed)``
        (not ``trial_stream``, which is a stream per trial for scalar
        samplers), whether the window is drawn at once or as ``k``
        consecutive ranges."""
        expected = sequential_draws(seed, start, stop - start)
        edges = [start + (stop - start) * j // k for j in range(k + 1)]
        got = np.concatenate([trial_uniforms(seed, a, b) for a, b in zip(edges, edges[1:])])
        assert got.shape == (stop - start,)
        assert got.tobytes() == expected.tobytes()
        if start == 0:
            # A later start, against draws taken from the stream's start.
            assert trial_uniforms(seed, 1000, stop).tobytes() == expected[1000:].tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 8),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_random_seed_and_start(self, seed, start, first, second):
        """Ranges ``[a, b)`` and ``[b, c)`` stack to ``[a, c)``."""
        middle, stop = start + first, start + first + second
        stacked = np.concatenate(
            [trial_uniforms(seed, start, middle), trial_uniforms(seed, middle, stop)]
        )
        assert stacked.tobytes() == trial_uniforms(seed, start, stop).tobytes()

    @pytest.mark.parametrize("seed, start, stop", [(-1, 0, 5), (2**64, 0, 5), (0, 5, 4)])
    def test_out_of_range_is_domain_error(self, seed, start, stop):
        with pytest.raises(DomainError):
            trial_uniforms(seed, start, stop)

    @pytest.mark.parametrize(
        "seed, start, stop",
        [
            (5, np.int64(0), np.int64(3)),
            (0, np.int64(2**32 - 5), np.int64(2**32 + 5)),
            (np.uint64(2**64 - 1), np.uint64(2**63), np.uint64(2**63 + 7)),
            (np.int32(7), np.int32(9), np.int32(9)),
        ],
        ids=repr,
    )
    def test_numpy_integer_ranges(self, seed, start, stop):
        """A range given as numpy integers draws the doubles of the same
        range given as Python integers."""
        expected = trial_uniforms(int(seed), int(start), int(stop))
        assert trial_uniforms(seed, start, stop).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start, stop", [(-1, 3), (5, 4)])
    def test_numpy_integers_out_of_range_are_domain_errors(self, start, stop):
        with pytest.raises(DomainError):
            trial_uniforms(0, np.int64(start), np.int64(stop))

    @pytest.mark.parametrize(
        "seed, start, stop",
        [(True, 0, 2), (0, 0, True), (0, False, 2), (1.0, 0, 2), (0, 0.5, 3), (0, 0, 3.0),
         (np.float64(1), 0, 2), (np.True_, 0, 2), ("1", 0, 2)],
        ids=repr,
    )
    def test_non_integers_are_domain_errors(self, seed, start, stop):
        """A bool is not read as 0 or 1, and a float is refused, not
        handed to numpy."""
        with pytest.raises(DomainError, match="must be an integer"):
            trial_uniforms(seed, start, stop)


# Cached, so that the tests below share one scalar pass per plan.
@functools.cache
def reference_records(config):
    """Every trial's record, each trial taking the next draw of one
    sequential ``default_rng(master_seed)`` and scanning a running sum of
    the row probabilities; the last row of positive probability takes the
    rounding rest."""
    table, probabilities = _compile_plan(config)
    last = max(key for key, p in enumerate(probabilities) if p > 0.0)
    rng = np.random.default_rng(config.master_seed)
    records = []
    for index in range(config.trials):
        u, running = rng.random(), 0.0
        for key, p in enumerate(probabilities):
            running += p
            if u < running or key == last:
                break
        records.append(TrialRecord(index, *table[key]))
    return records


def reference_log(records):
    """The trial log's lines written row by row from records, as ``run``
    did before the log was rendered from the sampler's outcome table."""
    lines = ["trial,click_step,detector,result_a,result_b,agreement\n"]
    for r in records:
        row = [
            r.index,
            "" if r.click_step is None else r.click_step,
            "" if r.detector is None else r.detector,
            "" if r.result_a is None else r.result_a.value,
            "" if r.result_b is None else r.result_b.value,
            "" if r.agreement is None else int(r.agreement),
        ]
        lines.append(",".join(str(v) for v in row) + "\n")
    return lines


def log_text(config):
    """The ``run --log-trials`` text, as the counting pass writes it."""
    parts = []
    count_trials(config, parts.append)
    return b"".join(parts).decode("ascii")


def random_plan(gen, trials):
    """Single photon or pair, 0-5 steps: ops with alpha 0, 1 or random,
    cascades with 0 to all detectors."""
    single = gen.random() < 0.5
    steps = []
    for _ in range(gen.randint(0, 5)):
        photon = Photon.A if single else gen.choice(list(Photon))
        branch = gen.choice(list(Branch))
        if gen.random() < 0.4:
            n_beams = gen.randint(1, 12)
            steps.append(CascadeStep(photon, branch, gen.randint(0, n_beams), n_beams))
        else:
            alpha = gen.choice([0.0, 1.0, gen.random()])
            steps.append(measure(photon, gen.choice(list(Axis)), branch, alpha))
    preparation = Preparation.single(gen.choice(list(Branch))) if single else Preparation.epr()
    return ExperimentConfig(
        preparation, tuple(steps), gen.choice(list(Axis)), trials, gen.randrange(2**64)
    )


def outcome(fn, *args):
    """What ``fn`` returns, or the ZeroSurvival it raises."""
    try:
        return fn(*args)
    except ZeroSurvival:
        return ZeroSurvival


def stat_outcome(fn, *args):
    """What ``fn`` returns, or the statistics error it raises."""
    try:
        return fn(*args)
    except (InsufficientStatistics, ZeroSurvival) as exc:
        return type(exc)


def always(record):
    return True


def record_ratio(records, condition, event):
    """``conditional_click_stat`` evaluated one record at a time."""
    selected = [record for record in records if condition(record)]
    if len(selected) < 100:
        raise InsufficientStatistics(f"only {len(selected)} trials satisfy the condition")
    return sum(1 for record in selected if event(record)) / len(selected)


def same_stats(one, two):
    if one is ZeroSurvival or two is ZeroSurvival:
        return one is two
    # NaN rates (no survivors) must match too.
    return repr(one) == repr(two)


_GEN = random.Random(20261018)
# Two full chunks and a partial third, so every plan crosses chunk edges.
RANDOM_PLANS = [random_plan(_GEN, 2 * _CHUNK + _GEN.randint(1, 200)) for _ in range(30)]
EDGE_PLANS = [
    # clicks with certainty at the first step
    ExperimentConfig(
        Preparation.single(Branch.PLUS),
        (measure(Photon.A, Axis.Y, Branch.PLUS, 0.0),),
        Axis.Y, 2 * _CHUNK + 7, 3,
    ),
    # the second step measures all of what the first one left silent
    ExperimentConfig(
        Preparation.single(Branch.PLUS),
        (
            measure(Photon.A, Axis.X, Branch.PLUS, 0.0),
            measure(Photon.A, Axis.X, Branch.MINUS, 0.0),
        ),
        Axis.Y, 2 * _CHUNK + 7, 3,
    ),
    # the silence is possible in exact arithmetic, but its probability
    # rounds to 0: p_click is 1.0 at the second step
    ExperimentConfig(
        Preparation.single(Branch.PLUS),
        (
            measure(Photon.A, Axis.X, Branch.PLUS, 1e-40),
            measure(Photon.A, Axis.X, Branch.MINUS, 0.0),
        ),
        Axis.Y, 2 * _CHUNK + 7, 3,
    ),
    # a cascade with no detectors adds no rows
    ExperimentConfig(
        Preparation.epr(),
        (CascadeStep(Photon.A, Branch.PLUS, 0, 7), measure(Photon.B, Axis.X, Branch.MINUS, 0.3)),
        Axis.X, 2 * _CHUNK + 7, 3,
    ),
    # a trailing identity op, whose click row never happens; so do the
    # last final rows, and the rows before them sum to less than the
    # largest uniform below 1
    ExperimentConfig(
        Preparation.epr(),
        (
            measure(Photon.B, Axis.X, Branch.MINUS, 0.3),
            measure(Photon.A, Axis.X, Branch.PLUS, 0.7),
            measure(Photon.A, Axis.X, Branch.MINUS, 0.0),
            measure(Photon.B, Axis.Y, Branch.MINUS, 1.0),
        ),
        Axis.X, 2 * _CHUNK + 7, 3,
    ),
]


SAMPLER_PLANS = pytest.mark.parametrize(
    "config",
    RANDOM_PLANS + EDGE_PLANS,
    ids=[f"plan{i}" for i in range(len(RANDOM_PLANS))]
    + [
        "certain-click", "silence-impossible", "silence-rounds-to-zero",
        "no-detectors", "trailing-identity",
    ],
)


class TestChunkedSampler:
    @SAMPLER_PLANS
    def test_records_match_scalar_reference(self, config):
        assert config.trials > 2 * _CHUNK and config.trials % _CHUNK
        reference = reference_records(config)
        assert list(iter_trials(config)) == reference
        assert same_stats(
            outcome(run_experiment, config),
            outcome(aggregate_records, config, reference),
        )

    @SAMPLER_PLANS
    def test_log_matches_row_formula(self, config):
        # Compared line by line: pytest's diff of two long strings is slow.
        lines = log_text(config).splitlines(keepends=True)
        assert lines == reference_log(reference_records(config))

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(
                Preparation.single(Branch.PLUS),
                (CascadeStep(Photon.A, Branch.PLUS, 12, 30),),
                Axis.Y, 3 * 10**4 + 77, 11,
            ),
            epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=3 * 10**4 + 77, seed=12),
        ],
        ids=["cascade", "pair"],
    )
    def test_log_matches_row_formula_past_several_carries(self, config):
        """Past the index-word carries at 10,000, 20,000 and 30,000."""
        self.test_log_matches_row_formula(config)

    @SAMPLER_PLANS
    def test_conditional_click_stat_matches_records(self, config):
        reference = reference_records(config)
        for condition, event in (
            (survived, disagreed),
            (always, counter_stage_click(1)),
            (disagreed, counter_stage_click(0)),
        ):
            expected = stat_outcome(record_ratio, reference, condition, event)
            assert stat_outcome(conditional_click_stat, config, condition, event) == expected

    @SAMPLER_PLANS
    def test_row_probabilities_equal_event_tree_leaves(self, config):
        leaves = {leaf.path[-1]: leaf.probability for leaf in enumerate_event_tree(config)}
        table, probabilities = _compile_plan(config)
        assert len(table) == len(probabilities)
        for (step, detector, result_a, result_b, _), p in zip(table, probabilities):
            if step is None:
                label = "final:" + ",".join(r.value for r in (result_a, result_b) if r is not None)
            else:
                label = f"click@{step}" + ("" if detector is None else f":det{detector}")
            # The tree has no leaf for an abstract op that cannot click.
            assert p == pytest.approx(leaves.pop(label, 0.0), abs=1e-12), label
        assert not leaves

    @SAMPLER_PLANS
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["lowest", "highest"])
    def test_no_trial_lands_on_an_impossible_row(self, monkeypatch, config, u):
        streams = []

        def constant(master_seed, trials):
            streams.append(trials)
            for start in range(0, trials, _CHUNK):
                yield start, np.full(min(_CHUNK, trials - start), u)

        monkeypatch.setattr(montecarlo, "_uniform_chunks", constant)
        _, probabilities = _compile_plan(config)
        _, counts = _row_counts(config)
        assert streams == [config.trials]
        assert sum(counts) == config.trials
        assert all(p > 0.0 for p, n in zip(probabilities, counts) if n)

    def test_long_plan_memory_is_small(self):
        """A chunk holds one uniform and one key per trial, whatever the
        plan's length."""
        rounds = [
            measure(Photon.A, Axis.X, Branch.PLUS, 0.999),
            measure(Photon.B, Axis.X, Branch.MINUS, 0.999),
        ]
        config = epr_config(rounds * 500, trials=50_000)
        tracemalloc.start()
        try:
            count_trials(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak


def searchsorted_keys(probabilities, u):
    """The rows that ``u`` selects, keyed as the runner keyed them before
    the guide table: one binary search over the running sums, the last
    positive one and all after it ``inf``."""
    thresholds = np.cumsum(probabilities)
    thresholds[np.flatnonzero(probabilities)[-1]:] = np.inf
    return np.searchsorted(thresholds, u, side="right")


def edge_uniforms(probabilities):
    """The uniforms where a guide table can go wrong: 0, the largest double
    below 1, every cell edge, and every running sum with its two
    neighbours, those of them that lie in [0, 1)."""
    sums = np.cumsum(probabilities)
    cells = np.arange(montecarlo._GUIDE_CELLS) / montecarlo._GUIDE_CELLS
    u = np.concatenate(
        [[0.0, 1.0 - 2.0**-53], cells, sums, np.nextafter(sums, -1.0), np.nextafter(sums, 2.0)]
    )
    return u[(u >= 0.0) & (u < 1.0)]


KEYED_TABLES = {
    # 50 small detector rows inside a few guide cells
    "clumped": ExperimentConfig(
        Preparation.epr(),
        (measure(Photon.A, Axis.X, Branch.PLUS, 0.001), CascadeStep(Photon.B, Branch.PLUS, 50)),
        Axis.Y, 1, 0,
    ),
    "100-detector cascade": ExperimentConfig(
        Preparation.single(Branch.PLUS),
        (CascadeStep(Photon.A, Branch.MINUS, 100, 200),),
        Axis.Y, 1, 0,
    ),
    # two of its four final rows cannot happen
    "empty_plan": epr_config([], trials=1),
}


class TestRowKeys:
    """The guide-table keys equal the binary search's, bit for bit."""

    def assert_exact(self, probabilities):
        u = np.concatenate([edge_uniforms(probabilities), trial_uniforms(7, 0, _CHUNK)])
        keys = montecarlo._row_keys(probabilities)(u)
        assert keys.dtype == np.intp
        np.testing.assert_array_equal(keys, searchsorted_keys(probabilities, u))

    @SAMPLER_PLANS
    def test_sampler_plans(self, config):
        self.assert_exact(_compile_plan(config)[1])

    @pytest.mark.parametrize("name", KEYED_TABLES)
    def test_named_tables(self, name):
        probabilities = _compile_plan(KEYED_TABLES[name])[1]
        assert len(probabilities) == {"clumped": 55, "100-detector cascade": 102}.get(name, 4)
        assert (0.0 in probabilities) == (name == "empty_plan")
        self.assert_exact(probabilities)

    @seed(20261019)
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e-3), st.floats(1e-300, 1.0)),
            min_size=1, max_size=80,
        ).filter(any),
        st.floats(0.5, 2.0),
    )
    def test_random_probability_vectors(self, weights, total):
        """Rows of any size, zero rows among them, summing to ``total``."""
        self.assert_exact(list(np.array(weights) * (total / sum(weights))))


def fstring_log(table, start, keys):
    """The trial log rows of trials ``start, start + 1, ...`` on the table
    rows ``keys``, one f-string per trial, as ``run`` rendered them before
    ``_log_renderer``."""
    tails = ["".join("," + _log_cell(value) for value in row) + "\n" for row in table]
    return "".join(f"{index}{tails[key]}" for index, key in enumerate(keys, start))


RENDER_PLANS = {
    # two-digit detector ids
    "100-detector cascade": ExperimentConfig(
        Preparation.single(Branch.PLUS),
        (CascadeStep(Photon.A, Branch.MINUS, 100, 200),),
        Axis.Y, 1, 0,
    ),
    "pair finals": epr_config([], trials=1),
    "single finals": ExperimentConfig(Preparation.single(Branch.MINUS), (), Axis.X, 1, 0),
    # the certain click ends the plan: no final rows
    "certain click": EDGE_PLANS[0],
}


class TestLogRenderer:
    @pytest.mark.parametrize("name", RENDER_PLANS)
    @seed(20261019)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_fstring_reference(self, name, data):
        """Byte for byte, on windows that straddle each power of ten from
        10 to 10^19, windows that straddle multiples of 10^4 that are not
        powers of ten, a window from 0 past 10,000, and one that ends at
        the last trial index ``2^64 - 1``."""
        table = _compile_plan(RENDER_PLANS[name])[0]
        render = _log_renderer(table)
        keys = data.draw(st.lists(st.integers(0, len(table) - 1), min_size=2, max_size=50))
        # Indices of two to five 4-digit words; at 2 * 10^9 and
        # 3 * 10^12 the carry runs through two and three words.
        edges = [10**power for power in range(1, 20)] + [
            20_000, 12_350_000, 1_999_990_000, 2 * 10**9, 123_456_780_000, 3 * 10**12,
            9_876_543_210_987_650_000,
        ]
        windows = [edge - data.draw(st.integers(1, len(keys) - 1)) for edge in edges]
        windows += [0, 2**64 - len(keys)]
        for start in windows:
            part = np.resize(keys, 10_050) if start == 0 else np.array(keys)
            expected = fstring_log(table, start, part.tolist()).encode("ascii")
            assert render(start, part) == expected, start

    def test_digit_table(self):
        """Row 0 holds ``f"{i:04d}"`` and row 1 ``i`` with NUL bytes for
        its leading zeros, as the four bytes of each ``uint32``, for every
        ``i < 10^4``."""
        groups = _digit_groups()
        assert groups.shape == (2, 10_000) and groups.dtype == np.uint32
        assert groups[0].tobytes() == "".join(f"{i:04d}" for i in range(10_000)).encode()
        short = "".join(str(i).rjust(4, "\0") for i in range(10_000))
        assert groups[1].tobytes() == short.encode()

    def test_plans_have_the_rows_named(self):
        """100 detector rows and two finals, four finals, two finals, and
        one click row."""
        sizes = [len(_compile_plan(config)[0]) for config in RENDER_PLANS.values()]
        assert sizes == [102, 4, 2, 1]


class TestNoClickPath:
    def test_run_folds_the_plan_once(self, monkeypatch, tmp_path):
        """Two runs of one config fold its plan once between them."""
        algebra, folds = montecarlo._algebra, []

        def counted(preparation):
            folds.append(preparation)
            return algebra(preparation)

        # Only a config's fold and the event tree start from ``_algebra``.
        monkeypatch.setattr(montecarlo, "_algebra", counted)
        config = epr_config([measure(Photon.A, Axis.X, Branch.PLUS, 0.5)], trials=100)
        run_experiment(config)
        run_experiment(config, str(tmp_path / "log.csv"))
        assert folds == [config.preparation]

    def test_folding_leaves_the_config_as_it_was(self):
        """A config's ``==``, ``hash``, ``repr``, pickle round trip and
        ``dataclasses.replace`` read its fields only, so they are the same
        before and after its plan is folded; a config replaced with another
        plan gives that plan's survival."""
        for config in RANDOM_PLANS + EDGE_PLANS:
            twin = dataclasses.replace(config)

            def views():
                copy = pickle.loads(pickle.dumps(config))
                replaced = dataclasses.replace(config)
                return [
                    (other == config, other == twin, hash(other), repr(other))
                    for other in (config, copy, replaced)
                ]

            before = views()
            outcome(analytic_agreement, config)
            assert views() == before
            assert analytic_survival(dataclasses.replace(config, plan=())) == 1.0
            first = ExperimentConfig(
                config.preparation, config.plan[:1], config.final_axis, 1, 0
            )
            replaced = dataclasses.replace(config, plan=config.plan[:1], trials=1, master_seed=0)
            assert analytic_survival(replaced) == analytic_survival(first)

    @SAMPLER_PLANS
    def test_agreement_matches_event_tree(self, config):
        finals = [leaf for leaf in enumerate_event_tree(config) if not leaf.clicked]
        no_survivor = analytic_survival(config) == 0.0
        assert no_survivor == (not finals)
        if no_survivor:
            with pytest.raises(ZeroSurvival, match="no-click impossible"):
                analytic_agreement(config)
        else:
            surviving = sum(leaf.probability for leaf in finals)
            agreeing = sum(leaf.probability for leaf in finals if leaf.agreement)
            assert analytic_agreement(config) == pytest.approx(agreeing / surviving, abs=1e-12)

    def test_sequence_probability_equals_survival(self):
        singles = [
            config for config in RANDOM_PLANS + EDGE_PLANS
            if config.preparation.kind is PrepKind.SINGLE_PHOTON
        ]
        assert len(singles) > len(EDGE_PLANS)
        for config in singles:
            ops = [step.op for step in config.plan]
            state = basis_state(Axis.Y, config.preparation.branch)
            assert no_click_sequence_probability(ops, state) == analytic_survival(config)


class TestEventLeaf:
    def test_leaves_match_the_constructor(self):
        """``enumerate_event_tree`` builds its leaves in place, past
        ``__init__``; each must be the leaf the constructor makes of its
        fields, and stay frozen and picklable."""
        gen = random.Random(20261019)
        pair_plans = []
        while len(pair_plans) < 50:
            config = random_plan(gen, 1)
            if config.preparation.kind is PrepKind.EPR_PAIR:
                pair_plans.append(config)
        fields = dataclasses.fields(EventLeaf)
        leaves = [
            leaf
            for config in RANDOM_PLANS + EDGE_PLANS + pair_plans
            for leaf in enumerate_event_tree(config)
        ]
        assert len(leaves) > 500
        for leaf in leaves:
            built = EventLeaf(*(getattr(leaf, field.name) for field in fields))
            assert type(leaf) is EventLeaf
            assert leaf == built and hash(leaf) == hash(built) and repr(leaf) == repr(built)
            copy = pickle.loads(pickle.dumps(leaf))
            assert type(copy) is EventLeaf and copy == leaf and repr(copy) == repr(leaf)
            for field in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(leaf, field.name, None)


def fstring_tree(config, asked):
    """The event tree as built before the label table: one f-string label
    and one constructor call per leaf.  Records in ``asked`` the largest
    detector count that each reached step index asks for."""
    state, step_fn = montecarlo._algebra(config.preparation)
    leaves, prob, path = [], 1.0, ()
    for k, step in enumerate(config.plan):
        p_click, state = step_fn(state, step.photon, step.op)
        if isinstance(step, CascadeStep):
            if n := step.n_detectors:
                asked[k] = max(asked.get(k, 0), n)
            leaves += [
                EventLeaf(path + (f"click@{k}:det{j}",), prob * (p_click / n), True, None)
                for j in range(n)
            ]
        elif p_click > 0.0:
            leaves.append(EventLeaf(path + (f"click@{k}",), prob * p_click, True, None))
        if state is None:
            return tuple(leaves)
        prob *= 1.0 - p_click
        path += (f"pass@{k}",)
    for p, a, b, agreement in montecarlo._final_outcomes(
        config.preparation, state, config.final_axis
    ):
        label = f"final:{a.value}" if b is None else f"final:{a.value},{b.value}"
        leaves.append(EventLeaf(path + (label,), prob * p, False, agreement))
    return tuple(leaves)


def label_plans(gen, count):
    """Plans of 1 to 6 steps whose cascades, some after abstract ops, ask
    for random step indices and detector counts (0 to 300) in random order."""
    for _ in range(count):
        single = gen.random() < 0.3
        steps = []
        for _ in range(gen.randint(1, 6)):
            photon = Photon.A if single else gen.choice(list(Photon))
            branch = gen.choice(list(Branch))
            if gen.random() < 0.6:
                n_beams = gen.choice([1, 7, 40, 300])
                steps.append(CascadeStep(photon, branch, gen.randint(0, n_beams), n_beams))
            else:
                steps.append(measure(photon, gen.choice(list(Axis)), branch, gen.random()))
        preparation = Preparation.single(gen.choice(list(Branch))) if single else Preparation.epr()
        yield ExperimentConfig(preparation, tuple(steps), gen.choice(list(Axis)), 10, 0)


class TestClickLabels:
    def test_trees_match_the_fstring_labels(self, monkeypatch):
        """Detector leaves read their labels from one table that grows and
        is sliced as trees ask, up to its caps; each tree equals the one
        built with a fresh f-string per leaf, by ``==``, ``repr`` and pickle
        bytes.  The caps are made small, so that random plans pass them."""
        monkeypatch.setattr(montecarlo, "_CLICK_TAILS", {})
        monkeypatch.setattr(montecarlo, "_KEPT_STEPS", 4)
        monkeypatch.setattr(montecarlo, "_KEPT_TAILS", 100)
        asked, seen = {}, Counter()
        for i, config in enumerate(label_plans(random.Random(20261021), 400)):
            if i % 50 == 0:  # start over, so that entries grow again
                montecarlo._CLICK_TAILS.clear()
                asked.clear()
            kept = {k: len(tails) for k, tails in montecarlo._CLICK_TAILS.items()}
            reached = {}
            expected = fstring_tree(config, reached)
            tree = enumerate_event_tree(config)
            assert tree == expected and repr(tree) == repr(expected)
            assert pickle.dumps(tree) == pickle.dumps(expected)
            assert pickle.loads(pickle.dumps(tree)) == expected
            for k, n in reached.items():
                asked[k] = max(asked.get(k, 0), n)
                seen["step not kept" if k >= 4 else "over the cap" if n > 100
                     else "grows" if n > kept.get(k, 0) else "slices"] += 1
            seen["zero"] += any(
                isinstance(step, CascadeStep) and not step.n_detectors for step in config.plan
            )
            seen["after an op"] += any(
                isinstance(step, CascadeStep) and step.n_detectors and k
                and isinstance(config.plan[k - 1], MeasureStep)
                for k, step in enumerate(config.plan)
            )
        assert min(seen.values()) >= 20 and len(seen) == 6, seen
        # Only the largest count asked per kept step index, up to the cap.
        assert montecarlo._CLICK_TAILS == {
            k: tuple((f"click@{k}:det{j}",) for j in range(min(count, 100)))
            for k, count in asked.items()
            if k < 4
        }

    def test_the_table_is_bounded(self, monkeypatch):
        """A 2,000-detector cascade keeps 1,024 labels, and one at step
        index 9 keeps none."""
        monkeypatch.setattr(montecarlo, "_CLICK_TAILS", {})
        plan = (CascadeStep(Photon.A, Branch.PLUS, 2000, 3000),)
        plan += (measure(Photon.A, Axis.X, Branch.MINUS, 0.5),) * 8
        plan += (CascadeStep(Photon.A, Branch.PLUS, 5, 3000),)
        config = ExperimentConfig(Preparation.single(Branch.PLUS), plan, Axis.Y, 10, 0)
        for _ in range(2):
            assert enumerate_event_tree(config) == fstring_tree(config, {})
            assert montecarlo._CLICK_TAILS == {
                0: tuple((f"click@0:det{j}",) for j in range(1024))
            }


def assert_constructed(leaf):
    """``leaf`` is the leaf the constructor makes of its fields, as large,
    frozen and picklable."""
    fields = dataclasses.fields(EventLeaf)
    built = EventLeaf(*(getattr(leaf, field.name) for field in fields))
    assert type(leaf) is EventLeaf and sys.getsizeof(leaf) == sys.getsizeof(built)
    assert leaf == built and hash(leaf) == hash(built) and repr(leaf) == repr(built)
    copy = pickle.loads(pickle.dumps(leaf))
    assert type(copy) is EventLeaf and copy == leaf and repr(copy) == repr(leaf)
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(leaf, field.name, None)


class TestOpenLeaf:
    def test_the_twin_has_the_leaf_layout(self):
        """Tree leaves are filled as ``montecarlo._OpenLeaf`` and then
        switched to ``EventLeaf``: one slot layout, and no ``__dict__`` or
        ``__weakref__`` on either class."""
        assert montecarlo._OpenLeaf.__slots__ == EventLeaf.__slots__
        for cls in (montecarlo._OpenLeaf, EventLeaf):
            assert "__dict__" not in dir(cls) and "__weakref__" not in dir(cls)

    def test_leaves_past_both_label_caps(self):
        """A 1,100-detector cascade at step index 0 reads past the kept
        labels, and a 1,500-detector one at step index 9 builds all of its
        labels in the call; every leaf is the constructor's."""
        plan = (CascadeStep(Photon.A, Branch.PLUS, 1100, 3000),)
        plan += (measure(Photon.A, Axis.X, Branch.MINUS, 0.5),) * 8
        plan += (CascadeStep(Photon.A, Branch.MINUS, 1500, 3000),)
        config = ExperimentConfig(Preparation.single(Branch.PLUS), plan, Axis.Y, 10, 0)
        tree = enumerate_event_tree(config)
        assert len(tree) == 1100 + 8 + 1500 + 2
        assert tree == fstring_tree(config, {})
        for leaf in tree:
            assert_constructed(leaf)


class TestPreparedStates:
    def test_built_once_as_the_constructors_build_them(self):
        """Every fold starts from one shared frozen state per preparation,
        the state ``make_epr`` and ``basis_state`` build, repr for repr."""
        cases = [(Preparation.epr(), make_epr())]
        cases += [(Preparation.single(b), basis_state(Axis.Y, b)) for b in Branch]
        for preparation, expected in cases:
            state, _ = montecarlo._algebra(preparation)
            assert repr(state) == repr(expected) and type(state) is type(expected)
            assert montecarlo._algebra(dataclasses.replace(preparation))[0] is state
            config = ExperimentConfig(preparation, (HALF_UP_ON_A,), Axis.Y, 10, 0)
            enumerate_event_tree(config)
            run_experiment(config)
            assert montecarlo._algebra(preparation)[0] is state
            assert repr(state) == repr(expected)


# --- a whole-plan oracle from the paper's two theorems ---------------------
#
# A measurement on one photon of the EPR pair (|uu> + |rr>)/sqrt(2) acts as
# the transposed measurement on the other: (M x 1)|Phi+> = (1 x M^T)|Phi+>.
# So an EPR plan's no-click state is (K x 1)|Phi+>: photon A's silence
# operators multiply K on the left, and the transposes of photon B's
# multiply it on the right.  A single photon's is K|prep>.  Every row
# probability follows from 2x2 matrices alone; the oracle shares no code
# with the step functions, the walk or the event tree.

_H = math.sqrt(0.5)
ORACLE_KETS = {
    (Axis.X, Branch.PLUS): (1.0, 0.0),
    (Axis.X, Branch.MINUS): (0.0, 1.0),
    (Axis.Y, Branch.PLUS): (_H, _H),
    (Axis.Y, Branch.MINUS): (-_H, _H),
    (Axis.Z, Branch.PLUS): (_H, 1j * _H),
    (Axis.Z, Branch.MINUS): (_H, -1j * _H),
}


def oracle_ket(axis, branch):
    return np.array(ORACLE_KETS[axis, branch], dtype=complex)


def oracle_rows(config):
    """Every outcome row's probability, keyed by the row as
    ``_compile_plan`` writes it, including the rows of steps after a
    certain click and of final outcomes that cannot happen."""
    single = config.preparation.kind is PrepKind.SINGLE_PHOTON
    prep = oracle_ket(Axis.Y, config.preparation.branch)

    def weight(k):
        """Probability of the unnormalized no-click branch with matrix ``k``."""
        if single:
            return np.linalg.norm(k @ prep) ** 2
        return np.linalg.norm(k) ** 2 / 2

    k, rows = np.eye(2, dtype=complex), {}
    for index, step in enumerate(config.plan):
        if isinstance(step, CascadeStep):
            n, m = step.n_beams, step.n_detectors
            axis, branch, measured, unmeasured = Axis.X, step.branch, m / n, (n - m) / n
            detectors = range(m)
        else:
            axis, branch, unmeasured = step.op.axis, step.op.branch, step.op.alpha
            measured, detectors = 1.0 - unmeasured, (None,)
        ket = oracle_ket(axis, branch)
        projector = np.outer(ket, ket.conj())
        click = math.sqrt(measured) * projector
        silence = np.eye(2) - (1.0 - math.sqrt(unmeasured)) * projector
        if step.photon is Photon.A:
            p_click, k = weight(click @ k), silence @ k
        else:
            p_click, k = weight(k @ click.T), k @ silence.T
        for detector in detectors:
            rows[index, detector, None, None, None] = p_click / len(detectors)
    finals = [oracle_ket(config.final_axis, branch) for branch in Branch]
    for a, bra_a in zip(Branch, np.conj(finals)):
        if single:
            rows[None, None, a, None, a is config.preparation.branch] = abs(bra_a @ k @ prep) ** 2
            continue
        for b, bra_b in zip(Branch, np.conj(finals)):
            rows[None, None, a, b, a is b] = abs(bra_a @ k @ bra_b) ** 2 / 2
    return rows


def assert_rows_match_oracle(config):
    """Every row of the compiled plan has the oracle's probability within
    1e-12, and the rows it leaves out, after a certain click, have none."""
    expected = oracle_rows(config)
    table, probabilities = _compile_plan(config)
    for row, p in zip(table, probabilities):
        assert abs(p - expected.pop(row)) <= 1e-12, row
    assert all(p <= 1e-12 for p in expected.values()), expected


@st.composite
def oracle_plans(draw):
    """Single-photon and pair plans of up to six abstract ops and
    cascades, with any final axis."""
    single = draw(st.booleans())
    plan = []
    for _ in range(draw(st.integers(0, 6))):
        photon = Photon.A if single else draw(st.sampled_from(list(Photon)))
        if draw(st.booleans()):
            n_beams = draw(st.integers(1, 12))
            n_detectors = draw(st.integers(0, n_beams))
            plan.append(CascadeStep(photon, draw(branches), n_detectors, n_beams))
        else:
            plan.append(measure(photon, draw(axes), draw(branches), draw(alphas)))
    preparation = Preparation.single(draw(branches)) if single else Preparation.epr()
    return ExperimentConfig(preparation, tuple(plan), draw(axes), 1, 0)


class TestWholePlanOracle:
    def test_kets_are_the_basis_vectors(self):
        for (axis, branch), ket in ORACLE_KETS.items():
            assert np.abs(np.subtract(ket, basis_vector(axis, branch))).max() <= 1e-15

    @SAMPLER_PLANS
    def test_sampler_plans(self, config):
        assert_rows_match_oracle(config)

    @settings(max_examples=200, deadline=None)
    @given(oracle_plans())
    def test_random_plans(self, config):
        assert_rows_match_oracle(config)

    def test_subnormal_pair_survival(self):
        """A silence whose pair survival is subnormal, so its square root
        is short of bits, still leaves a unit pair."""
        plan = (
            measure(Photon.A, Axis.Y, Branch.PLUS, 0.5),
            CascadeStep(Photon.B, Branch.PLUS, 1, 2),
            measure(Photon.A, Axis.X, Branch.PLUS, 2.2250738585e-313),
            CascadeStep(Photon.B, Branch.PLUS, 1, 2),
            measure(Photon.A, Axis.X, Branch.MINUS, 0.0),
        )
        assert_rows_match_oracle(ExperimentConfig(Preparation.epr(), plan, Axis.X, 1, 0))

    def test_thousand_step_measure_and_erase_chain(self):
        """500 rounds of a partial measurement on A undone on B: the
        effect that keeps travelling back and forth between the photons."""
        rounds = [
            measure(Photon.A, Axis.X, Branch.PLUS, 0.999),
            measure(Photon.B, Axis.X, Branch.MINUS, 0.999),
        ]
        assert_rows_match_oracle(epr_config(rounds * 500, trials=1))
