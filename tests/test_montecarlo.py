import math
import random
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from partial_eraser import (
    Axis,
    Branch,
    CascadeStep,
    ConfigError,
    DomainError,
    ExperimentConfig,
    InsufficientStatistics,
    IntensityQuadruple,
    MeasureStep,
    PartialMeasurementOp,
    Photon,
    Preparation,
    TrackingMode,
    TrialRecord,
    TrialStats,
    ZeroSurvival,
    analytic_agreement,
    analytic_survival,
    apply_partial_pair,
    conditional_click_stat,
    enumerate_event_tree,
    estimate_vs_analytic,
    make_epr,
    run_experiment,
    y_correlation_pair,
    y_correlation_single,
)
from partial_eraser.montecarlo import (
    _CHUNK,
    _compile_plan,
    aggregate_records,
    counter_stage_click,
    disagreed,
    iter_trials,
    survived,
    trial_log,
    trial_stream,
    trial_uniforms,
)


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

    def test_weighted_weight_equals_survival(self):
        config = epr_config([HALF_UP_ON_A, HALF_RIGHT_ON_B], trials=10)
        state = make_epr()
        for step in config.plan:
            state = apply_partial_pair(state, step.photon, step.op, TrackingMode.WEIGHTED)
        assert state.weight == pytest.approx(analytic_survival(config), abs=1e-12)

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

    def test_cascade_step_bounds(self):
        with pytest.raises(ConfigError):
            CascadeStep(Photon.A, Branch.PLUS, 5, 4)


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


# --- batch streams and the chunked sampler ----------------------------------


class TestTrialUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("start, stop", [(0, 3000), (2**32 - 5, 2**32 + 5)])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_equals_trial_stream(self, seed, start, stop, k):
        expected = np.array([trial_stream(seed, i).random(k) for i in range(start, stop)])
        got = trial_uniforms(seed, start, stop, k)
        assert got.shape == (stop - start, k)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**64 - 8),
        st.integers(min_value=1, max_value=6),
    )
    def test_random_seed_and_start(self, seed, start, k):
        expected = np.array([trial_stream(seed, i).random(k) for i in range(start, start + 8)])
        assert trial_uniforms(seed, start, start + 8, k).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed, start, stop", [(-1, 0, 5), (2**64, 0, 5), (0, 5, 4)])
    def test_out_of_range_is_domain_error(self, seed, start, stop):
        with pytest.raises(DomainError):
            trial_uniforms(seed, start, stop, 1)


def reference_trial(compiled, config, index):
    """One trial on its own Generator, the scalar form of the chunked sampler."""
    steps, buckets = compiled
    rng = trial_stream(config.master_seed, index)
    for step_idx, (p_click, n_detectors) in enumerate(steps):
        u = rng.random()
        if u < p_click:
            detector = None
            if n_detectors is not None:
                detector = min(int(u / p_click * n_detectors), n_detectors - 1)
            return TrialRecord(index, step_idx, detector, None, None, None)
    if buckets is None:
        raise ZeroSurvival("plan has no surviving path past its last step")
    u = rng.random()
    for threshold, result_a, result_b, agreement in buckets:
        if u < threshold:
            return TrialRecord(index, None, None, result_a, result_b, agreement)


def reference_records(config):
    compiled = _compile_plan(config)
    return [reference_trial(compiled, config, i) for i in range(config.trials)]


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
]


SAMPLER_PLANS = pytest.mark.parametrize(
    "config",
    RANDOM_PLANS + EDGE_PLANS,
    ids=[f"plan{i}" for i in range(len(RANDOM_PLANS))]
    + ["certain-click", "silence-impossible"],
)


class TestChunkedSampler:
    @SAMPLER_PLANS
    def test_records_match_scalar_reference(self, config):
        assert config.trials > 2 * _CHUNK and config.trials % _CHUNK
        reference = outcome(reference_records, config)
        assert outcome(lambda: list(iter_trials(config))) == reference
        if reference is not ZeroSurvival:
            assert same_stats(
                outcome(run_experiment, config),
                outcome(aggregate_records, config, reference),
            )

    @SAMPLER_PLANS
    def test_log_matches_row_formula(self, config):
        reference = outcome(reference_records, config)
        text = outcome(lambda: "".join(trial_log(config)))
        if reference is ZeroSurvival:
            assert text is ZeroSurvival
        else:
            # Compared line by line: pytest's diff of two long strings is slow.
            assert text.splitlines(keepends=True) == reference_log(reference)
