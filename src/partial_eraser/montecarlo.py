"""Trial-level experiment runner and exhaustive event-tree oracle.

An experiment preparation is either a single photon in a known diagonal
state or an entangled pair.  The measurement plan is an ordered list of
partial measurements (abstract ops, or beam cascades with detector
identities), each of which may click and end the trial.  Trials that
survive every detector get a final same-axis measurement; the reported
agreement rate is the fraction of surviving trials whose final outcome
matches the preparation (single photon) or whose two outcomes match each
other (pair).

Every trial draws from its own random stream derived from
(master_seed, trial_index), so runs are reproducible bit for bit and
trials may be evaluated in any order or in parallel.

``enumerate_event_tree`` walks every click / no-click branch of the same
plan deterministically, which serves as an independent oracle for the
sampled statistics at small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterator, Union

import numpy as np

from .epr import (
    Photon,
    apply_partial_pair,
    make_epr,
    pair_axis_amplitudes,
    pair_click_probability,
)
from .errors import ConfigError, DomainError, InsufficientStatistics, ZeroSurvival
from .measurement import (
    PartialMeasurementOp,
    TrackingMode,
    click_probability,
    no_click_map,
)
from .polarization import (
    Axis,
    Branch,
    basis_state,
    components_in,
)


class PrepKind(Enum):
    SINGLE_PHOTON = "single"
    EPR_PAIR = "epr"


@dataclass(frozen=True)
class Preparation:
    """Initial state: a diagonal-basis single photon or an EPR pair."""

    kind: PrepKind
    branch: Branch = Branch.PLUS

    @staticmethod
    def single(branch: Branch = Branch.PLUS) -> "Preparation":
        return Preparation(PrepKind.SINGLE_PHOTON, branch)

    @staticmethod
    def epr() -> "Preparation":
        return Preparation(PrepKind.EPR_PAIR)


@dataclass(frozen=True)
class MeasureStep:
    """One abstract partial measurement on one photon."""

    photon: Photon
    op: PartialMeasurementOp


@dataclass(frozen=True)
class CascadeStep:
    """A beam-cascade measurement: ``n_detectors`` detectors on one branch
    of an ``n_beams`` cascade (detectors occupy the first beams; the
    placement identity is physically irrelevant)."""

    photon: Photon
    branch: Branch
    n_detectors: int
    n_beams: int = 100

    def __post_init__(self) -> None:
        if self.n_beams < 1:
            raise ConfigError(f"n_beams must be >= 1, got {self.n_beams!r}")
        if not 0 <= self.n_detectors <= self.n_beams:
            raise ConfigError(
                f"n_detectors must lie in [0, {self.n_beams}], got {self.n_detectors!r}"
            )

    @property
    def alpha(self) -> float:
        return (self.n_beams - self.n_detectors) / self.n_beams

    @property
    def op(self) -> PartialMeasurementOp:
        return PartialMeasurementOp(Axis.X, self.branch, self.alpha)


PlanStep = Union[MeasureStep, CascadeStep]


def check_trials_and_seed(trials: int, master_seed: int) -> None:
    """ConfigError unless there is at least one trial and the seed is a
    64-bit unsigned integer."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= master_seed < 2**64:
        raise ConfigError("master_seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description (fully determines a run)."""

    preparation: Preparation
    plan: tuple[PlanStep, ...]
    final_axis: Axis
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", tuple(self.plan))
        check_trials_and_seed(self.trials, self.master_seed)
        if self.preparation.kind is PrepKind.SINGLE_PHOTON:
            for step in self.plan:
                if step.photon is not Photon.A:
                    raise ConfigError(
                        "single-photon experiments cannot measure photon B"
                    )


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: where it clicked, or what the finals showed."""

    index: int
    click_step: int | None
    detector: int | None
    result_a: Branch | None
    result_b: Branch | None
    agreement: bool | None

    @property
    def survived(self) -> bool:
        return self.click_step is None


@dataclass(frozen=True)
class TrialStats:
    """Aggregated counts with the matching analytic prediction.

    ``agreement_rate`` is conditional on survival (no click anywhere);
    ``analytic_prediction`` is the Born agreement probability of the
    deterministically folded no-click state, and ``std_error`` the
    binomial standard error of the empirical rate.
    """

    total: int
    clicked: int
    surviving: int
    agreement_count: int
    agreement_rate: float
    std_error: float
    analytic_prediction: float


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent random stream for one trial (splittable by index)."""
    return np.random.default_rng([master_seed, trial_index])


def _algebra(preparation: Preparation):
    """The prepared state with its click-probability and no-click functions.

    Both functions take ``(state, photon, op)``; the single photon ignores
    ``photon``.  This and ``_final_outcomes`` are the only places where the
    sampler and the oracles tell a single photon from a pair.
    """
    if preparation.kind is PrepKind.SINGLE_PHOTON:
        return (
            basis_state(Axis.Y, preparation.branch),
            lambda state, photon, op: click_probability(op, state),
            lambda state, photon, op: no_click_map(op, state, TrackingMode.NORMALIZED),
        )
    return (
        make_epr(),
        pair_click_probability,
        lambda state, photon, op: apply_partial_pair(
            state, photon, op, TrackingMode.NORMALIZED
        ),
    )


def _final_outcomes(preparation: Preparation, state, axis: Axis) -> tuple:
    """Born outcomes of the final same-axis measurement of ``state``, as
    ``(probability, result_a, result_b, agreement)`` tuples.

    A single photon agrees when it shows its prepared branch, a pair when
    both photons show the same branch.
    """
    plus, minus = Branch.PLUS, Branch.MINUS
    if preparation.kind is PrepKind.SINGLE_PHOTON:
        c_plus, c_minus = components_in(state, axis)
        return (
            (abs(c_plus) ** 2, plus, None, preparation.branch is plus),
            (abs(c_minus) ** 2, minus, None, preparation.branch is minus),
        )
    n = pair_axis_amplitudes(state, axis)
    return (
        (abs(n[0][0]) ** 2, plus, plus, True),
        (abs(n[0][1]) ** 2, plus, minus, False),
        (abs(n[1][0]) ** 2, minus, plus, False),
        (abs(n[1][1]) ** 2, minus, minus, True),
    )


def _walk(config: ExperimentConfig) -> tuple[list[float], object]:
    """Follow the plan along its no-click path.

    Returns the click probability of every step reached and the state that
    survives the whole plan, or None for the state when no trial survives
    (a step clicks with certainty, or its silence is impossible).
    """
    state, click, silent = _algebra(config.preparation)
    p_clicks: list[float] = []
    for step in config.plan:
        op = step.op
        p_click = click(state, step.photon, op)
        p_clicks.append(p_click)
        if p_click >= 1.0:
            return p_clicks, None
        try:
            state = silent(state, step.photon, op)
        except ZeroSurvival:
            return p_clicks, None
    return p_clicks, state


def _compile_plan(config: ExperimentConfig) -> tuple[tuple, tuple | None]:
    """Per-step click thresholds and the final-measurement buckets.

    The surviving-state trajectory is the same in every trial, so all the
    state algebra happens once here; a trial is then one uniform draw per
    step plus one for the final measurement.  Steps are ``(p_click,
    n_detectors)`` pairs, with ``n_detectors`` None for abstract ops.
    Buckets are ``(cumulative probability, result_a, result_b, agreement)``
    tuples, or None when no trial survives the plan.
    """
    p_clicks, state = _walk(config)
    steps = tuple(
        (p_click, step.n_detectors if isinstance(step, CascadeStep) else None)
        for p_click, step in zip(p_clicks, config.plan)
    )
    if state is None:  # later steps and the final stage are unreachable
        return steps, None
    outcomes = _final_outcomes(config.preparation, state, config.final_axis)
    thresholds = list(accumulate(p for p, *_ in outcomes))
    thresholds[-1] = math.inf  # the last bucket catches the rest
    return steps, tuple(
        (threshold, *results) for threshold, (_, *results) in zip(thresholds, outcomes)
    )


def _run_compiled_trial(compiled, config: ExperimentConfig, index: int) -> TrialRecord:
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


def iter_trials(config: ExperimentConfig) -> Iterator[TrialRecord]:
    compiled = _compile_plan(config)
    for index in range(config.trials):
        yield _run_compiled_trial(compiled, config, index)


def analytic_agreement(config: ExperimentConfig) -> float:
    """Born agreement probability of the folded no-click state.

    Raises ZeroSurvival when the no-click path is impossible.  Clipped into
    [0, 1]: summed squared magnitudes can overshoot by a few ulp, and the
    estimator divides by a possibly zero standard error.
    """
    state, _, silent = _algebra(config.preparation)
    for step in config.plan:
        state = silent(state, step.photon, step.op)
    outcomes = _final_outcomes(config.preparation, state, config.final_axis)
    p = sum(p for p, _, _, agrees in outcomes if agrees)
    return min(1.0, max(0.0, p))


def analytic_survival(config: ExperimentConfig) -> float:
    """Probability that a trial survives the whole plan without a click."""
    p_clicks, state = _walk(config)
    if state is None:
        return 0.0
    prob = 1.0
    for p_click in p_clicks:
        prob *= 1.0 - p_click
    return prob


def aggregate_records(config: ExperimentConfig, records) -> TrialStats:
    """Reduce trial records to TrialStats with exact integer counting."""
    clicked = 0
    surviving = 0
    agreement_count = 0
    for record in records:
        if record.survived:
            surviving += 1
            if record.agreement:
                agreement_count += 1
        else:
            clicked += 1
    if surviving > 0:
        rate = agreement_count / surviving
        std_error = math.sqrt(rate * (1.0 - rate) / surviving)
    else:
        rate = math.nan
        std_error = math.nan
    return TrialStats(
        total=config.trials,
        clicked=clicked,
        surviving=surviving,
        agreement_count=agreement_count,
        agreement_rate=rate,
        std_error=std_error,
        analytic_prediction=analytic_agreement(config),
    )


def run_experiment(config: ExperimentConfig) -> TrialStats:
    """Run every trial on its own stream and aggregate the counts."""
    return aggregate_records(config, iter_trials(config))


def estimate_vs_analytic(stats: TrialStats) -> float:
    """z score of the empirical agreement rate against the prediction."""
    if stats.surviving <= 0:
        raise DomainError("z score undefined with no surviving trials")
    diff = stats.agreement_rate - stats.analytic_prediction
    if stats.std_error == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / stats.std_error


def survived(record: TrialRecord) -> bool:
    return record.survived


def disagreed(record: TrialRecord) -> bool:
    return record.agreement is False


def counter_stage_click(start: int) -> Callable[[TrialRecord], bool]:
    """Predicate: the trial clicked at plan step ``start`` or later."""

    def _event(record: TrialRecord) -> bool:
        return record.click_step is not None and record.click_step >= start

    return _event


def conditional_click_stat(
    config: ExperimentConfig,
    condition: Callable[[TrialRecord], bool],
    event: Callable[[TrialRecord], bool],
) -> float:
    """Empirical probability of ``event`` among trials satisfying
    ``condition``.

    For the click rate of a counter-measurement stage, pass
    ``counter_stage_click(start)`` with the plan index where that stage
    begins.  Raises InsufficientStatistics when fewer than 100 trials
    satisfy the condition.
    """
    selected_total = 0
    event_count = 0
    for record in iter_trials(config):
        if condition(record):
            selected_total += 1
            if event(record):
                event_count += 1
    if selected_total < 100:
        raise InsufficientStatistics(
            f"only {selected_total} trials satisfy the condition (need >= 100)"
        )
    return event_count / selected_total


@dataclass(frozen=True)
class EventLeaf:
    """One terminal branch of the experiment's event tree."""

    path: tuple[str, ...]
    probability: float
    clicked: bool
    agreement: bool | None


def enumerate_event_tree(config: ExperimentConfig) -> tuple[EventLeaf, ...]:
    """Exhaustively walk every click / no-click branch of the plan.

    Click leaves from cascades are split per detector.  Surviving paths
    terminate in the final-measurement outcomes with their Born
    probabilities.  Leaf probabilities sum to 1.  This enumerator is an
    oracle for the sampler and never feeds the sampling path.
    """
    prepared, click, silent = _algebra(config.preparation)
    leaves: list[EventLeaf] = []

    def recurse(state, step_idx: int, prob: float, path: tuple[str, ...]) -> None:
        if step_idx == len(config.plan):
            for p, result_a, result_b, agreement in _final_outcomes(
                config.preparation, state, config.final_axis
            ):
                label = result_a.value if result_b is None else (
                    f"{result_a.value},{result_b.value}"
                )
                leaves.append(
                    EventLeaf(path + (f"final:{label}",), prob * p, False, agreement)
                )
            return
        step = config.plan[step_idx]
        op = step.op
        p_click = click(state, step.photon, op)
        if isinstance(step, CascadeStep):
            p_per = p_click / step.n_detectors if step.n_detectors else 0.0
            for det in range(step.n_detectors):
                leaves.append(
                    EventLeaf(
                        path + (f"click@{step_idx}:det{det}",), prob * p_per, True, None
                    )
                )
        elif p_click > 0.0:
            leaves.append(
                EventLeaf(path + (f"click@{step_idx}",), prob * p_click, True, None)
            )
        p_pass = 1.0 - p_click
        if p_pass > 0.0:
            next_state = silent(state, step.photon, op)
            recurse(next_state, step_idx + 1, prob * p_pass, path + (f"pass@{step_idx}",))

    recurse(prepared, 0, 1.0, ())
    return tuple(leaves)
