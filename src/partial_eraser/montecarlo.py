"""Trial-level experiment runner and exhaustive event-tree oracle.

An experiment preparation is either a single photon in a known diagonal
state or an entangled pair.  The measurement plan is an ordered list of
partial measurements (abstract ops, or beam cascades with detector
identities), each of which may click and end the trial.  Trials that
survive every detector get a final same-axis measurement; the reported
agreement rate is the fraction of surviving trials whose final outcome
matches the preparation (single photon) or whose two outcomes match each
other (pair).

Silence reshapes the state the same way in every trial, so a plan has
one fixed distribution over its outcomes, the rows of one table.  Trial
``i`` takes draw ``i`` of the one stream ``default_rng(master_seed)`` and
lands on the row that this draw selects.  So runs are reproducible bit
for bit.  A run seeds that stream once and draws its chunks of trials one
after another, keying each through a guide table; ``trial_uniforms``
draws any range of trials on its own, in any order or in parallel, and
is the reference for the layout.  ``count_trials`` and
``conditional_click_stat`` count rows, ``count_trials`` can render the
``run --log-trials`` CSV from the same keys in the same pass, and only
``iter_trials`` builds per-trial records.

``enumerate_event_tree`` walks every click / no-click branch of the same
plan deterministically, which serves as an independent oracle for the
sampled statistics at small scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Union

import numpy as np

from .epr import _PHOTONS, Photon, _pair_step, make_epr, pair_axis_amplitudes
from .errors import ConfigError, DomainError, InsufficientStatistics
from .measurement import PartialMeasurementOp, _impossible, _step
from .polarization import (
    _AXES,
    _BRANCHES,
    _MINUS,
    _PLUS,
    _X,
    _Y,
    Axis,
    Branch,
    _check_integer,
    _check_member,
    basis_state,
    components_in,
)


class PrepKind(Enum):
    SINGLE_PHOTON = "single"
    EPR_PAIR = "epr"


_SINGLE = PrepKind.SINGLE_PHOTON  # for the oracle kernels, as ``polarization._PLUS``
_PREP_KINDS = tuple(PrepKind)


@dataclass(frozen=True)
class Preparation:
    """Initial state: a diagonal-basis single photon or an EPR pair."""

    kind: PrepKind
    branch: Branch = Branch.PLUS

    def __post_init__(self) -> None:
        _check_member("preparation kind", self.kind, _PREP_KINDS, ConfigError)
        branches = _BRANCHES if self.kind is _SINGLE else (_PLUS,)  # a pair has no branch
        _check_member("preparation branch", self.branch, branches, ConfigError)

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

    def __post_init__(self) -> None:
        _check_member("photon", self.photon, _PHOTONS, ConfigError)
        if not isinstance(self.op, PartialMeasurementOp):
            raise ConfigError(f"op must be a PartialMeasurementOp, got {self.op!r}")


@dataclass(frozen=True)
class CascadeStep:
    """A beam-cascade measurement: ``n_detectors`` detectors on one branch
    of an ``n_beams`` cascade (detectors occupy the first beams; the
    placement identity is physically irrelevant).  ``op``, the equivalent
    partial measurement, is built once here and takes no part in ``==``,
    ``hash`` or ``repr``."""

    photon: Photon
    branch: Branch
    n_detectors: int
    n_beams: int = 100
    op: PartialMeasurementOp = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_member("photon", self.photon, _PHOTONS, ConfigError)
        _check_member("branch", self.branch, _BRANCHES, ConfigError)
        n_beams = _check_integer("n_beams", self.n_beams, ConfigError, low=1)
        n_detectors = _check_integer("n_detectors", self.n_detectors, ConfigError, 0, n_beams)
        object.__setattr__(self, "n_beams", n_beams)
        object.__setattr__(self, "n_detectors", n_detectors)
        alpha = (n_beams - n_detectors) / n_beams
        object.__setattr__(self, "op", PartialMeasurementOp(_X, self.branch, alpha))


PlanStep = Union[MeasureStep, CascadeStep]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description (fully determines a run)."""

    preparation: Preparation
    plan: tuple[PlanStep, ...]
    final_axis: Axis
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.preparation, Preparation):
            raise ConfigError(f"preparation must be a Preparation, got {self.preparation!r}")
        try:
            object.__setattr__(self, "plan", tuple(self.plan))
        except TypeError:
            raise ConfigError(f"plan must be an iterable of steps, got {self.plan!r}") from None
        for step in self.plan:
            if not isinstance(step, (MeasureStep, CascadeStep)):
                raise ConfigError(f"plan steps must be MeasureStep or CascadeStep, got {step!r}")
            if step.photon is Photon.B and self.preparation.kind is _SINGLE:
                raise ConfigError("single-photon experiments cannot measure photon B")
        trials = _check_integer("trials", self.trials, ConfigError, 1, 2**64)
        master_seed = _check_integer("master_seed", self.master_seed, ConfigError, 0, 2**64 - 1)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "master_seed", master_seed)
        _check_member("final_axis", self.final_axis, _AXES, ConfigError)

    @functools.cached_property
    def _walk(self) -> tuple[list[float], object]:
        """The plan's no-click path, folded once, on first use: the click
        probability of every step reached, and the state that survives the
        whole plan, or None when a step clicks with certainty.  The sampler
        and the analytic predictions share this one fold.  It takes no part
        in ``==``, ``hash`` or ``repr``, and cannot go stale on a frozen config."""
        state, step_fn = _algebra(self.preparation)
        p_clicks: list[float] = []
        for step in self.plan:
            p_click, state = step_fn(state, step.photon, step.op)
            p_clicks.append(p_click)
            if state is None:
                break
        return p_clicks, state


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
    binomial standard error of the empirical rate.  The field order is the
    column order of the ``run`` summary CSV.
    """

    total: int
    clicked: int
    surviving: int
    agreement_count: int
    agreement_rate: float
    std_error: float
    analytic_prediction: float


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """A random stream of its own for each ``(master_seed, trial_index)``,
    for scalar samplers that draw an open-ended number of uniforms per
    trial.  The runner does not use it: see ``trial_uniforms``."""
    return np.random.default_rng([master_seed, trial_index])


def trial_uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The uniforms of trials ``start .. stop-1``, one per trial.

    Trial ``i`` takes draw ``i`` of the one stream
    ``default_rng(master_seed)``, so entry ``i`` is a function of ``(seed,
    start + i)`` alone: ranges may be drawn in any order, and a run's
    output does not depend on how it is split into ranges.  This is the
    reference for the layout; the runner reads the same doubles from one
    generator per run (``_uniform_chunks``).
    """
    master_seed = _check_integer("master_seed", master_seed, low=0, high=2**64 - 1)
    start = _check_integer("start", start, low=0)
    stop = _check_integer("stop", stop, low=start, high=2**64)
    bit_generator = np.random.PCG64(master_seed)
    bit_generator.advance(start)
    return np.random.Generator(bit_generator).random(stop - start)


def _uniform_chunks(master_seed: int, trials: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, trial_uniforms(master_seed, start, stop))`` per chunk of
    ``_CHUNK`` trials, drawn one after another from one generator seeded
    once per run."""
    draw = np.random.Generator(np.random.PCG64(master_seed)).random
    for start in range(0, trials, _CHUNK):
        yield start, draw(min(_CHUNK, trials - start))


# The prepared states, built once: states are frozen, so every fold shares
# them.  The single photon's is keyed by its diagonal branch.
_EPR = make_epr()
_DIAGONAL = {branch: basis_state(_Y, branch) for branch in Branch}


def _algebra(preparation: Preparation):
    """The prepared state and its step function.

    The step function takes ``(state, photon, op)``; the single photon
    ignores ``photon``.  It returns the click probability and the no-click
    state, or None for the state where the click is certain (``p_click >=
    1``).  This and ``_final_outcomes`` are the only places where the
    sampler and the oracles tell a single photon from a pair.
    """
    if preparation.kind is _SINGLE:
        return _DIAGONAL[preparation.branch], _step
    return _EPR, _pair_step


def _final_outcomes(preparation: Preparation, state, axis: Axis) -> tuple:
    """Born outcomes of the final same-axis measurement of ``state``, as
    ``(probability, result_a, result_b, agreement)`` tuples.

    A single photon agrees when it shows its prepared branch, a pair when
    both photons show the same branch.
    """
    plus, minus = _PLUS, _MINUS
    if preparation.kind is _SINGLE:
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


def _compile_plan(config: ExperimentConfig) -> tuple[list[tuple], list[float]]:
    """The plan's outcome table and the probability of each row, from the
    config's fold of its plan, ``config._walk``.

    Rows are ``(click_step, detector, result_a, result_b, agreement)``:
    per step reached, one per cascade detector or one for an abstract op,
    with the probability of reaching the step times its click probability
    (split evenly over the detectors); then one per final outcome, with
    the survival times its Born probability.  All the sampler's state
    algebra is in that fold, once per config.
    """
    p_clicks, state = config._walk
    table, probabilities, reach = [], [], 1.0
    for step_idx, (p_click, step) in enumerate(zip(p_clicks, config.plan)):
        detectors = range(step.n_detectors) if isinstance(step, CascadeStep) else (None,)
        for detector in detectors:
            table.append((step_idx, detector, None, None, None))
            probabilities.append(reach * (p_click / len(detectors)))
        reach *= 1.0 - p_click
    if state is not None:  # else the last step reached clicks with certainty
        for p, *results in _final_outcomes(config.preparation, state, config.final_axis):
            table.append((None, None, *results))
            probabilities.append(reach * p)
    return table, probabilities


# Trials drawn and keyed per array batch: large enough to amortize numpy's
# per-call cost, small enough that a lazy consumer of ``iter_trials`` gets
# its first record fast.  A batch holds one uniform and one key per trial,
# whatever the plan's length.  A run draws its batches one after another
# from one stream, so each trial's draw is fixed by its index and no output
# depends on the batch size.
_CHUNK = 4096

# Cells of the guide table that keys a chunk: a power of two, so that
# ``u * _GUIDE_CELLS`` and the cell edges are exact.
_GUIDE_CELLS = 1024


def _row_keys(probabilities: list[float]) -> Callable[[np.ndarray], np.ndarray]:
    """``key(u)``: each uniform's table row, bit for bit the binary search
    over the rows' running sums, the last positive one and all after it
    ``inf``, so no uniform lands on a row that cannot happen.  A guide
    table (Chen and Asau's cutpoint method) holds the row of each cell's
    left edge, the key of every uniform in the cell below that row's
    threshold; the few others are searched."""
    thresholds = np.cumsum(probabilities)
    thresholds[np.flatnonzero(probabilities)[-1]:] = np.inf
    guide = np.searchsorted(thresholds, np.arange(_GUIDE_CELLS) / _GUIDE_CELLS, side="right")

    def key(u: np.ndarray) -> np.ndarray:
        keys = guide.take((u * _GUIDE_CELLS).astype(np.intp))
        late = np.flatnonzero(thresholds.take(keys) <= u)
        keys[late] = np.searchsorted(thresholds, u.take(late), side="right")
        return keys

    return key


def _outcomes(config: ExperimentConfig):
    """The plan's outcome table, and ``(start, keys)`` per chunk of trials,
    drawn from one stream per run and keyed lazily: a trial's key is the
    table row that its uniform selects."""
    table, probabilities = _compile_plan(config)
    key = _row_keys(probabilities)
    chunks = _uniform_chunks(config.master_seed, config.trials)
    return table, ((start, key(u)) for start, u in chunks)


def iter_trials(config: ExperimentConfig) -> Iterator[TrialRecord]:
    """Every trial's record, in index order, sampled a chunk at a time.
    Per-trial records are built here only; the counts and the log decode
    the keys."""
    table, chunks = _outcomes(config)
    for start, keys in chunks:
        for index, key in enumerate(keys.tolist(), start):
            yield TrialRecord(index, *table[key])


def _log_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Branch):
        return value.value
    return str(int(value))  # agreement is written as 0 or 1


@functools.cache
def _digit_groups() -> np.ndarray:
    """``0`` .. ``9999`` in ASCII, each number's four bytes read as one
    ``uint32``: row 0 with leading zeros (``0042``), row 1 with NULs for them."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    full = np.stack(np.meshgrid(digits, digits, digits, digits, indexing="ij"), -1).reshape(-1, 4)
    short = full.copy()
    short[:1000, 0] = short[:100, 1] = short[:10, 2] = 0
    return np.stack([full, short]).view(np.uint32).reshape(2, -1)


def _log_renderer(table: list) -> Callable[[int, np.ndarray], bytes]:
    """``render(start, keys)``: the log rows of trials ``start, start + 1,
    ...``, which landed on the table rows ``keys``, as ASCII bytes: each
    trial's index, then its table row's CSV tail.

    Each table row has one byte template: room for a 20-digit index, the
    widest (``2^64 - 1``), then the tail, padded with NUL bytes.  A chunk
    is split only at multiples of 10^4, so a part's indices share all but
    their last four digits.  Each part gathers its keys' templates, cut to
    the 4-byte words its indices need, writes the shared digits once,
    NUL-padded on the left, and the last four as one slice of
    ``_digit_groups``, from its row without leading zeros when there are
    no shared digits.  Every NUL byte is then dropped.  Each cut is made
    contiguous on first use: ``take`` on a strided view copies all of it.
    """
    tails = ["".join("," + _log_cell(value) for value in row) + "\n" for row in table]
    size = -(-max(map(len, tails)) // 4) * 4
    template = np.zeros((len(tails), 20 + size), np.uint8)
    template[:, 20:] = np.array(tails, dtype=f"S{size}").view(np.uint8).reshape(len(tails), size)
    cut = functools.cache(lambda words: np.ascontiguousarray(template[:, 16 - 4 * words :]))

    def render(start: int, keys: np.ndarray) -> bytes:
        parts, first, stop = [], start, start + len(keys)
        while start < stop:
            head, low = str(start)[:-4], start % 10_000
            words = -(-len(head) // 4)
            end = min(stop, start - low + 10_000)
            rows = cut(words).take(keys[start - first : end - first], axis=0)
            columns = rows.view(np.uint32)
            columns[:, :words] = np.frombuffer(head.rjust(4 * words, "\0").encode(), np.uint32)
            columns[:, words] = _digit_groups()[0 if head else 1, low : low + end - start]
            parts.append(rows.tobytes().translate(None, b"\0"))
            start = end
        return b"".join(parts)

    return render


def _row_counts(
    config: ExperimentConfig, write: Callable[[bytes], object] | None = None
) -> tuple[list, list[int]]:
    """The plan's outcome table and how many trials landed on each row.

    With ``write``, the same pass hands it the ``run --log-trials`` CSV
    as ASCII bytes: the header, then the bytes of one chunk at a time
    (see ``_log_renderer``).  A row is the trial index, click step,
    detector, final results and agreement (0 or 1), each empty where it
    does not apply.
    """
    table, chunks = _outcomes(config)
    if write is not None:
        render = _log_renderer(table)
        write(b"trial,click_step,detector,result_a,result_b,agreement\n")
    counts = 0
    for start, keys in chunks:
        counts += np.bincount(keys, minlength=len(table))
        if write is not None:
            write(render(start, keys))
    return table, counts.tolist()


def count_trials(
    config: ExperimentConfig, write: Callable[[bytes], object] | None = None
) -> tuple[int, int, int]:
    """Clicked, surviving and agreeing trial counts, without records;
    ``write`` gets the trial log as bytes, as in ``_row_counts``."""
    table, counts = _row_counts(config, write)
    clicked = sum(n for n, (step, *_) in zip(counts, table) if step is not None)
    agreeing = sum(n for n, (*_, agreement) in zip(counts, table) if agreement)
    return clicked, config.trials - clicked, agreeing


def analytic_agreement(config: ExperimentConfig) -> float:
    """Born agreement probability of the state that ``config._walk`` leaves.

    Raises ZeroSurvival where the fold ends on a certain click, which is
    exactly where ``analytic_survival`` is 0.0.  Clipped into [0, 1]:
    summed squared magnitudes can overshoot by a few ulp, and the
    estimator divides by a possibly zero standard error.
    """
    p_clicks, state = config._walk
    if state is None:
        raise _impossible(config.plan[len(p_clicks) - 1].op.alpha)
    outcomes = _final_outcomes(config.preparation, state, config.final_axis)
    p = sum(p for p, _, _, agrees in outcomes if agrees)
    return min(1.0, max(0.0, p))


def analytic_survival(config: ExperimentConfig) -> float:
    """Probability that a trial survives the whole plan without a click."""
    p_clicks, state = config._walk
    return 0.0 if state is None else math.prod((1.0 - p for p in p_clicks), start=1.0)


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
    return _stats(config, clicked, surviving, agreement_count, analytic_agreement(config))


def _stats(
    config: ExperimentConfig, clicked: int, surviving: int, agreeing: int, prediction: float
) -> TrialStats:
    if surviving > 0:
        rate = agreeing / surviving
        std_error = math.sqrt(rate * (1.0 - rate) / surviving)
    else:
        rate = math.nan
        std_error = math.nan
    return TrialStats(
        total=config.trials,
        clicked=clicked,
        surviving=surviving,
        agreement_count=agreeing,
        agreement_rate=rate,
        std_error=std_error,
        analytic_prediction=prediction,
    )


def run_experiment(config: ExperimentConfig, log_path: str | None = None) -> TrialStats:
    """Run every trial and aggregate the counts.

    With ``log_path``, the same pass writes the ``run --log-trials`` CSV
    there as bytes, to a file opened in binary mode (see ``_row_counts``).
    The config folds its plan once, for both the prediction and the
    outcome table.  The prediction comes first, so a plan whose silence is
    impossible raises ZeroSurvival before any draw and creates no file.
    """
    prediction = analytic_agreement(config)
    if log_path is None:
        return _stats(config, *count_trials(config), prediction)
    with open(log_path, "wb") as handle:
        return _stats(config, *count_trials(config, handle.write), prediction)


def estimate_vs_analytic(stats: TrialStats) -> float:
    """z score of the empirical agreement rate against the prediction.

    With no spread, a rate within 1e-12 of the prediction scores 0.0 (a
    summed Born probability can miss an exact 0 or 1 by a few ulp), and
    any other rate an infinite score.
    """
    if stats.surviving <= 0:
        raise DomainError("z score undefined with no surviving trials")
    diff = stats.agreement_rate - stats.analytic_prediction
    if stats.std_error == 0.0:
        return 0.0 if abs(diff) <= 1e-12 else math.copysign(math.inf, diff)
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

    The predicates are called once per outcome-table row, on a record with
    ``index`` None that counts for every trial on that row, so they must
    not read ``index``.  For the click rate of a counter-measurement
    stage, pass ``counter_stage_click(start)`` with the plan index where
    that stage begins.  Raises InsufficientStatistics when fewer than 100
    trials satisfy the condition.
    """
    selected_total = 0
    event_count = 0
    for row, count in zip(*_row_counts(config)):
        record = TrialRecord(None, *row)
        if condition(record):
            selected_total += count
            if event(record):
                event_count += count
    if selected_total < 100:
        raise InsufficientStatistics(
            f"only {selected_total} trials satisfy the condition (need >= 100)"
        )
    return event_count / selected_total


@dataclass(frozen=True, slots=True)
class EventLeaf:
    """One terminal branch of the experiment's event tree."""

    path: tuple[str, ...]
    probability: float
    clicked: bool
    agreement: bool | None


class _OpenLeaf:
    """``EventLeaf``'s slots with no frozen ``__setattr__``: a leaf is
    filled by plain slot stores here, then its class becomes ``EventLeaf``."""

    __slots__ = EventLeaf.__slots__


def _leaf(path: tuple, probability: float, clicked: bool, agreement) -> EventLeaf:
    """``EventLeaf(path, probability, clicked, agreement)``, built in place."""
    leaf = _OpenLeaf()
    leaf.path = path
    leaf.probability = probability
    leaf.clicked = clicked
    leaf.agreement = agreement
    leaf.__class__ = EventLeaf
    return leaf


# The click leaves' last path entries by step index ``k``, ``("click@k:detj",)``
# for ``j`` from 0, shared by every tree.  An entry grows to the largest count
# asked, kept for the first 8 step indices and 1,024 labels (about 1 MB in all).
_CLICK_TAILS: dict[int, tuple[tuple[str], ...]] = {}
_KEPT_STEPS, _KEPT_TAILS = 8, 1024


def _click_tails(step_idx: int, count: int) -> tuple[tuple[str], ...]:
    """The first ``count`` click tails of step ``step_idx``."""
    tails = _CLICK_TAILS.get(step_idx, ())
    if len(tails) < count:  # stored whole: a racing thread still reads right labels
        prefix = f"click@{step_idx}:det"
        tails += tuple((f"{prefix}{det}",) for det in range(len(tails), count))
        if step_idx < _KEPT_STEPS:
            _CLICK_TAILS[step_idx] = tails[:_KEPT_TAILS]
    return tails[:count]


def _click_leaves(leaves: list, path: tuple, step_idx: int, count: int, p: float) -> None:
    """Append step ``step_idx``'s ``count`` click leaves, as ``_leaf`` builds them."""
    append = leaves.append
    for tail in _click_tails(step_idx, count):
        leaf = _OpenLeaf()
        leaf.path = path + tail
        leaf.probability = p
        leaf.clicked = True
        leaf.agreement = None
        leaf.__class__ = EventLeaf
        append(leaf)


# The final leaves' last path entry by ``(result_a, result_b)``, as
# ``_final_outcomes`` yields them; ``Enum.value`` is a Python-level property
# on 3.11, so the oracle reads the labels from here.
_FINAL_LABELS = {
    (a, b): f"final:{a.value}" if b is None else f"final:{a.value},{b.value}"
    for a in Branch
    for b in (None, *Branch)
}


def enumerate_event_tree(config: ExperimentConfig) -> tuple[EventLeaf, ...]:
    """Exhaustively walk every click / no-click branch of the plan.

    One pass over the plan: each step adds its click leaves, split per
    detector for cascades, and the no-click branch goes on to the next
    step until a click is certain.  A path that survives every step ends
    in the final-measurement outcomes with their Born probabilities.  Leaf
    probabilities sum to 1.  This enumerator is an oracle for the sampler:
    it calls the step function itself, never reads ``config._walk``, and
    never feeds the sampling path.
    """
    state, step_fn = _algebra(config.preparation)
    leaves: list[EventLeaf] = []
    prob, path = 1.0, ()
    for step_idx, step in enumerate(config.plan):
        p_click, state = step_fn(state, step.photon, step.op)
        if isinstance(step, CascadeStep):
            if count := step.n_detectors:
                _click_leaves(leaves, path, step_idx, count, prob * (p_click / count))
        elif p_click > 0.0:
            leaves.append(_leaf(path + (f"click@{step_idx}",), prob * p_click, True, None))
        if state is None:  # p_click >= 1: no path survives
            return tuple(leaves)
        prob *= 1.0 - p_click
        path += (f"pass@{step_idx}",)
    for p, result_a, result_b, agreement in _final_outcomes(
        config.preparation, state, config.final_axis
    ):
        label = _FINAL_LABELS[result_a, result_b]
        leaves.append(_leaf(path + (label,), prob * p, False, agreement))
    return tuple(leaves)
