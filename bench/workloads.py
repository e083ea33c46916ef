"""The benchmark's four workloads, the checks on their outputs, and the
layer probe of a traced run.

A workload is a sequence of jobs of fixed size.  Job ``k`` of a run with
seed ``s`` draws all of its inputs from ``job_seed(s, k)``, so a run's
inputs depend only on its seed.  Each job times two things: sampled
trials (Monte-Carlo trials or cascade passes) and oracle or analytic
evaluations, each from a full garbage collection so that garbage left by
the previous window is not charged to the next.  It then checks what the
program produced; every problem it finds fails the job.

Why these four (see also ``BENCHMARK.json``):

* ``mc_pair`` runs ``partial-eraser run`` through ``cli.main`` on the
  shipped pair configs.  Most of a trial is building its random stream
  (``trial_stream``), so a faster runner (ROADMAP 4) shows here, while the
  algebra fast path (ROADMAP 2) only touches set-up.
* ``mc_logged`` runs ``run --log-trials`` on the single-photon cascade
  config: the same sampler, but every ``TrialRecord`` is materialized and
  written, so a counting path that slows records or grows memory shows.
* ``cascade_loop`` is the criterion-6 loop through the public
  ``cascade_measure`` on one shared stream: all algebra, no per-trial
  streams, so ROADMAP 2 shows here and ROADMAP 4 predicts no change.
* ``oracle_sweep`` sends fresh random inputs through the pair algebra and
  the oracles (``apply_quadruple``, ``enumerate_event_tree``,
  ``chart_table``, ``violation_region``).  No input repeats, so a
  speed-up that memoizes repeated states cannot help here.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import program
from spans import NullTracer

from partial_eraser import cli
from partial_eraser.cascade import DetectorPlacement, build_cascade, cascade_measure
from partial_eraser.config import parse_experiment_file, resolve_config
from partial_eraser.epr import (
    PairState,
    Photon,
    apply_partial_pair,
    apply_quadruple,
    IntensityQuadruple,
    make_epr,
    pair_axis_amplitudes,
    pair_click_probability,
    pair_distance,
    sample_partial_pair,
    y_correlation_pair,
)
from partial_eraser.inequality import inequality_margin, violation_region
from partial_eraser.measurement import (
    PartialMeasurementOp,
    TrackingMode,
    click_probability,
    no_click_map,
)
from partial_eraser.montecarlo import (
    CascadeStep,
    ExperimentConfig,
    MeasureStep,
    Preparation,
    aggregate_records,
    analytic_agreement,
    analytic_survival,
    enumerate_event_tree,
    iter_trials,
    trial_stream,
)
from partial_eraser.polarization import (
    Axis,
    Branch,
    PolarizationState,
    basis_state,
    components_in,
)

# Statistical gate for sampled counts.  Each run makes tens of such
# checks and the driver of a comparison hundreds of runs, so the gate is
# wide enough that a correct program fails one about once in 10^4 runs.
Z_GATE = 5.0
# Closed forms and oracles must agree to rounding.
EXACT_TOL = 1e-12
# Upper boundary of the inequality's violation region, as pinned by the
# acceptance tests (``EXACT_BOUNDARY``).
VIOLATION_BOUNDARY = 8.352410032042774
BOUNDARY_TOL = 1e-7
# Criterion 6: one detector on 100 beams clicks with probability 1/200 on
# the diagonal state; 50 measuring then 50 erasing detectors pass half.
CASCADE_CLICK_RATE = 0.005
CASCADE_SURVIVAL = 0.5

AXES = (Axis.X, Axis.Y, Axis.Z)
BRANCHES = (Branch.PLUS, Branch.MINUS)
PHOTONS = (Photon.A, Photon.B)
EPR = make_epr()
DIAG = basis_state(Axis.Y, Branch.PLUS)
CASCADE = build_cascade(100)

# Public functions the jobs call; a traced job records a span named
# ``<module>.<function>`` around each call.
LAYER_FUNCTIONS = (
    PolarizationState,
    components_in,
    PartialMeasurementOp,
    click_probability,
    no_click_map,
    cascade_measure,
    apply_partial_pair,
    pair_click_probability,
    pair_axis_amplitudes,
    apply_quadruple,
    sample_partial_pair,
    y_correlation_pair,
    trial_stream,
    aggregate_records,
    analytic_agreement,
    analytic_survival,
    enumerate_event_tree,
    parse_experiment_file,
    resolve_config,
    cli.write_csv,
    cli.chart_table,
    violation_region,
)


def layers(tracer) -> SimpleNamespace:
    """The layer functions, each wrapped by ``tracer``."""
    return SimpleNamespace(
        **{
            fn.__name__: tracer.wrap(
                f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", fn
            )
            for fn in LAYER_FUNCTIONS
        }
    )


def job_seed(seed: int, k: int) -> int:
    """63-bit seed of job ``k`` in a run with seed ``seed``."""
    digest = hashlib.sha256(f"{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class JobResult:
    """What one job did and what its checks found."""

    trials: int = 0
    trial_s: float = 0.0
    evals: int = 0
    eval_s: float = 0.0
    survivors: int = 0
    draws: int = 0
    cascade_calls: int = 0
    digest: str = ""
    host_scale: float = 1.0
    problems: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return self.trial_s + self.eval_s


def run_job(workload, seed: int, k: int, tracer) -> JobResult:
    """Job ``k``; an exception fails the job instead of the run."""
    try:
        with tracer.span("job"):
            return workload.job(seed, k, tracer)
    except Exception:  # the benchmark must keep going and count it
        return JobResult(problems=[traceback.format_exc(limit=4)])


def count_gate(count: int, n: int, p: float, what: str, problems: list[str]) -> None:
    """Fail unless ``count`` of ``n`` lies within Z_GATE sigma of ``n p``."""
    p = min(1.0, max(0.0, p))
    variance = n * p * (1.0 - p)
    deviation = count - n * p
    if variance > 0.0:
        z = deviation / math.sqrt(variance)
        ok = abs(z) <= Z_GATE
    else:
        z = math.inf
        ok = abs(deviation) <= EXACT_TOL * n
    if not ok:
        problems.append(f"{what}: {count} of {n} against p={p!r} (z={z:.2f})")


def close(value: float, expected: float, tol: float, what: str, problems: list[str]) -> None:
    if not abs(value - expected) <= tol:
        problems.append(f"{what}: {value!r} against {expected!r} (tolerance {tol})")


@dataclass(frozen=True)
class TreeSummary:
    """Masses of an event tree: total, clicked, and agreeing survivors."""

    total: float
    clicked: float
    surviving: float
    agreeing: float

    @staticmethod
    def of(leaves) -> "TreeSummary":
        total = clicked = agreeing = 0.0
        for leaf in leaves:
            total += leaf.probability
            if leaf.clicked:
                clicked += leaf.probability
            elif leaf.agreement:
                agreeing += leaf.probability
        return TreeSummary(total, clicked, total - clicked, agreeing)

    def check(self, what: str, problems: list[str]) -> None:
        close(self.total, 1.0, EXACT_TOL, f"{what}: leaf probabilities sum", problems)


# ---------------------------------------------------------------- run jobs

SUMMARY_COLUMNS = (
    "total",
    "clicked",
    "surviving",
    "agreement_count",
    "agreement_rate",
    "std_error",
    "analytic_prediction",
)
LOG_HEADER = ["trial", "click_step", "detector", "result_a", "result_b", "agreement"]


def _log_row(record) -> list:
    return [
        record.index,
        "" if record.click_step is None else record.click_step,
        "" if record.detector is None else record.detector,
        "" if record.result_a is None else record.result_a.value,
        "" if record.result_b is None else record.result_b.value,
        "" if record.agreement is None else int(record.agreement),
    ]


def _draws(config: ExperimentConfig, records) -> int:
    """Uniforms the runner drew: one per step reached, one for the final."""
    finals = len(config.plan) + 1
    return sum(finals if r.click_step is None else r.click_step + 1 for r in records)


class RunWorkload:
    """``partial-eraser run`` on shipped configs at a fixed trial count.

    Untraced, a job calls ``cli.main``.  Traced, it makes the same layer
    calls as ``run`` from this file (parse, resolve, sample, aggregate,
    write) so that each gets a span; its CSVs are the benchmark's own.

    Its evaluations are the event tree, ``analytic_agreement`` and
    ``analytic_survival`` of each config with each of the three final
    axes; they must agree on every axis.
    """

    def __init__(self, config_names, trials: int, log_trials: bool, workdir) -> None:
        self.config_names = tuple(config_names)
        self.trials = trials
        self.log_trials = log_trials
        self.workdir = workdir

    def job(self, seed: int, k: int, tracer) -> JobResult:
        result = JobResult()
        traced = not isinstance(tracer, NullTracer)
        calls = layers(tracer)
        s = job_seed(seed, k)
        outputs = []
        for name in self.config_names:
            path = program.config_path(name)
            out = self.workdir / f"{name}-{k}.csv"
            log = self.workdir / f"{name}-{k}.csv.trials.csv"
            gc.collect()
            start = perf_counter()
            if traced:
                records = self._layer_run(calls, tracer, path, s, out, log)
            else:
                self._cli_run(path, s, out, result.problems)
            result.trial_s += perf_counter() - start
            result.trials += self.trials
            config = resolve_config(parse_experiment_file(path), seed=s, trials=self.trials)
            variants = {axis: dataclasses.replace(config, final_axis=axis) for axis in AXES}

            gc.collect()
            start = perf_counter()
            oracles = {
                axis: (
                    calls.enumerate_event_tree(variant),
                    calls.analytic_agreement(variant),
                    calls.analytic_survival(variant),
                )
                for axis, variant in variants.items()
            }
            result.eval_s += perf_counter() - start
            result.evals += 3 * len(oracles)

            trees = {}
            for axis, (leaves, agreement, survival) in oracles.items():
                what = f"{name}, final axis {axis.value}"
                tree = trees[axis] = TreeSummary.of(leaves)
                tree.check(what, result.problems)
                predicted = tree.agreeing / tree.surviving
                close(agreement, predicted, EXACT_TOL, f"{what}: agreement", result.problems)
                close(survival, tree.surviving, EXACT_TOL, f"{what}: survival", result.problems)
            summary = self._check(name, config, trees[config.final_axis], out, log, result)
            result.survivors += summary["surviving"]
            if traced:
                result.draws += _draws(config, records)
                for i in range(TRIAL_STREAM_SAMPLE):
                    calls.trial_stream(s, i)
            outputs.append(out.read_bytes())
            if self.log_trials:
                outputs.append(log.read_bytes())
            out.unlink()
            log.unlink(missing_ok=True)
        result.digest = hashlib.sha256(b"".join(outputs)).hexdigest()
        return result

    def _cli_run(self, path, s: int, out, problems: list[str]) -> None:
        argv = ["run", str(path), "--output", str(out), "--seed", str(s)]
        argv += ["--trials", str(self.trials)]
        if self.log_trials:
            argv.append("--log-trials")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            problems.append(f"run {path.name} exited {code}: {err.getvalue().strip()}")

    def _layer_run(self, calls, tracer, path, s: int, out, log):
        parsed = calls.parse_experiment_file(path)
        config = calls.resolve_config(parsed, seed=s, trials=self.trials)
        with tracer.span("montecarlo.iter_trials"):
            records = list(iter_trials(config))
        tracer.count("montecarlo.trials", len(records))
        stats = calls.aggregate_records(config, records)
        tracer.count("montecarlo.records", len(records))
        if self.log_trials:
            calls.write_csv(log, LOG_HEADER, (_log_row(r) for r in records))
            tracer.count("cli.write_csv.rows", len(records))
        row = [getattr(stats, column) for column in SUMMARY_COLUMNS]
        calls.write_csv(out, list(SUMMARY_COLUMNS), [row])
        tracer.count("cli.write_csv.rows", 1)
        return records

    def _check(self, name, config, tree, out, log, result) -> dict:
        """The run's CSVs against the event tree of its own final axis."""
        problems = result.problems
        predicted = tree.agreeing / tree.surviving
        with open(out, newline="") as handle:
            row = next(csv.DictReader(handle))
        summary = {c: int(row[c]) for c in SUMMARY_COLUMNS[:4]}
        rates = {c: float(row[c]) for c in SUMMARY_COLUMNS[4:]}
        n, surviving = self.trials, summary["surviving"]
        if summary["total"] != n or summary["clicked"] + surviving != n:
            problems.append(f"{name}: counts {summary} do not add up to {n} trials")
        reported = rates["analytic_prediction"]
        close(reported, predicted, 1e-9, f"{name}: analytic_prediction", problems)
        count_gate(summary["clicked"], n, tree.clicked, f"{name}: clicks", problems)
        if surviving:
            close(rates["agreement_rate"], summary["agreement_count"] / surviving, EXACT_TOL,
                  f"{name}: agreement_rate", problems)
            agreeing = summary["agreement_count"]
            count_gate(agreeing, surviving, predicted, f"{name}: agreement", problems)
        if self.log_trials:
            self._check_log(name, config, log, summary, problems)
        return summary

    @staticmethod
    def _check_log(name, config, log, summary, problems) -> None:
        detectors = [getattr(step, "n_detectors", None) for step in config.plan]
        rows = clicked = agreeing = 0
        with open(log, newline="") as handle:
            reader = csv.reader(handle)
            if next(reader) != LOG_HEADER:
                problems.append(f"{name}: trial log header")
            for index, step, detector, _a, _b, agreement in reader:
                if int(index) != rows:
                    problems.append(f"{name}: trial log row {rows} has index {index}")
                    return
                rows += 1
                if step:
                    clicked += 1
                    n_det = detectors[int(step)]
                    if n_det is not None and not 0 <= int(detector) < n_det:
                        problems.append(f"{name}: detector {detector} outside the cascade")
                        return
                elif agreement == "1":
                    agreeing += 1
        if rows != config.trials:
            problems.append(f"{name}: trial log has {rows} rows")
        if (clicked, agreeing) != (summary["clicked"], summary["agreement_count"]):
            problems.append(f"{name}: trial log counts disagree with the summary")


# ------------------------------------------------------------ cascade loop

SINGLE = DetectorPlacement(Branch.PLUS, frozenset({3}))
MEASURE = DetectorPlacement(Branch.PLUS, frozenset(range(50)))
ERASE = DetectorPlacement(Branch.MINUS, frozenset(range(50)))


def _single_photon(*steps: CascadeStep) -> ExperimentConfig:
    return ExperimentConfig(Preparation.single(Branch.PLUS), steps, Axis.Y, 1, 0)


# The loop's two experiments for every detector count m on 100 beams:
# m detectors click with probability m/200 on the diagonal state, and m
# measuring then m erasing detectors pass 1 - m/100 of the photons.
DETECTOR_CONFIGS = {
    m: _single_photon(CascadeStep(Photon.A, Branch.PLUS, m)) for m in range(1, 101)
}
ERASE_CONFIGS = {
    m: _single_photon(
        CascadeStep(Photon.A, Branch.PLUS, m), CascadeStep(Photon.A, Branch.MINUS, m)
    )
    for m in range(1, 51)
}


class CascadeWorkload:
    """Criterion 6 through ``cascade_measure``: ``passes`` single-detector
    passes, then ``passes`` measure-then-erase passes, on one stream.

    Its evaluations are the event trees of the same two experiments for
    every detector count, and ``analytic_survival`` of the two sampled.
    """

    def __init__(self, passes: int, click_rate: float = CASCADE_CLICK_RATE) -> None:
        self.passes = passes
        self.click_rate = click_rate

    def job(self, seed: int, k: int, tracer) -> JobResult:
        result = JobResult()
        calls = layers(tracer)
        measure = calls.cascade_measure
        n = self.passes

        gc.collect()
        start = perf_counter()
        rng = calls.trial_stream(job_seed(seed, k), 0)
        clicks = 0
        for _ in range(n):
            if measure(DIAG, SINGLE, CASCADE, rng).clicked:
                clicks += 1
        erasures = survived = 0
        for _ in range(n):
            outcome = measure(DIAG, MEASURE, CASCADE, rng)
            if outcome.clicked:
                continue
            erasures += 1
            if not measure(outcome.post_state, ERASE, CASCADE, rng).clicked:
                survived += 1
        result.trial_s = perf_counter() - start
        result.trials = 2 * n
        result.cascade_calls = result.draws = 2 * n + erasures
        result.survivors = (n - clicks) + survived

        gc.collect()
        start = perf_counter()
        detector_trees = {m: calls.enumerate_event_tree(c) for m, c in DETECTOR_CONFIGS.items()}
        erase_trees = {m: calls.enumerate_event_tree(c) for m, c in ERASE_CONFIGS.items()}
        single_survival = calls.analytic_survival(DETECTOR_CONFIGS[1])
        erase_survival = calls.analytic_survival(ERASE_CONFIGS[50])
        result.eval_s = perf_counter() - start
        result.evals = len(detector_trees) + len(erase_trees) + 2

        problems = result.problems
        count_gate(clicks, n, self.click_rate, "single-detector clicks", problems)
        count_gate(survived, n, CASCADE_SURVIVAL, "measure-erase survivors", problems)
        for m, leaves in detector_trees.items():
            tree = TreeSummary.of(leaves)
            tree.check(f"{m} detectors", problems)
            close(tree.clicked, m / 200, EXACT_TOL, f"{m} detectors: click mass", problems)
        for m, leaves in erase_trees.items():
            tree = TreeSummary.of(leaves)
            tree.check(f"{m} measuring and erasing detectors", problems)
            close(tree.surviving, 1 - m / 100, EXACT_TOL, f"{m} measure-erase: survival", problems)
        expected = 1 - CASCADE_CLICK_RATE
        close(single_survival, expected, EXACT_TOL, "single analytic_survival", problems)
        close(erase_survival, CASCADE_SURVIVAL, EXACT_TOL, "erase analytic_survival", problems)
        result.digest = f"{clicks},{erasures},{survived}"
        return result


# ------------------------------------------------------------ oracle sweep


def random_pair_plan(gen: np.random.Generator) -> ExperimentConfig:
    """EPR pair, one to four partial measurements on random axes, photons
    and branches (a quarter of them beam cascades), random final axis."""
    steps = []
    for _ in range(int(gen.integers(1, 5))):
        photon = PHOTONS[gen.integers(2)]
        branch = BRANCHES[gen.integers(2)]
        if gen.random() < 0.25:
            steps.append(CascadeStep(photon, branch, int(gen.integers(1, 100))))
        else:
            op = PartialMeasurementOp(AXES[gen.integers(3)], branch, gen.uniform(0.05, 1.0))
            steps.append(MeasureStep(photon, op))
    return ExperimentConfig(Preparation.epr(), tuple(steps), AXES[gen.integers(3)], 1, 0)


def random_charts(gen: np.random.Generator, steps: int) -> list:
    """All four charts on random grids of ``steps`` points."""
    alpha = cli.GridSpec(gen.uniform(0.0, 0.2), gen.uniform(0.8, 1.0), steps)
    rho = cli.GridSpec(gen.uniform(1.0, 1.5), gen.uniform(15.0, 25.0), steps, "log")
    return [
        cli.ChartRequest(chart_id, rho if chart_id == "inequality_deltas_vs_rho" else alpha)
        for chart_id in cli.CHART_IDS
    ]


def quadruple_ops(q: IntensityQuadruple):
    """The four measurements ``apply_quadruple`` makes, in its order."""
    return (
        (Photon.A, PartialMeasurementOp(Axis.X, Branch.PLUS, q.alpha)),
        (Photon.A, PartialMeasurementOp(Axis.X, Branch.MINUS, q.beta)),
        (Photon.B, PartialMeasurementOp(Axis.X, Branch.PLUS, q.gamma)),
        (Photon.B, PartialMeasurementOp(Axis.X, Branch.MINUS, q.delta)),
    )


def diagonal_agreement(amplitudes) -> float:
    return abs(amplitudes[0][0]) ** 2 + abs(amplitudes[1][1]) ** 2


def _check_chart(request, header, rows, problems: list[str]) -> None:
    if len(rows) != request.grid.steps or any(len(r) != len(header) for r in rows):
        problems.append(f"{request.chart_id}: {len(rows)} rows of {request.grid.steps}")
        return
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append(f"{request.chart_id}: non-finite value")
    if request.chart_id == "inequality_deltas_vs_rho":
        for rho, _sum, _ac, margin in rows:
            close(margin, inequality_margin(rho), EXACT_TOL, f"margin at rho={rho!r}", problems)
    elif request.chart_id == "epr_parts_vs_alpha":
        for alpha, epr, anti in rows:
            close(epr + anti, 1.0, EXACT_TOL, f"EPR parts at alpha={alpha!r}", problems)


class OracleWorkload:
    """Fresh random inputs through the pair algebra and the oracles.

    Trials: each random quadruple is sampled as four partial measurements
    with ``sample_partial_pair``.  Evaluations: ``apply_quadruple``,
    ``y_correlation_pair`` and ``pair_axis_amplitudes`` per quadruple,
    ``enumerate_event_tree`` per random pair plan, ``chart_table`` for all
    four charts and ``violation_region(1e-9)``.
    """

    def __init__(self, quadruples: int, plans: int, chart_steps: int) -> None:
        self.quadruples = quadruples
        self.plans = plans
        self.chart_steps = chart_steps

    def job(self, seed: int, k: int, tracer) -> JobResult:
        result = JobResult()
        calls = layers(tracer)
        s = job_seed(seed, k)
        gen = np.random.default_rng(s)
        fractions = gen.uniform(0.02, 1.0, (self.quadruples, 4)).tolist()
        quads = [IntensityQuadruple(*row) for row in fractions]
        ops = [quadruple_ops(q) for q in quads]
        plans = [random_pair_plan(gen) for _ in range(self.plans)]
        charts = random_charts(gen, self.chart_steps)

        gc.collect()
        start = perf_counter()
        rng = calls.trial_stream(s, 0)
        sample = calls.sample_partial_pair
        sampled = []
        for steps in ops:
            state = EPR
            for photon, op in steps:
                result.draws += 1
                outcome = sample(state, photon, op, TrackingMode.NORMALIZED, rng)
                if outcome.clicked:
                    state = None
                    break
                state = outcome.post_state
            sampled.append(state)
        result.trial_s = perf_counter() - start
        result.trials = len(quads)
        result.survivors = sum(state is not None for state in sampled)

        gc.collect()
        start = perf_counter()
        pairs = [calls.apply_quadruple(EPR, q) for q in quads]
        correlations = [calls.y_correlation_pair(q) for q in quads]
        amplitudes = [calls.pair_axis_amplitudes(pair, Axis.Y) for pair in pairs]
        trees = [calls.enumerate_event_tree(plan) for plan in plans]
        tables = [calls.chart_table(request) for request in charts]
        region = calls.violation_region(1e-9)
        result.eval_s = perf_counter() - start
        result.evals = 3 * len(quads) + len(plans) + len(charts) + 1

        problems = result.problems
        for i, (state, pair, c, n) in enumerate(zip(sampled, pairs, correlations, amplitudes)):
            close(diagonal_agreement(n), c, EXACT_TOL, f"quadruple {i}: correlation", problems)
            if state is not None:
                distance = pair_distance(state, pair)
                close(distance, 0.0, EXACT_TOL, f"quadruple {i}: sampled state", problems)
        for i, leaves in enumerate(trees):
            TreeSummary.of(leaves).check(f"plan {i}", problems)
        for request, (header, rows) in zip(charts, tables):
            _check_chart(request, header, rows, problems)
        close(region[0], 1.0, 0.0, "violation region lower end", problems)
        close(region[1], VIOLATION_BOUNDARY, BOUNDARY_TOL, "violation region upper end", problems)

        fingerprint = [
            [None if st is None else (st.amp_uu, st.amp_rr, st.amp_ur, st.amp_ru)
             for st in sampled],
            correlations,
            [[leaf.probability for leaf in leaves] for leaves in trees],
            tables,
            region,
        ]
        result.digest = hashlib.sha256(repr(fingerprint).encode()).hexdigest()
        return result


# ------------------------------------------------------------ job sizes

MC_PAIR_TRIALS = 5_000  # per config, three configs per job
MC_LOGGED_TRIALS = 25_000
CASCADE_PASSES = 20_000  # per phase, two phases per job
ORACLE_QUADRUPLES = 1_000
ORACLE_PLANS = 250
ORACLE_CHART_STEPS = 101
# Trial streams timed per traced run job, on that job's own (seed, index).
TRIAL_STREAM_SAMPLE = 200


def make(name: str, workdir):
    if name == "mc_pair":
        return RunWorkload(program.PAIR_CONFIGS, MC_PAIR_TRIALS, False, workdir)
    if name == "mc_logged":
        return RunWorkload((program.LOGGED_CONFIG,), MC_LOGGED_TRIALS, True, workdir)
    if name == "cascade_loop":
        return CascadeWorkload(CASCADE_PASSES)
    if name == "oracle_sweep":
        return OracleWorkload(ORACLE_QUADRUPLES, ORACLE_PLANS, ORACLE_CHART_STEPS)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ layer probe

PROBE_CALLS = 1_000
PROBE_TRIALS = 2_000
PROBE_PLANS = 50


def _random_state(gen: np.random.Generator) -> tuple[complex, complex]:
    parts = gen.normal(size=4)
    up, right = complex(parts[0], parts[1]), complex(parts[2], parts[3])
    norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
    return up / norm, right / norm


def _random_pair(gen: np.random.Generator) -> PairState:
    amps = gen.normal(size=8)
    amps /= np.linalg.norm(amps)
    return PairState(*(complex(amps[2 * i], amps[2 * i + 1]) for i in range(4)))


def layer_probe(tracer, seed: int, workdir) -> None:
    """Call every layer function on fresh seeded inputs, within spans.

    A traced run adds these calls to its jobs' own, so that each layer has
    a per-call time on every workload, including layers its jobs reach
    only through other functions.
    """
    calls = layers(tracer)
    gen = np.random.default_rng(job_seed(seed, -1))
    n = PROBE_CALLS
    amps = [_random_state(gen) for _ in range(n)]
    axes = [AXES[i] for i in gen.integers(0, 3, n)]
    branches = [BRANCHES[i] for i in gen.integers(0, 2, n)]
    photons = [PHOTONS[i] for i in gen.integers(0, 2, n)]
    alphas = gen.uniform(0.05, 1.0, n).tolist()
    counts = gen.integers(1, 101, n)
    placements = [DetectorPlacement(b, frozenset(range(m))) for b, m in zip(branches, counts)]
    pairs = [_random_pair(gen) for _ in range(n)]
    plans = [random_pair_plan(gen) for _ in range(PROBE_PLANS)]
    charts = random_charts(gen, ORACLE_CHART_STEPS)
    s = job_seed(seed, 0)

    with tracer.span("probe"):
        states = [calls.PolarizationState(up, right) for up, right in amps]
        ops = [calls.PartialMeasurementOp(*args) for args in zip(axes, branches, alphas)]
        for state, axis in zip(states, axes):
            calls.components_in(state, axis)
        for op, state in zip(ops, states):
            calls.click_probability(op, state)
            calls.no_click_map(op, state)
        rng = calls.trial_stream(s, 0)
        for state, placement in zip(states, placements):
            calls.cascade_measure(state, placement, CASCADE, rng)
        for pair, photon, op in zip(pairs, photons, ops):
            calls.pair_click_probability(pair, photon, op)
            calls.apply_partial_pair(pair, photon, op)
        for pair, axis in zip(pairs, axes):
            calls.pair_axis_amplitudes(pair, axis)
        for i in range(n):
            calls.trial_stream(s, i)
        for plan in plans:
            calls.analytic_survival(plan)
            calls.enumerate_event_tree(plan)
        config = dataclasses.replace(plans[0], trials=PROBE_TRIALS, master_seed=s)
        with tracer.span("montecarlo.iter_trials"):
            records = list(iter_trials(config))
        tracer.count("montecarlo.trials", len(records))
        calls.aggregate_records(config, records)
        tracer.count("montecarlo.records", len(records))
        log = workdir / "probe.trials.csv"
        calls.write_csv(log, LOG_HEADER, (_log_row(r) for r in records))
        tracer.count("cli.write_csv.rows", len(records))
        log.unlink()
        for name in program.PAIR_CONFIGS + (program.LOGGED_CONFIG,):
            for _ in range(25):
                calls.parse_experiment_file(program.config_path(name))
        for request in charts:
            calls.chart_table(request)
        for _ in range(5):
            calls.violation_region(1e-9)
