"""Measurement loop, metrics and report of one benchmark run.

``run.py`` sets the environment and the import path, then calls ``run``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy
import partial_eraser

import program
import workloads
from spans import NullTracer, Tracer

OUT_DIR = program.ROOT / ".bench_out"
# The host is shared, and its speed changes by up to 1.7x over tens of
# seconds, so unscaled rates of whole runs differ by a quarter.  Each job's
# rates are therefore scaled to nominal host speed with a fixed kernel
# timed around the job (``kernel_seconds``); NOMINAL_KERNEL_S is the
# kernel's time at nominal speed.
KERNEL_LOOPS = 20_000
KERNEL_SEEDS = 200
NOMINAL_KERNEL_S = 0.016
# Cold starts are scaled the same way, by a reference start of Python and
# numpy alone, which is about two thirds of a workload's set-up.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
REFERENCE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
NOMINAL_START_S = 0.15

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer times: metric -> (span name, seconds to unit, counter of work
# units, or None for per call).
LAYER_TIMES = {
    "polarization.state_us": ("polarization.PolarizationState", 1e6, None),
    "polarization.components_in_us": ("polarization.components_in", 1e6, None),
    "measurement.op_us": ("measurement.PartialMeasurementOp", 1e6, None),
    "measurement.no_click_map_us": ("measurement.no_click_map", 1e6, None),
    "measurement.click_probability_us": ("measurement.click_probability", 1e6, None),
    "cascade.measure_us": ("cascade.cascade_measure", 1e6, None),
    "epr.apply_partial_pair_us": ("epr.apply_partial_pair", 1e6, None),
    "epr.pair_click_probability_us": ("epr.pair_click_probability", 1e6, None),
    "epr.pair_axis_amplitudes_us": ("epr.pair_axis_amplitudes", 1e6, None),
    "montecarlo.trial_stream_us": ("montecarlo.trial_stream", 1e6, None),
    "montecarlo.sample_us_per_trial": ("montecarlo.iter_trials", 1e6, "montecarlo.trials"),
    "montecarlo.aggregate_us_per_record": (
        "montecarlo.aggregate_records", 1e6, "montecarlo.records",
    ),
    "montecarlo.analytic_survival_us": ("montecarlo.analytic_survival", 1e6, None),
    "montecarlo.event_tree_ms": ("montecarlo.enumerate_event_tree", 1e3, None),
    "config.parse_us": ("config.parse_experiment_file", 1e6, None),
    "cli.write_csv_us_per_row": ("cli.write_csv", 1e6, "cli.write_csv.rows"),
    "cli.chart_table_ms": ("cli.chart_table", 1e3, None),
    "inequality.violation_region_ms": ("inequality.violation_region", 1e3, None),
}
PER_LAYER = {
    **{name: ("ms" if name.endswith("_ms") else "us") for name in LAYER_TIMES},
    "montecarlo.draws": "count",
    "montecarlo.survival_ratio": "frac",
    "cascade.calls": "count",
    "cascade.self_share": "frac",
    "trace.overhead_frac": "frac",
}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spread(values) -> dict:
    """Sample count, median, quartiles and the highest percentile with at
    least ten samples beyond it."""
    values = sorted(values)
    out = {"n": len(values), "median": median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = values[int(len(values) * pct / 100)]
            break
    return out


def stamp(args) -> dict:
    """Host, versions, commit and source size behind a result."""
    sources = sorted(program.PACKAGE.glob("*.py"))
    lines = {path.name: path.read_bytes().count(b"\n") for path in sources}
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "partial_eraser": partial_eraser.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(lines.values()),
        "src_lines_by_file": lines,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def git_commit() -> str:
    if not (program.ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "-C", str(program.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return done.stdout.strip() or f"unknown: {done.stderr.strip()}"


def ready_seconds(argv: list[str]) -> float:
    """Seconds from starting ``argv`` to its ``ready`` line."""
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed ({child.returncode})")
    return elapsed


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """SETUP_PROBES cold starts of the workload, each with the start scale:
    the mean time of the reference start before and after it over
    NOMINAL_START_S."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload, str(seed)]
    samples = []
    before = ready_seconds(REFERENCE_START)
    for _ in range(SETUP_PROBES):
        elapsed = ready_seconds(probe)
        after = ready_seconds(REFERENCE_START)
        samples.append((elapsed, 0.5 * (before + after) / NOMINAL_START_S))
        before = after
    return samples


def kernel_seconds() -> float:
    """Time of a fixed kernel of the work the simulator does: interpreted
    complex arithmetic and numpy generator seeding.  It shares no code
    with the simulator, so only the host's speed moves it."""
    start = perf_counter()
    acc = 0j
    for i in range(KERNEL_LOOPS):
        z = complex(i % 7, 1.0)
        acc += z * z.conjugate() / (1.0 + abs(z))
    for i in range(KERNEL_SEEDS):
        numpy.random.default_rng([KERNEL_LOOPS, i]).random()
    return perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two kernel runs."""
    return 0.5 * (before + after) / NOMINAL_KERNEL_S


def run_loop(workload, seed: int, seconds: float, tracer_for, min_jobs: int) -> list:
    """Jobs 0, 1, ... until ``seconds`` have passed and ``min_jobs`` ran.

    The kernel runs before the first job and after each one, which gives
    each job its ``host_scale``.
    """
    jobs = []
    deadline = perf_counter() + seconds
    before = kernel_seconds()
    while len(jobs) < min_jobs or perf_counter() < deadline:
        k = len(jobs)
        job = workloads.run_job(workload, seed, k, tracer_for(k))
        after = kernel_seconds()
        job.host_scale = host_scale(before, after)
        jobs.append(job)
        before = after
    return jobs


def repeat_check(workload, seed: int, first, tracer):
    """Job 0 again: the same seed must give byte-identical outputs."""
    again = workloads.run_job(workload, seed, 0, tracer)
    if not first.problems and not again.problems and again.digest != first.digest:
        again.problems.append("job 0 repeated with the same seed gave different output")
    return again


def summarize(jobs) -> dict:
    """Jobs attempted and failed; a job fails when any check on it does."""
    failed = sum(1 for job in jobs if job.problems)
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed}


def rates(jobs, work: str, seconds: str, scaled: bool = True) -> list[float]:
    return [
        getattr(j, work) / getattr(j, seconds) * (j.host_scale if scaled else 1.0)
        for j in jobs
        if not j.problems and getattr(j, seconds) > 0
    ]


def untraced(args, workload) -> tuple[list, dict, dict]:
    null = NullTracer()
    probes = setup_samples(args.workload, args.seed)
    setup = [elapsed / scale for elapsed, scale in probes]
    jobs = run_loop(workload, args.seed, args.seconds, lambda k: null, 1)
    checked = jobs + [repeat_check(workload, args.seed, jobs[0], null)]
    trials = rates(jobs, "trials", "trial_s")
    evals = rates(jobs, "evals", "eval_s")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": median(setup),
        "trials_per_s": median(trials),
        "evals_per_s": median(evals),
        "peak_rss_mb": peak_mb,
    }
    detail = {
        "setup_s": spread(setup),
        "trials_per_s": spread(trials),
        "evals_per_s": spread(evals),
        "raw_trials_per_s": spread(rates(jobs, "trials", "trial_s", scaled=False)),
        "raw_evals_per_s": spread(rates(jobs, "evals", "eval_s", scaled=False)),
        "host_scale": spread([j.host_scale for j in jobs]),
        "raw_setup_s": spread([elapsed for elapsed, _ in probes]),
        "start_scale": spread([scale for _, scale in probes]),
    }
    return checked, metrics, detail


def traced(args, workload, workdir, out_dir) -> tuple[list, dict, dict]:
    job_tracer, probe_tracer, null = Tracer(), Tracer(), NullTracer()
    jobs = run_loop(
        workload, args.seed, args.seconds,
        lambda k: job_tracer if k % 2 == 0 else null, 2,
    )
    checked = jobs + [repeat_check(workload, args.seed, jobs[0], Tracer())]
    workloads.layer_probe(probe_tracer, args.seed, workdir)

    stem = f"spans-{args.workload}-seed{args.seed}"
    job_tracer.write(out_dir / f"{stem}-jobs.npz")
    probe_tracer.write(out_dir / f"{stem}-probe.npz")

    job_times = job_tracer.layer_times()
    times = dict(job_times)
    for name, (calls, total, own) in probe_tracer.layer_times().items():
        c0, t0, s0 = times.get(name, (0, 0.0, 0.0))
        times[name] = (c0 + calls, t0 + total, s0 + own)
    counts = job_tracer.counts + probe_tracer.counts

    metrics = {}
    for metric, (span, scale, counter) in LAYER_TIMES.items():
        calls, total, own = times.get(span, (0, 0.0, 0.0))
        units = counts[counter] if counter else calls
        metrics[metric] = own / units * scale if units else 0.0
    first = jobs[0]
    metrics["montecarlo.draws"] = first.draws
    metrics["montecarlo.survival_ratio"] = first.survivors / first.trials if first.trials else 0.0
    metrics["cascade.calls"] = first.cascade_calls
    job_total = job_times.get("job", (0, 0.0, 0.0))[1]
    cascade_self = job_times.get("cascade.cascade_measure", (0, 0.0, 0.0))[2]
    metrics["cascade.self_share"] = cascade_self / job_total if job_total else 0.0
    on = [j.timed_s / j.host_scale for k, j in enumerate(jobs) if k % 2 == 0 and not j.problems]
    off = [j.timed_s / j.host_scale for k, j in enumerate(jobs) if k % 2 == 1 and not j.problems]
    metrics["trace.overhead_frac"] = median(on) / median(off) - 1.0 if on and off else 0.0
    detail = {
        "spans": {
            name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in times.items()
        },
        "counts": dict(counts),
        "traced_job_s": spread(on),
        "untraced_job_s": spread(off),
    }
    return checked, metrics, detail


def run(args) -> int:
    """Run, check and report one workload; print the result line."""
    info = stamp(args)
    print("stamp " + json.dumps(info, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.make(args.workload, workdir)
        if args.trace:
            jobs, metrics, detail = traced(args, workload, workdir, OUT_DIR)
            units = PER_LAYER
        else:
            jobs, metrics, detail = untraced(args, workload)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = summarize(jobs)
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    report = {"stamp": info, "result": result, "detail": detail}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for job in [j for j in jobs if j.problems][:5]:
        print(f"failed job: {'; '.join(job.problems)[:2000]}", file=sys.stderr)
    print(
        f"{result['attempted']} jobs, {result['failed']} failed; details in {name}",
        file=sys.stderr,
    )
    if args.trace:
        print(f"trace.overhead_frac={metrics['trace.overhead_frac']!r}")
    print(json.dumps(result), flush=True)
    return 0

