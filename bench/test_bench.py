"""Tests of the benchmark itself: its checks can fail, its counts repeat,
and it agrees with ``BENCHMARK.json``.

    python3 -m pytest bench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import pytest

import program

program.use_checkout_sources()

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SEED = 20260101


def small(name: str, workdir):
    """A workload of the named kind, with jobs small enough for a test."""
    if name == "mc_pair":
        return workloads.RunWorkload(program.PAIR_CONFIGS, 400, False, workdir)
    if name == "mc_logged":
        return workloads.RunWorkload((program.LOGGED_CONFIG,), 400, True, workdir)
    if name == "cascade_loop":
        return workloads.CascadeWorkload(2_000)
    return workloads.OracleWorkload(20, 5, 11)


@pytest.mark.parametrize("name", program.WORKLOADS)
@pytest.mark.parametrize("traced", [False, True])
def test_jobs_pass_their_checks_and_repeat(name, traced, tmp_path):
    workload = small(name, tmp_path)
    tracer = Tracer() if traced else NullTracer()
    first = workloads.run_job(workload, SEED, 0, tracer)
    again = harness.repeat_check(workload, SEED, first, tracer)
    assert first.problems == [] and again.problems == []
    assert first.trials > 0 and first.evals > 0
    assert harness.summarize([first, again]) == {"correct": True, "attempted": 2, "failed": 0}


def test_wrong_prediction_fails_the_job():
    # Ten times the criterion-6 click rate is about 9 sigma off at 2000 passes.
    workload = workloads.CascadeWorkload(2_000, click_rate=10 * workloads.CASCADE_CLICK_RATE)
    jobs = harness.run_loop(workload, SEED, 0.0, lambda k: NullTracer(), 2)
    assert all("single-detector clicks" in job.problems[0] for job in jobs)
    result = harness.summarize(jobs)
    assert result["failed"] / result["attempted"] > 0 and not result["correct"]


@pytest.mark.parametrize("name", ["mc_pair", "oracle_sweep"])
def test_perturbed_seed_fails_the_repeat(name, tmp_path):
    workload = small(name, tmp_path)
    null = NullTracer()
    first = workloads.run_job(workload, SEED, 0, null)
    again = harness.repeat_check(workload, SEED + 1, first, null)
    result = harness.summarize([first, again])
    assert result["failed"] == 1 and not result["correct"]


def test_program_failure_is_counted_not_raised(tmp_path):
    workload = workloads.RunWorkload(("no_such_config",), 10, False, tmp_path)
    job = workloads.run_job(workload, SEED, 0, NullTracer())
    assert job.problems and "no_such_config" in job.problems[0]


def test_count_gate():
    problems: list[str] = []
    workloads.count_gate(50, 10_000, 0.005, "in range", problems)
    workloads.count_gate(0, 10, 0.0, "impossible event", problems)
    assert problems == []
    workloads.count_gate(100, 10_000, 0.005, "too many", problems)
    workloads.count_gate(1, 10, 0.0, "impossible event happened", problems)
    assert [p.split(":")[0] for p in problems] == ["too many", "impossible event happened"]


def _traced_metrics(name, seed, tmp_path):
    args = argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=1)
    jobs, metrics, _ = harness.traced(args, small(name, tmp_path), tmp_path, tmp_path)
    assert harness.summarize(jobs)["correct"]
    return metrics


@pytest.mark.parametrize("name", ["mc_logged", "cascade_loop"])
def test_counts_repeat_exactly_for_a_fixed_seed(name, tmp_path):
    first = _traced_metrics(name, SEED, tmp_path)
    again = _traced_metrics(name, SEED, tmp_path)
    other = _traced_metrics(name, SEED + 1, tmp_path)
    assert set(first) == set(harness.PER_LAYER)
    counts = ("montecarlo.draws", "cascade.calls", "montecarlo.survival_ratio")
    assert [first[c] for c in counts] == [again[c] for c in counts]
    assert first["montecarlo.draws"] != other["montecarlo.draws"]
    if name == "cascade_loop":
        assert first["cascade.calls"] == first["montecarlo.draws"] > 4_000
    else:
        assert first["cascade.calls"] == 0
    assert all(first[m] > 0 for m in harness.LAYER_TIMES)


def test_spans_self_time(tmp_path):
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    with tracer.span("outer"):
        for i in range(3):
            leaf(i)
    times = tracer.layer_times()
    calls, total, own = times["outer"]
    assert calls == 1 and times["leaf"][0] == 3
    assert own == pytest.approx(total - times["leaf"][1])
    tracer.write(tmp_path / "spans.npz")


def test_metric_tables_match_benchmark_json():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1:] == ["bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(program.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_pair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
