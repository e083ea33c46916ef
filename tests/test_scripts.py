"""Smoke tests: every shipped script runs to exit code 0."""

import importlib.util

import pytest
from conftest import REPO, run_python


def run_script(name, *args, cwd):
    result = run_python([str(REPO / "scripts" / name), *args], cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result


def test_make_charts(tmp_path):
    run_script("make_charts.py", "--out-dir", str(tmp_path / "charts"), cwd=tmp_path)
    assert len(list((tmp_path / "charts").glob("*.csv"))) == 4


def test_run_golden(tmp_path):
    result = run_script("run_golden.py", "--out-dir", str(tmp_path / "results"), cwd=tmp_path)
    configs = list((REPO / "configs").glob("*.cfg"))
    assert len(list((tmp_path / "results").glob("*.csv"))) == len(configs)
    assert result.stdout.count("   exit 0 in ") == len(configs)


def test_cascade_stats(tmp_path):
    result = run_script("cascade_stats.py", "--trials", "20000", cwd=tmp_path)
    assert result.stdout.count("trials=20000 ") == 2


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(failed, **values):
    """The last line of one ``bench/run.py`` run."""
    metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics}


def test_bench_pairs_summary_of_canned_runs():
    """The summary and the verdict, on made-up results: no benchmark runs."""
    bench_pairs = load_script("bench_pairs")
    metrics = [
        {"name": "rate", "better": "higher", "bound": 0.2},
        {"name": "rss", "better": "lower", "bound": 0.12},
    ]
    parent_rates, change_rates = [10.0, 12.0, 11.0, 13.0, 9.0], [14.0, 11.0, 15.0, 16.0, 12.0]
    pairs = [
        {
            "seed": 7 + i, "first": ("parent", "change")[i % 2], "parent_dir": "AABBB"[i],
            "parent": canned_run(0, rate=parent_rates[i], rss=40.0),
            "change": canned_run(i == 4, rate=change_rates[i], rss=39.0 + i),
        }
        for i in range(5)
    ]
    summary = bench_pairs.summarize(pairs, metrics)
    assert summary["seeds"] == [7, 8, 9, 10, 11]
    assert summary["first"] == ["parent", "change", "parent", "change", "parent"]
    assert summary["parent_dir"] == list("AABBB")
    assert summary["failed_jobs"] == {"parent": 0, "change": 1}
    assert summary["attempted_jobs"] == {"parent": 50, "change": 50}
    assert summary["rate"]["parent"] == {
        "median": 11.0, "q1": 10.0, "q3": 12.0, "iqr": 2.0, "runs": parent_rates,
    }
    assert summary["rate"]["change"]["median"] == 14.0
    # rss: 39, 40, 41, 42, 43 against 40 each time; lower is better
    assert summary["change_wins"] == {"rate": 4, "rss": 1}
    verdict = bench_pairs.claim_verdict(summary, "rate", "higher", [])
    assert verdict == {
        "wins": 4, "pairs": 5, "median_gap": 3.0, "parent_iqr": 2.0, "more_failed": [],
        "verdict": "not met",
    }
    # 9 of 10 pairs and a gap above the IQR are met; one fewer win, or a
    # gap of exactly the IQR, is not, and neither is a gain on a run whose
    # change failed a larger share of jobs on some workload.
    ten = {"pairs": 10, "change_wins": {}, "rate": {"parent": summary["rate"]["parent"]}}
    for wins, gap, more_failed, expected in [
        (9, 2.01, [], "met"), (8, 2.01, [], "not met"), (10, 2.0, [], "not met"),
        (10, -2.01, [], "not met"), (10, 2.01, ["w"], "not met"),
    ]:
        ten["change_wins"]["rate"] = wins
        for better, sign in (("higher", 1), ("lower", -1)):
            ten["rate"]["change"] = {"median": 11.0 + sign * gap}
            verdict = bench_pairs.claim_verdict(ten, "rate", better, more_failed)
            assert (verdict["verdict"], verdict["more_failed"]) == (expected, more_failed)
    # The change failed 1 of 50 jobs and the parent none: flagged.  Equal
    # shares are not, nor fewer failures, and the shares are compared, not
    # the counts (2 of 100 is not more than 1 of 50).
    assert bench_pairs.more_failed_jobs({"w": summary}) == [{
        "workload": "w", "failed_jobs": {"parent": 0, "change": 1},
        "attempted_jobs": {"parent": 50, "change": 50},
    }]
    for failed, attempted in [
        ({"parent": 1, "change": 1}, {"parent": 50, "change": 50}),
        ({"parent": 2, "change": 0}, {"parent": 50, "change": 50}),
        ({"parent": 1, "change": 2}, {"parent": 50, "change": 100}),
    ]:
        even = {**summary, "failed_jobs": failed, "attempted_jobs": attempted}
        assert bench_pairs.more_failed_jobs({"w": even}) == []
    # rss medians 40 -> 41 (+2.5%) stays inside its 12% bound, and the rate
    # improved; a second workload whose rate fell from 11 to 8.7 (-21%) is
    # flagged.
    assert bench_pairs.worse_than_bound({"w": summary}, metrics) == []
    slower = {**summary, "rate": {**summary["rate"], "change": {"median": 8.7}}}
    assert bench_pairs.worse_than_bound({"w": summary, "v": slower}, metrics) == [{
        "workload": "v", "metric": "rate", "parent": 11.0, "change": 8.7,
        "worse_by": 0.209091, "bound": 0.2,
    }]
    args = bench_pairs.parse_args(
        ["--parent", "p", "--change", "c", "--label", "x", "--claim", "oracle_sweep:evals_per_s"],
        {"workloads": [{"name": "oracle_sweep"}], "end_to_end": [{"name": "evals_per_s"}]},
    )
    assert bench_pairs.made_by(args) == (
        "python3 scripts/bench_pairs.py --parent p --change c --label x"
        " --workloads oracle_sweep --pairs 10 --seed 1700 --claim oracle_sweep:evals_per_s"
    )


def test_bench_pairs_unresolved_of_canned_runs():
    """A metric is unresolved where the parent's IQR is wider than its
    bound, a fraction of the parent's median, unless every change run
    reads better than every parent run; the claim's verdict ignores it."""
    bench_pairs = load_script("bench_pairs")
    metrics = [
        {"name": "rate", "better": "higher", "bound": 0.2},
        {"name": "rss", "better": "lower", "bound": 0.12},
    ]

    def workload(rate, rss):
        """Each metric's quartiles from its parent and change runs."""
        return {
            name: dict(zip(("parent", "change"), map(bench_pairs.quartiles, sides)))
            for name, sides in (("rate", rate), ("rss", rss))
        }

    wide_rate, wide_rss = [6.0, 9.0, 11.0, 14.0, 16.0], [30.0, 35.0, 40.0, 45.0, 50.0]
    results = {
        # IQR 5 against 0.2 * 11 and 10 against 0.12 * 40, change runs overlapping
        "wide": workload(
            (wide_rate, [10.0, 11.0, 12.0, 13.0, 14.0]), (wide_rss, [29.0, 31.0, 28.0, 27.0, 26.0])
        ),
        # as wide, but every change run better than every parent run
        "clear": workload(
            (wide_rate, [17.0, 18.0, 19.0, 20.0, 21.0]), (wide_rss, [29.0, 28.0, 27.0, 26.0, 25.0])
        ),
        # IQR 2 is exactly 0.2 * 10, and 0 for rss: resolved, worse or not
        "narrow": workload(
            ([8.0, 10.0, 10.0, 12.0, 12.0], [1.0] * 5), ([40.0] * 5, [80.0] * 5)
        ),
    }
    assert bench_pairs.unresolved(results, metrics) == [
        {"workload": "wide", "metric": "rate", "parent_median": 11.0, "parent_iqr": 5.0,
         "bound": 0.2},
        {"workload": "wide", "metric": "rss", "parent_median": 40.0, "parent_iqr": 10.0,
         "bound": 0.12},
    ]
    # Nine wins in ten and a gap of 6 above the parent's IQR of 4 are met,
    # though one change run (15) reads worse than one parent run (20).
    parent_rates = [5.0, 8.0, 8.0, 8.0, 10.0, 10.0, 12.0, 12.0, 12.0, 20.0]
    change_rates = [16.0] * 9 + [15.0]
    pairs = [
        {
            "seed": i, "first": "parent", "parent_dir": "A",
            "parent": canned_run(0, rate=parent_rates[i], rss=40.0),
            "change": canned_run(0, rate=change_rates[i], rss=40.0),
        }
        for i in range(10)
    ]
    summary = bench_pairs.summarize(pairs, metrics)
    assert bench_pairs.claim_verdict(summary, "rate", "higher", [])["verdict"] == "met"
    assert bench_pairs.unresolved({"w": summary}, metrics) == [
        {"workload": "w", "metric": "rate", "parent_median": 10.0, "parent_iqr": 4.0,
         "bound": 0.2},
    ]


def test_bench_pairs_help(tmp_path):
    result = run_script("bench_pairs.py", "--help", cwd=tmp_path)
    assert "--parent" in result.stdout and "alternating pairs" in result.stdout


@pytest.mark.parametrize(
    "bad",
    [
        ["--workloads", "oracle_sweep,nope"],
        ["--claim", "oracle_sweep"],
        ["--claim", "oracle_sweep:nope"],
        ["--workloads", "mc_pair", "--claim", "oracle_sweep:evals_per_s"],
        ["--pairs", "9", "--claim", "oracle_sweep:evals_per_s"],
    ],
)
def test_bench_pairs_rejects_bad_workloads_and_claims_before_any_run(bad, capsys):
    bench_pairs = load_script("bench_pairs")
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--change", "HEAD", "--label", "x", *bad])
    assert exit_info.value.code == 2
    assert "error: --" in capsys.readouterr().err
