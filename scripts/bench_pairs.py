#!/usr/bin/env python3
"""Benchmark two commits against each other in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME \\
        [--workloads a,b] [--pairs 10] [--seed 1700] \\
        [--claim WORKLOAD:METRIC] [--work-dir DIR]

Each commit is unpacked with ``git archive`` into a directory of its own.
For each workload, pair ``i`` runs ``bench/run.py`` once per commit, one
child at a time, for ``BENCHMARK.json``'s ``run_seconds``, with the seed
``--seed + 20 * w + i`` (``w`` is the workload's position in
``--workloads``), the parent first when ``i`` is even.  Halfway
through each workload's pairs the two checkouts swap directories, since
the same sources can read differently from different paths.

Writes ``BENCH_<label>.json`` at the root of this repository: per
workload and end-to-end metric (from ``BENCHMARK.json``), each side's
median, quartiles (``statistics.quantiles(runs, n=4,
method="inclusive")``) and runs in pair order, the number of pairs that
the change won, and as ``made_by`` the command that repeats the
comparison.  With ``--claim``, ``claim`` holds the verdict: "met" when
the change won at least 9 in 10 pairs, its median gap exceeds the
parent's IQR, and no workload is in ``more_failed_jobs``, which lists
every workload on which the change failed a larger share of its jobs than
the parent.  ``worse_than_bound`` lists every workload and metric whose
median got worse by more than the metric's ``bound``, and ``unresolved``
every one whose parent runs spread wider than that bound, so that a
median within it tells nothing, unless every change run read better
than every parent run; neither list changes the claim's verdict.  Each
finished run is appended to ``runs.jsonl`` in the work directory as it
comes; the directory, a new temporary one unless ``--work-dir`` names
it, is kept.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PROTOCOL = (
    "alternating pairs of parent and change, one child at a time, a fresh seed"
    " per pair, the side that runs first alternating; each side in its own git"
    " archive checkout, the two checkouts swapped halfway through each workload"
)
NOTE = (
    "Pair i runs the parent first when i is even. parent_dir names the directory"
    " the parent ran from in each pair. runs are in pair order, so parent runs[i]"
    " and change runs[i] are pair i; change_wins counts the pairs in which the"
    " change read better. Quartiles are statistics.quantiles(runs, n=4,"
    " method='inclusive')."
)


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True
    ).stdout


def unpack(rev: str, directory: Path) -> None:
    """A fresh ``git archive`` checkout of ``rev`` at ``directory``."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    archive = git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def src_lines(rev: str) -> int:
    """``wc -l src/partial_eraser/*.py`` at ``rev``."""
    names = git("ls-tree", "--name-only", f"{rev}:src/partial_eraser").decode().split()
    return sum(
        git("show", f"{rev}:src/partial_eraser/{name}").count(b"\n")
        for name in names
        if name.endswith(".py")
    )


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one ``bench/run.py`` child."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "iqr": round(q3 - q1, 6),
        "runs": [round(value, 6) for value in runs],
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """One workload's summary from its pair records, in pair order.

    A pair record has ``seed``, ``first``, ``parent_dir`` and, per side, the
    last-line JSON of ``bench/run.py``.  ``metrics`` are the end-to-end
    metrics of ``BENCHMARK.json``, each with ``name`` and ``better``.
    """
    summary = {
        "pairs": len(pairs),
        "seeds": [pair["seed"] for pair in pairs],
        "first": [pair["first"] for pair in pairs],
        "parent_dir": [pair["parent_dir"] for pair in pairs],
        "failed_jobs": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "attempted_jobs": {
            side: sum(pair[side]["attempted"] for pair in pairs) for side in SIDES
        },
    }
    wins = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        runs = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES
        }
        summary[name] = {side: quartiles(runs[side]) for side in SIDES}
        wins[name] = sum(
            sign * (change - parent) > 0
            for parent, change in zip(runs["parent"], runs["change"])
        )
    summary["change_wins"] = wins
    return summary


def more_failed_jobs(results: dict) -> list[dict]:
    """Every workload on which the change failed a larger share of its
    jobs than the parent, with both sides' failed and attempted counts."""
    flags = []
    for workload, summary in results.items():
        failed, attempted = summary["failed_jobs"], summary["attempted_jobs"]
        if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
            flags.append(
                {"workload": workload, "failed_jobs": failed, "attempted_jobs": attempted}
            )
    return flags


def claim_verdict(summary: dict, metric: str, better: str, more_failed: list[str]) -> dict:
    """Wins, the median gap and the parent's IQR of the claimed metric, and
    the verdict: "met" when the change won at least 9 in 10 pairs, its
    median is better than the parent's by more than the parent's IQR, and
    ``more_failed``, the workloads on which the change failed a larger
    share of its jobs, is empty: a gain bought with failures is none."""
    parent, change = summary[metric]["parent"], summary[metric]["change"]
    gap = change["median"] - parent["median"]
    if better == "lower":
        gap = -gap
    wins, pairs = summary["change_wins"][metric], summary["pairs"]
    met = 10 * wins >= 9 * pairs and gap > parent["iqr"] and not more_failed
    return {
        "wins": wins,
        "pairs": pairs,
        "median_gap": round(gap, 6),
        "parent_iqr": parent["iqr"],
        "more_failed": list(more_failed),
        "verdict": "met" if met else "not met",
    }


def worse_than_bound(results: dict, metrics: list[dict]) -> list[dict]:
    """Every workload and metric whose change median is worse than the
    parent's by more than the metric's ``bound``, a fraction of the
    parent's median, as ``BENCHMARK.json`` gives it."""
    flags = []
    for workload, summary in results.items():
        for metric in metrics:
            name = metric["name"]
            parent = summary[name]["parent"]["median"]
            change = summary[name]["change"]["median"]
            worse = parent - change if metric["better"] == "higher" else change - parent
            if parent and worse / abs(parent) > metric["bound"]:
                flags.append({
                    "workload": workload, "metric": name, "parent": parent, "change": change,
                    "worse_by": round(worse / abs(parent), 6), "bound": metric["bound"],
                })
    return flags


def unresolved(results: dict, metrics: list[dict]) -> list[dict]:
    """Every workload and metric whose parent IQR is wider than the
    metric's ``bound``, a fraction of the parent's median, unless every
    change run reads better than every parent run.  Within that spread a
    change of up to the bound cannot be told from noise, so the metric is
    reported as unresolved, not as unchanged."""
    flags = []
    for workload, summary in results.items():
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent, change = summary[name]["parent"], summary[name]["change"]
            if parent["iqr"] <= metric["bound"] * abs(parent["median"]):
                continue
            if min(sign * v for v in change["runs"]) > max(sign * v for v in parent["runs"]):
                continue
            flags.append({
                "workload": workload, "metric": name, "parent_median": parent["median"],
                "parent_iqr": parent["iqr"], "bound": metric["bound"],
            })
    return flags


def parse_args(argv, spec: dict):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 2)[2],
    )
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--change", required=True, help="the commit under test")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1700, help="the first pair's seed")
    parser.add_argument(
        "--claim", help="WORKLOAD:METRIC, recorded and judged at the end; needs 10 or more pairs"
    )
    parser.add_argument("--work-dir", type=Path, help="default: a new temporary directory")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the quartiles")
    names = [w["name"] for w in spec["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"--workloads: not in BENCHMARK.json: {', '.join(unknown)}")
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workloads:
            parser.error(f"--claim: {workload!r} is not among the workloads run")
        if metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim: {metric!r} is not an end-to-end metric")
        if args.pairs < 10:
            parser.error("--claim needs at least 10 --pairs")
        args.claim = (workload, metric)
    return args


def made_by(args) -> str:
    """The command that repeats this comparison, every default spelled out;
    the work directory, which holds no result, is left out."""
    command = [
        "python3", "scripts/bench_pairs.py", "--parent", args.parent, "--change",
        args.change, "--label", args.label, "--workloads", ",".join(args.workloads),
        "--pairs", str(args.pairs), "--seed", str(args.seed),
    ]
    if args.claim:
        command += ["--claim", ":".join(args.claim)]
    return shlex.join(command)


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    revs = {
        side: git("rev-parse", rev).decode().strip()
        for side, rev in zip(SIDES, (args.parent, args.change))
    }
    work = args.work_dir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    work.mkdir(parents=True, exist_ok=True)
    log = work / "runs.jsonl"
    print(f"checkouts and {log.name} in {work}", file=sys.stderr)

    results, layout = {}, None
    for w, workload in enumerate(args.workloads):
        pairs = []
        for i in range(args.pairs):
            parent_dir = "A" if i < args.pairs // 2 else "B"
            change_dir = "B" if parent_dir == "A" else "A"
            dirs = {"parent": work / parent_dir, "change": work / change_dir}
            if layout != parent_dir:
                for side in SIDES:
                    unpack(revs[side], dirs[side])
                layout = parent_dir
            seed = args.seed + 20 * w + i
            first = SIDES[i % 2]
            pair = {"seed": seed, "first": first, "parent_dir": parent_dir}
            for side in (first, SIDES[1 - i % 2]):
                pair[side] = run_bench(dirs[side], workload, seed, seconds)
                record = {"workload": workload, "pair": i, "side": side, "seed": seed}
                with log.open("a") as handle:
                    handle.write(json.dumps({**record, "result": pair[side]}) + "\n")
                values = {m: v["value"] for m, v in pair[side]["metrics"].items()}
                print(f"{workload} pair {i} {side}: {values}", file=sys.stderr)
            pairs.append(pair)
        results[workload] = summarize(pairs, metrics)

    report = {
        "stamp": {
            "date": datetime.date.today().isoformat(),
            "host": f"{os.cpu_count()}-core {platform.system()} {platform.machine()}",
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "parent": revs["parent"],
            "change": revs["change"],
            "src_lines_parent": src_lines(revs["parent"]),
            "src_lines_change": src_lines(revs["change"]),
            "parent_src_tree": git("rev-parse", f"{revs['parent']}:src").decode().strip(),
            "change_src_tree": git("rev-parse", f"{revs['change']}:src").decode().strip(),
            "note": NOTE,
        },
        "made_by": made_by(args),
        "command": "python3 bench/run.py --workload <workload> --seed <seed>"
        f" --seconds {seconds:g} --trace 0",
        "protocol": f"{PROTOCOL}; {args.pairs} pairs per workload",
    }
    report["more_failed_jobs"] = more_failed_jobs(results)
    for flag in report["more_failed_jobs"]:
        print(f"more failed jobs: {flag}")
    if args.claim:
        workload, metric = args.claim
        better = next(m["better"] for m in metrics if m["name"] == metric)
        more_failed = [flag["workload"] for flag in report["more_failed_jobs"]]
        verdict = claim_verdict(results[workload], metric, better, more_failed)
        report["claim"] = {"workload": workload, "metric": metric, **verdict}
        print(f"claim {workload}:{metric} {verdict}")
    report["worse_than_bound"] = worse_than_bound(results, metrics)
    for flag in report["worse_than_bound"]:
        print(f"worse than bound: {flag}")
    report["unresolved"] = unresolved(results, metrics)
    for flag in report["unresolved"]:
        print(f"unresolved: {flag}")
    report["workloads"] = results
    out = REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
