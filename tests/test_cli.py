import hashlib
import math
import os
import tracemalloc

import pytest
from scipy.optimize import brentq

from partial_eraser.cli import main
from partial_eraser.config import SEED_ENV_VAR
from partial_eraser.inequality import inequality_margin
from partial_eraser.montecarlo import _CHUNK


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) if x else math.nan for x in line.split(",")] for line in lines[1:]]
    return header, rows


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path

EPR_HALF = """
preparation = epr
trials = 20000
seed = 42
final_axis = y
op = A,x,plus,0.5
"""

ERASURE = """
preparation = epr
trials = 20000
seed = 42
final_axis = y
op = A,x,plus,0.5
op = B,x,minus,0.5
"""

EMPTY_PLAN = """
preparation = epr
trials = 5000
seed = 7
"""

# The first detector set leaves only the right branch, the second one
# measures all of it, so no trial survives both.
ZERO_SURVIVAL = """
preparation = single:plus
trials = 500
seed = 3
op = A,x,plus,0
op = A,x,minus,0
"""


def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert fragment in err


class TestChart:
    def test_angle_chart_endpoints(self, tmp_path):
        out = tmp_path / "angle.csv"
        assert main(["chart", "angle_vs_alpha", "--steps", "101", "--output", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["alpha", "theta_deg"]
        assert len(rows) == 101
        assert rows[0] == [0.0, 0.0]
        assert rows[-1][0] == 1.0
        assert rows[-1][1] == pytest.approx(45.0, abs=1e-12)

    def test_uncertainty_chart(self, tmp_path):
        out = tmp_path / "spreads.csv"
        assert main(["chart", "uncertainty_vs_alpha", "--output", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["alpha", "delta_px", "delta_py"]
        assert rows[0][1:] == [0.0, 1.0]
        assert rows[-1][1:] == [1.0, 0.0]

    def test_epr_parts_chart_midpoint(self, tmp_path):
        out = tmp_path / "parts.csv"
        assert main(
            ["chart", "epr_parts_vs_alpha", "--steps", "3", "--output", str(out)]
        ) == 0
        _, rows = read_rows(out)
        assert rows[1][0] == 0.5
        assert rows[1][1] == pytest.approx(0.85355, abs=5e-6)
        assert rows[1][2] == pytest.approx(0.14645, abs=5e-6)

    def test_inequality_chart_margin_signs(self, tmp_path):
        out = tmp_path / "ineq.csv"
        assert main(
            [
                "chart", "inequality_deltas_vs_rho",
                "--min", "1", "--max", "20", "--steps", "200", "--scale", "log",
                "--output", str(out),
            ]
        ) == 0
        header, rows = read_rows(out)
        assert header == ["rho", "delta_ab_plus_bc", "delta_ac", "margin"]
        near_two = [r for r in rows if 1.9 <= r[0] <= 2.1]
        near_fifteen = [r for r in rows if 14.0 <= r[0] <= 16.0]
        assert near_two and all(r[3] > 0 for r in near_two)
        assert near_fifteen and all(r[3] < 0 for r in near_fifteen)

    def test_chart_bytes_are_stable(self, tmp_path):
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (one, two):
            main(["chart", "angle_vs_alpha", "--output", str(out)])
        assert one.read_bytes() == two.read_bytes()

    def test_csv_dialect(self, tmp_path):
        out = tmp_path / "angle.csv"
        main(["chart", "angle_vs_alpha", "--steps", "7", "--output", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        # 17 significant digits survive a float round trip bit for bit
        from partial_eraser.cli import ChartRequest, GridSpec, chart_table

        _, expected = chart_table(ChartRequest("angle_vs_alpha", GridSpec(0.0, 1.0, 7)))
        _, rows = read_rows(out)
        assert rows == expected
        # and the angle is atan of the amplitude ratio sqrt(alpha)
        assert rows[1][1] == pytest.approx(
            math.degrees(math.atan(math.sqrt(1 / 6))), abs=1e-12
        )

    def test_bad_grid_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(
            ["chart", "angle_vs_alpha", "--min", "1", "--max", "0", "--output", str(out)]
        ) == 2
        assert main(
            [
                "chart", "inequality_deltas_vs_rho",
                "--min", "0", "--max", "2", "--scale", "log", "--output", str(out),
            ]
        ) == 2

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--min", "0", "--max", "inf"],
            ["--min=-inf", "--max", "1"],
            ["--min", "nan", "--max", "1"],
            ["--min", "1", "--max", "inf", "--scale", "log"],
        ],
    )
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, bounds):
        out = tmp_path / "o.csv"
        assert main(["chart", "angle_vs_alpha", *bounds, "--output", str(out)]) == 2
        assert_one_line_error(capsys, "finite")
        assert not out.exists()


class TestRun:
    def test_golden_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        summary = capsys.readouterr().out.strip()
        assert "predicted=0.9714" in summary
        assert summary.startswith("agreement=")
        header, rows = read_rows(out)
        assert header[:4] == ["total", "clicked", "surviving", "agreement_count"]
        assert rows[0][0] == 20000

    def test_empty_plan_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, EMPTY_PLAN)
        out = tmp_path / "stats.csv"
        assert main(["run", str(config), "--output", str(out)]) == 0
        summary = capsys.readouterr().out.strip()
        assert "agreement=1.0000" in summary
        assert "z=0.0" in summary

    def test_erasure_with_gate(self, tmp_path):
        config = write_config(tmp_path, ERASURE)
        out = tmp_path / "stats.csv"
        assert main(["run", str(config), "--output", str(out), "--gate", "4"]) == 0

    def test_gate_failure_exit_code(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        assert main(
            ["run", str(config), "--output", str(out), "--gate", "1e-12"]
        ) == 3

    @pytest.mark.parametrize("gate", ["nan", "inf", "-1"])
    def test_bad_gate_is_config_error(self, tmp_path, capsys, gate):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        assert main(["run", str(config), "--output", str(out), "--gate", gate]) == 2
        assert_one_line_error(capsys, "gate")
        assert not out.exists()

    def test_zero_survival_plan_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, ZERO_SURVIVAL)
        out = tmp_path / "s.csv"
        for flags in ([], ["--log-trials"]):
            assert main(["run", str(config), "--output", str(out), *flags]) == 2
            assert_one_line_error(capsys, "no-click impossible")
            # The summary runs first, so a plan that raises writes no log.
            assert not out.exists() and not (tmp_path / "s.csv.trials.csv").exists()

    @pytest.mark.parametrize("line", ["mode = normalized", "counter_from = 1"])
    def test_removed_config_keys_rejected(self, tmp_path, capsys, line):
        config = write_config(tmp_path, EPR_HALF + line + "\n")
        assert main(["run", str(config), "--output", str(tmp_path / "s.csv")]) == 2
        assert_one_line_error(capsys, "unknown key")

    def test_removed_mode_flag_rejected(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", str(config), "--output", str(tmp_path / "s.csv"),
                 "--mode", "normalized"]
            )
        assert exc.value.code == 2

    def test_config_error_exit_code(self, tmp_path):
        config = write_config(tmp_path, "trials = 10\n")
        assert main(["run", str(config), "--output", str(tmp_path / "s.csv")]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(
            ["run", str(tmp_path / "absent.cfg"), "--output", str(tmp_path / "s.csv")]
        ) == 4

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = write_config(tmp_path, EMPTY_PLAN)
        assert main(
            ["run", str(config), "--output", str(tmp_path / "no" / "dir" / "s.csv")]
        ) == 4

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["run", str(config), "--output", str(one), "--trials", "4000"]) == 0
        assert main(["run", str(config), "--output", str(two), "--trials", "4000"]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_trial_log(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        assert main(
            ["run", str(config), "--output", str(out), "--trials", "500", "--log-trials"]
        ) == 0
        log = tmp_path / "stats.csv.trials.csv"
        lines = log.read_text().splitlines()
        assert lines[0] == "trial,click_step,detector,result_a,result_b,agreement"
        assert len(lines) == 501

    def test_trial_log_across_chunks_matches_summary(self, tmp_path):
        config = write_config(tmp_path, ERASURE)
        out = tmp_path / "stats.csv"
        trials = 3 * _CHUNK + 77
        assert main(
            ["run", str(config), "--output", str(out), "--trials", str(trials), "--log-trials"]
        ) == 0
        _, summary = read_rows(out)
        total, clicked, surviving, agreeing = summary[0][:4]
        lines = (tmp_path / "stats.csv.trials.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        assert [int(row[0]) for row in rows] == list(range(trials)) and total == trials
        assert sum(row[1] != "" for row in rows) == clicked
        assert sum(row[5] == "1" for row in rows) == agreeing
        assert sum(row[5] != "" for row in rows) == surviving

    def test_trial_log_memory_is_bounded(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        tracemalloc.start()
        try:
            code = main(
                ["run", str(config), "--output", str(out), "--trials", "200000", "--log-trials"]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        # Holding all 200k records at once takes tens of megabytes.
        assert peak < 8 * 2**20, peak

    def test_seed_override_changes_counts(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        main(["run", str(config), "--output", str(one), "--trials", "4000"])
        main(["run", str(config), "--output", str(two), "--trials", "4000", "--seed", "5"])
        assert one.read_bytes() != two.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, "preparation = epr\ntrials = 2000\nop = A,x,plus,0.5\n")
        env_out, flag_out = tmp_path / "env.csv", tmp_path / "flag.csv"
        monkeypatch.setenv(SEED_ENV_VAR, "31")
        assert main(["run", str(config), "--output", str(env_out)]) == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(["run", str(config), "--output", str(flag_out), "--seed", "31"]) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()


class TestInequalityScan:
    def test_prints_boundary_and_writes_chart(self, tmp_path, capsys):
        out = tmp_path / "chart4.csv"
        assert main(["inequality-scan", "--tolerance", "1e-6", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "margin at rho=1: 0" in printed
        boundary = float(printed.strip().splitlines()[-1].split("<")[-1])
        oracle = brentq(inequality_margin, 8.0, 9.0, xtol=1e-12)
        assert boundary == pytest.approx(oracle, abs=1e-5)
        header, rows = read_rows(out)
        assert header == ["rho", "delta_ab_plus_bc", "delta_ac", "margin"]
        assert len(rows) == 200

    def test_bad_tolerance(self, tmp_path, capsys):
        for tolerance in ("-1", "nan", "inf"):
            assert main(
                [
                    "inequality-scan", "--tolerance", tolerance,
                    "--output", str(tmp_path / "c.csv"),
                ]
            ) == 2, tolerance
            assert_one_line_error(capsys, "tolerance")

    def test_bracketing_failure_exit_code(self, tmp_path, monkeypatch):
        from partial_eraser import cli
        from partial_eraser.errors import ConvergenceFailure

        def broken(tolerance):
            raise ConvergenceFailure("no sign change")

        monkeypatch.setattr(cli, "violation_region", broken)
        assert main(
            ["inequality-scan", "--output", str(tmp_path / "c.csv")]
        ) == 5


class TestCascadeDemo:
    def test_single_detector_demo(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        assert main(
            [
                "cascade-demo", "--detectors", "1", "--trials", "20000",
                "--seed", "4", "--output", str(out),
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "analytic=0.99500" in printed
        _, rows = read_rows(out)
        empirical, analytic = rows[0][6], rows[0][7]
        sigma = math.sqrt(0.995 * 0.005 / 20000)
        assert abs(empirical - analytic) < 4 * sigma

    def test_erasure_demo_survival(self, capsys):
        assert main(
            ["cascade-demo", "--detectors", "50", "--erase", "--trials", "20000", "--seed", "4"]
        ) == 0
        printed = capsys.readouterr().out
        assert "analytic=0.50000" in printed
        empirical = float(printed.split("survival=")[1].split()[0])
        assert abs(empirical - 0.5) < 4 * math.sqrt(0.25 / 20000)

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--seed", "-1"], "master_seed"),
            (["--trials", "0"], "trials"),
            (["--trials", "-5"], "trials"),
            (["--detectors", "-1", "--trials", "1000", "--seed", "1"], "n_detectors must lie in"),
            (["--detectors", "5", "--n-beams", "3"], "n_detectors must lie in"),
        ],
    )
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "demo.csv"
        assert main(["cascade-demo", *flags, "--output", str(out)]) == 2
        assert_one_line_error(capsys, fragment)
        assert not out.exists()

    def test_demo_reproducible(self, capsys):
        args = ["cascade-demo", "--detectors", "3", "--trials", "5000", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


# sha256 of the summary and --log-trials CSVs of each shipped config at
# 2,000 trials.  A change that alters any fixed-seed output byte fails here.
GOLDEN_DIGESTS = {
    "empty_plan.cfg": (
        "da94262527472d848f96d930e8ab496fa895c684c66e3fdf09225890d9e55e0f",
        "5645df2277ff9732473414c9817df532bb48818e0c408374ec1f041d9d8ceb52",
    ),
    "epr_k05.cfg": (
        "ba0bdd14455bed797ca954054c035c1cd75c7472e4adc0152cd965e4c0375f1b",
        "802bb7bf0e15fcdcfec39759c3119ec4e4c834d44bcca71e403d65fe9708b316",
    ),
    "erasure.cfg": (
        "07b5da146b7dbf6a0f19613fc82c336fc77aca9d8dff0b6267d108bfafbe9ed1",
        "d99afe1038e3e795a8a1334167b233f668ab58a36ef81a7441081a0a9c1f01f3",
    ),
    "single_half.cfg": (
        "a19e8b38f0601767be52e2a713d49646111799ccbedc45825823b72b87e62c66",
        "21ef29152f7a223267ed517305856f5ef2ca2bf347a644060a859482a51b579c",
    ),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_shipped_golden_configs(tmp_path, capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = os.path.join(here, "configs")
    config = os.path.join(configs, "epr_k05.cfg")
    out = tmp_path / "golden.csv"
    assert main(["run", config, "--output", str(out), "--trials", "20000", "--gate", "4"]) == 0
    assert "predicted=0.9714" in capsys.readouterr().out

    assert sorted(os.listdir(configs)) == sorted(GOLDEN_DIGESTS)
    for name, (summary, log) in GOLDEN_DIGESTS.items():
        out = tmp_path / f"{name}.csv"
        argv = ["run", os.path.join(configs, name), "--output", str(out)]
        assert main(argv + ["--trials", "2000", "--log-trials"]) == 0
        assert sha256_of(out) == summary, name
        assert sha256_of(tmp_path / f"{name}.csv.trials.csv") == log, name
