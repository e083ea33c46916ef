import contextlib
import hashlib
import io
import itertools
import math
import os
import re
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import brentq

from partial_eraser import DomainError, montecarlo
from partial_eraser.cli import CHART_IDS, ChartRequest, GridSpec, main
from partial_eraser.config import SEED_ENV_VAR
from partial_eraser.inequality import inequality_margin
from partial_eraser.montecarlo import _CHUNK, trial_uniforms

from conftest import run_python


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

# An equal measurement on the other photon's other branch erases the first
# exactly: every survivor agrees, but the summed prediction reads
# 0.99999999999999978.
EXACT_ERASURE = """
preparation = epr
trials = 20000
seed = 5
final_axis = x
op = A,x,plus,0.3
op = B,x,minus,0.3
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

# As ZERO_SURVIVAL, but the first detector set leaves 1e-40 of the
# intensity on the up branch: the second set's click probability rounds to 1.
ROUNDED_ZERO_SURVIVAL = ZERO_SURVIVAL.replace("A,x,plus,0", "A,x,plus,1e-40")

def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert fragment in err


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["run", "--trials", "abc"], "invalid int value"),
            (["run", "exp.cfg"], "--output"),
            (
                ["chart", "angle_vs_alpha", "--min", "-inf", "--output", "x"],
                "grid bounds must be finite",
            ),
            (
                ["chart", "angle_vs_alpha", "--min", "-1e-3", "--scale", "log", "--output", "x"],
                "log grids need a positive lower bound",
            ),
            (
                ["chart", "angle_vs_alpha", "--max", "-1E-3", "--output", "x"],
                "grid needs low < high",
            ),
            (["no-such-command"], "invalid choice"),
        ],
        ids=[
            "trials-abc",
            "run-without-output",
            "bare-minus-inf",
            "bare-minus-exponent-low",
            "bare-minus-exponent-high",
            "unknown-command",
        ],
    )
    def test_one_line_error(self, capsys, argv, fragment):
        # argparse exits from inside main; the checks after parsing return
        # the exit code, as they do for bounds written --min=-inf
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert_one_line_error(capsys, fragment)


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
        from partial_eraser.cli import ChartRequest, chart_table

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
        "chart_id, low, high, steps",
        [
            ("angle_vs_alpha", 0.0, 1.0, 101),
            ("uncertainty_vs_alpha", 0.0, 1.0, 101),
            ("epr_parts_vs_alpha", 0.0, 1.0, 101),
            ("inequality_deltas_vs_rho", 1.0, 20.0, 200),
        ],
    )
    def test_each_chart_has_its_default_grid(self, tmp_path, chart_id, low, high, steps):
        out = tmp_path / "chart.csv"
        assert main(["chart", chart_id, "--output", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == steps
        assert (rows[0][0], rows[-1][0]) == pytest.approx((low, high), abs=1e-12)

    def test_unset_grid_options_take_the_charts_values(self, tmp_path):
        out = tmp_path / "ineq.csv"
        argv = ["chart", "inequality_deltas_vs_rho", "--steps", "3", "--output", str(out)]
        assert main(argv) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows] == pytest.approx([1.0, math.sqrt(20.0), 20.0])

    def test_inequality_chart_up_to_huge_ratio(self, tmp_path):
        out = tmp_path / "ineq.csv"
        assert main(
            [
                "chart", "inequality_deltas_vs_rho",
                "--min", "1", "--max", "1e300", "--steps", "101", "--scale", "log",
                "--output", str(out),
            ]
        ) == 0
        _, rows = read_rows(out)
        assert len(rows) == 101 and all(math.isfinite(v) for row in rows for v in row)
        assert rows[-1][1:] == pytest.approx([1.0, 0.5, -0.5], abs=1e-12)

    def test_grid_too_large_for_memory_is_config_error(self, tmp_path, capsys, monkeypatch):
        from partial_eraser import cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli.np, "linspace", no_memory)
        out = tmp_path / "c.csv"
        argv = ["chart", "angle_vs_alpha", "--steps", "100000000000", "--output", str(out)]
        assert main(argv) == 2
        assert_one_line_error(capsys, "100000000000 grid steps do not fit in memory")
        assert not out.exists()

    @pytest.mark.parametrize("steps", [2.5, 7.0, True, "7", None])
    def test_grid_steps_are_integers(self, steps):
        with pytest.raises(DomainError, match="grid steps must be an integer"):
            GridSpec(0.0, 1.0, steps)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GridSpec(0.0, 1.0, 1), "grid steps must be >= 2, got 1"),
            (lambda: GridSpec(0.0, 1.0, -3), "grid steps must be >= 2, got -3"),
            (lambda: GridSpec(0.0, 1.0, 5, "cubic"), "unknown grid scale 'cubic'"),
            (lambda: ChartRequest("pie", GridSpec(0.0, 1.0, 2)), "unknown chart 'pie'"),
        ],
    )
    def test_grid_and_chart_errors(self, build, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build()

    def test_numpy_integer_grid_steps(self):
        grid = GridSpec(0.0, 1.0, np.int64(3))
        assert type(grid.steps) is int and grid == GridSpec(0.0, 1.0, 3)
        assert grid.points() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--min", "0", "--max", "inf"],
            ["--min=-inf", "--max", "1"],
            ["--min", "nan", "--max", "1"],
            ["--min", "1", "--max", "inf", "--scale", "log"],
            ["--min", "0", "--max", "-Infinity"],
            ["--min", "-nan", "--max", "1"],
            # finite bounds whose linear grid numpy cannot lay out finitely
            ["--min", "-1e308", "--max", "1e308", "--steps", "3"],
            ["--min", "-1.7976931348623157e308", "--max", "1.7976931348623157e308"],
        ],
    )
    def test_non_finite_grid_is_config_error(self, tmp_path, capsys, bounds):
        out = tmp_path / "o.csv"
        assert main(["chart", "angle_vs_alpha", *bounds, "--output", str(out)]) == 2
        assert_one_line_error(capsys, "finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["inequality_deltas_vs_rho", "--scale", "linear", "--steps", "7",
              "--min", "-1.7976931348623157e308", "--max", "1e154"], 2),
            (["inequality_deltas_vs_rho", "--scale", "log", "--steps", "7",
              "--min", "1e-320", "--max", "1.7976931348623157e308"], 0),
        ],
    )
    def test_grid_near_the_float_range_warns_nothing(self, tmp_path, capsys, argv, code):
        """numpy overflows inside these grids; the command still prints
        only its own result or one ``error:`` line."""
        out = tmp_path / "o.csv"
        assert main(["chart", *argv, "--output", str(out)]) == code
        if code:
            assert_one_line_error(capsys, "rho must be positive and finite")
        else:
            assert capsys.readouterr().err == ""
            _, rows = read_rows(out)
            assert len(rows) == 7 and rows[-1][0] == 1.7976931348623157e308


# Grid bounds at the edges of the float range, where numpy's grid arithmetic
# overflows, beside the charts' own bounds.
GRID_BOUNDS = [0.0, -0.0, 1.0, 20.0] + [
    sign * x for x in (5e-324, 1e-320, 1e154, 1e308, 1.7976931348623157e308) for sign in (1, -1)
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CHART_IDS),
    st.sampled_from(["linear", "log"]),
    st.integers(2, 300),
    st.sampled_from(GRID_BOUNDS),
    st.sampled_from(GRID_BOUNDS),
)
def test_chart_grids_exit_cleanly(chart_id, scale, steps, low, high):
    """Every chart grid either writes its rows with nothing on stderr and
    exit 0, or prints one ``error:`` line and exits 2."""
    argv = ["chart", chart_id, "--scale", scale, "--steps", str(steps),
            "--min", repr(low), "--max", repr(high), "--output", os.devnull]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2 and err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("error: ")


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

    def test_exact_erasure_passes_gate_with_zero_z(self, tmp_path):
        config = write_config(tmp_path, EXACT_ERASURE)
        out = tmp_path / "stats.csv"
        assert main(["run", str(config), "--output", str(out), "--gate", "4"]) == 0
        header, rows = read_rows(out)
        stats = dict(zip(header, rows[0]))
        assert stats["surviving"] == stats["agreement_count"] == 6033
        assert stats["std_error"] == 0.0 and stats["analytic_prediction"] != 1.0
        assert stats["z_score"] == 0.0

    def test_more_trials_than_the_stream_is_config_error(self, tmp_path):
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "stats.csv"
        argv = ["run", str(config), "--output", str(out), "--trials", str(2**64 + 1)]
        result = run_python(["-m", "partial_eraser.cli", *argv], cwd=tmp_path, timeout=30)
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1
        assert result.stderr == f"error: trials must be <= {2**64}, got {2**64 + 1}\n"
        assert not out.exists()

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

    def test_zero_survival_plan_is_config_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "s.csv"
        chunks, draws = montecarlo._uniform_chunks, []

        def recorded(master_seed, trials):
            draws.append(trials)
            return chunks(master_seed, trials)

        monkeypatch.setattr(montecarlo, "_uniform_chunks", recorded)
        for text, flags in itertools.product(
            [ZERO_SURVIVAL, ROUNDED_ZERO_SURVIVAL], [[], ["--log-trials"], ["--gate", "4"]]
        ):
            config = write_config(tmp_path, text)
            assert main(["run", str(config), "--output", str(out), *flags]) == 2
            assert_one_line_error(capsys, "no-click impossible")
            # The prediction comes before the first draw and the log file.
            assert draws == []
            assert not out.exists() and not (tmp_path / "s.csv.trials.csv").exists()
        # The patched seam is where a run draws: a plan with survivors reaches it.
        config = write_config(tmp_path, EPR_HALF)
        assert main(["run", str(config), "--output", str(out), "--trials", "10"]) == 0
        assert draws == [10]

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

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"preparation = epr\n\xff\xfe bad\n")
        assert main(["run", str(config), "--output", str(tmp_path / "s.csv")]) == 2
        assert_one_line_error(capsys, "line 2: not UTF-8 text")

    def test_zero_trials_in_config_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, EPR_HALF.replace("trials = 20000", "trials = 0"))
        assert main(["run", str(config), "--output", str(tmp_path / "s.csv")]) == 2
        assert_one_line_error(capsys, "trials must be >= 1")

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(
            ["run", str(tmp_path / "absent.cfg"), "--output", str(tmp_path / "s.csv")]
        ) == 4

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = write_config(tmp_path, EMPTY_PLAN)
        assert main(
            ["run", str(config), "--output", str(tmp_path / "no" / "dir" / "s.csv")]
        ) == 4

    def test_unwritable_output_leaves_no_trial_log(self, tmp_path, capsys):
        """The trial log streams to its file during the run and ``--output``
        is written after it; where ``--output`` cannot be written, the run
        exits 4 with one error line and leaves no trial log behind."""
        config = write_config(tmp_path, EPR_HALF)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["run", str(config), "--output", str(out), "--trials", "100", "--log-trials"]
        assert main(argv) == 4
        assert_one_line_error(capsys, "Is a directory")
        assert sorted(path.name for path in tmp_path.iterdir()) == [config.name, "out"]
        assert list(out.iterdir()) == []

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

    def test_logged_run_draws_each_chunk_once(self, tmp_path, monkeypatch):
        """A logged run seeds one stream and draws each chunk from it once,
        the doubles that ``trial_uniforms`` gives for the chunk's range."""
        chunks, streams, ranges = montecarlo._uniform_chunks, [], []

        def counted(master_seed, trials):
            streams.append(master_seed)
            for start, u in chunks(master_seed, trials):
                stop = start + len(u)
                assert u.tobytes() == trial_uniforms(master_seed, start, stop).tobytes()
                ranges.append((start, stop))
                yield start, u

        monkeypatch.setattr(montecarlo, "_uniform_chunks", counted)
        config = write_config(tmp_path, ERASURE)
        trials = 3 * _CHUNK + 77
        assert main(
            ["run", str(config), "--output", str(tmp_path / "s.csv"), "--trials", str(trials),
             "--log-trials"]
        ) == 0
        assert len(streams) == 1
        assert ranges == [(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK)]

    def test_outputs_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, ERASURE)
        argv = ["--trials", str(3 * _CHUNK + 77), "--log-trials"]
        outputs = []
        for chunk in (_CHUNK, 1000):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}.csv"
            assert main(["run", str(config), "--output", str(out), *argv]) == 0
            outputs.append((out.read_bytes(), (tmp_path / f"{out.name}.trials.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_log_does_not_depend_on_chunk_edges_at_powers_of_ten(self, tmp_path, monkeypatch):
        """Prime chunk sizes put chunk edges off the index-width changes at
        10, 100, 1,000 and 10,000, so chunks straddle each of them."""
        config = write_config(tmp_path, "preparation = single:plus\nseed = 8\ncascade = A,plus,50\n")
        logs = []
        for chunk in (_CHUNK, 7, 997, 4099):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}.csv"
            assert main(["run", str(config), "--output", str(out), "--trials", "10050",
                         "--log-trials"]) == 0
            logs.append((tmp_path / f"{out.name}.trials.csv").read_bytes())
        assert logs[0].count(b"\n") == 10051
        assert logs[1:] == logs[:1] * 3

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

    def test_tolerance_below_float_spacing(self, tmp_path):
        argv = ["inequality-scan", "--tolerance", "1e-16", "--output", str(tmp_path / "c.csv")]
        result = run_python(["-m", "partial_eraser.cli", *argv], cwd=tmp_path, timeout=30)
        assert result.returncode == 0, result.stderr


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
            (
                ["--detectors", "-1", "--trials", "1000", "--seed", "1"],
                "n_detectors must be >= 0, got -1",
            ),
            (["--detectors", "5", "--n-beams", "3"], "n_detectors must be <= 3, got 5"),
        ],
    )
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "demo.csv"
        assert main(["cascade-demo", *flags, "--output", str(out)]) == 2
        assert_one_line_error(capsys, fragment)
        assert not out.exists()

    def test_unwritable_output_prints_no_result(self, tmp_path, capsys):
        """The CSV is written before the result line is printed, as ``run``
        does: a failed write leaves stdout empty and one ``error:`` line."""
        out = tmp_path / "no" / "dir" / "demo.csv"
        assert main(["cascade-demo", "--trials", "10", "--output", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err

    def test_demo_folds_the_plan_once(self, monkeypatch, capsys):
        """The counts and the analytic survival share one fold."""
        algebra, folds = montecarlo._algebra, []

        def counted(preparation):
            folds.append(preparation)
            return algebra(preparation)

        # Only a config's fold and the event tree start from ``_algebra``.
        monkeypatch.setattr(montecarlo, "_algebra", counted)
        assert main(["cascade-demo", "--detectors", "3", "--erase", "--trials", "100"]) == 0
        assert folds == [montecarlo.Preparation.single()]

    def test_demo_reproducible(self, capsys):
        args = ["cascade-demo", "--detectors", "3", "--trials", "5000", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


def test_one_process_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    """``main`` parses with one parser per process; no value of one call
    reaches the next, so each call gives a fresh process's bytes."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    for directory in (shared, fresh):
        directory.mkdir()
        write_config(directory, EPR_HALF)
    commands = [
        "run exp.cfg --output run1.csv --trials 2000 --log-trials",
        "run exp.cfg --trials abc",
        "chart epr_parts_vs_alpha --steps 11 --output chart.csv",
        "cascade-demo --detectors 3 --erase --trials 2000 --seed 9 --output demo.csv",
        "run exp.cfg --output run2.csv --trials 2000 --seed 5",
        "run exp.cfg --output run3.csv --trials 2000",
    ]
    monkeypatch.chdir(shared)
    codes = []
    for command in commands:
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        result = run_python(["-m", "partial_eraser.cli", *command.split()], cwd=fresh)
        assert (code, captured.out, captured.err) == (
            result.returncode, result.stdout, result.stderr
        ), command
        codes.append(code)
        if code:
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert codes == [0, 2, 0, 0, 0, 0]
    assert sorted(os.listdir(shared)) == sorted(os.listdir(fresh))
    for name in os.listdir(shared):
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name
    # the last run takes the config's seed, not the --seed 5 before it
    assert (shared / "run3.csv").read_bytes() == (shared / "run1.csv").read_bytes()
    assert (shared / "run2.csv").read_bytes() != (shared / "run1.csv").read_bytes()


# sha256 of the summary and --log-trials CSVs of each shipped config at
# 2,000 trials.  A change that alters any fixed-seed output byte fails here.
GOLDEN_DIGESTS = {
    "empty_plan.cfg": (
        "da94262527472d848f96d930e8ab496fa895c684c66e3fdf09225890d9e55e0f",
        "bd73a6cd0699e13d8cd5997882a14e559fe2799aa85a9eb2935ad91d15d720a1",
    ),
    "epr_k05.cfg": (
        "dc458d67ad7ecd3d55971e332ad94c6030f65c6f94f2d4dc990322ea3574c101",
        "6892da32a42f47f0be6a97429b359f7d99e2d9ae54c311ec4004ac8e335f15f1",
    ),
    "erasure.cfg": (
        "62a828db77968b3ada2554a6870c1d129bbfbcdbd8abcf368dd5c183b7551479",
        "00b30638982a487ba43e7ffc0265aa8b0a46c5efebf245cfb60486f7ef0e31ce",
    ),
    "single_half.cfg": (
        "aafd9aa360c87c1626e9027ac680dca5a8ac08dbe808e72234455f4159c766b8",
        "558064a75a6314de5e830fdc4d4fe35e7a1a19e5aaac722db7cc976a898fe396",
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


# sha256 of every subcommand's output but ``run`` (GOLDEN_DIGESTS pins
# that): for each command line, its exit code, stdout and stderr, then the
# bytes of the CSV it writes, if any.  Run from the output directory, so
# stdout names the file the same way each time.
CLI_DIGESTS = {
    "chart angle_vs_alpha": (
        "0f08d12ada5d3f5c1fd6f6b51bc01371e1bb12b7676140a890111e09ce6f861b"
    ),
    "chart uncertainty_vs_alpha": (
        "dad351aa04b2ec15ddf3be64d76a8b15e20c5f990fab06c0c85a2568a056475a"
    ),
    "chart epr_parts_vs_alpha": (
        "e99f6f2dc04da1cfad4ac75a240afe1c5137e6bf0061961deb747fc3178e8811"
    ),
    # The bare rho chart takes its own default grid, so its bytes are those
    # of the explicit 1 to 20, 200-step log grid below.
    "chart inequality_deltas_vs_rho": (
        "58958fba5182f20e645ec82dbeb4e67221b8b534575782a781e2a152955548a5"
    ),
    "chart inequality_deltas_vs_rho --min 1 --max 20 --steps 200 --scale log": (
        "58958fba5182f20e645ec82dbeb4e67221b8b534575782a781e2a152955548a5"
    ),
    "inequality-scan": (
        "2f9c38058583be749818be4cbe6bd8bae008cce1d53440d28aaff1a9562c59bf"
    ),
    "cascade-demo --detectors 3 --trials 5000 --seed 9": (
        "82b38f76719fa064e8138967ceb0108ac708f248cac6553da2104c78316edb49"
    ),
    "cascade-demo --detectors 50 --erase --trials 5000 --seed 9": (
        "d46475c117a68f4485c2de3f16c42fc59680e7aa1fbbd0e76398ee507cc65289"
    ),
}


def cli_output_digest(command, directory, capsys):
    code = main([*command.split(), "--output", "out.csv"])
    captured = capsys.readouterr()
    out = directory / "out.csv"
    written = out.read_bytes() if out.exists() else b""
    text = f"{code}\0{captured.out}\0{captured.err}\0".encode()
    return hashlib.sha256(text + written).hexdigest()


@pytest.mark.parametrize("command", list(CLI_DIGESTS))
def test_cli_bytes_pinned(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli_output_digest(command, tmp_path, capsys) == CLI_DIGESTS[command]
