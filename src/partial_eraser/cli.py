"""Command-line front end.

Subcommands:

    chart <id>        analytic curves as CSV (no randomness, byte stable)
    run <config>      Monte-Carlo experiment from a config file
    inequality-scan   locate the inequality violation boundary
    cascade-demo      sampled click statistics of the mirror cascade

Exit codes: 0 success, 2 bad config or arguments, 3 statistical gate
failure, 4 I/O error, 5 root-finding failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    DEFAULT_TRIALS,
    parse_experiment_file,
    resolve_config,
    resolve_seed,
)
from .epr import IntensityQuadruple, Photon, weighted_epr_track
from .errors import ConfigError, ConvergenceFailure, DomainError, PartialEraserError
from .inequality import delta_ac, delta_pair, inequality_margin, violation_region
from .measurement import PartialMeasurementOp, no_click_map
from .montecarlo import (
    CascadeStep,
    ExperimentConfig,
    Preparation,
    analytic_survival,
    count_trials,
    estimate_vs_analytic,
    run_experiment,
    trial_log,
)
from .polarization import Axis, Branch, basis_state, polarization_angle, uncertainty_spreads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_IO = 4
EXIT_CONVERGENCE = 5

CHART_IDS = (
    "angle_vs_alpha",
    "uncertainty_vs_alpha",
    "epr_parts_vs_alpha",
    "inequality_deltas_vs_rho",
)


@dataclass(frozen=True)
class GridSpec:
    low: float
    high: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise DomainError(f"grid bounds must be finite, got [{self.low}, {self.high}]")
        if self.steps < 2:
            raise DomainError(f"grid needs at least 2 steps, got {self.steps}")
        if not self.low < self.high:
            raise DomainError(f"grid needs low < high, got [{self.low}, {self.high}]")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"unknown grid scale {self.scale!r}")
        if self.scale == "log" and self.low <= 0.0:
            raise DomainError("log grids need a positive lower bound")

    def points(self) -> list[float]:
        if self.scale == "log":
            return [float(x) for x in np.geomspace(self.low, self.high, self.steps)]
        return [float(x) for x in np.linspace(self.low, self.high, self.steps)]


@dataclass(frozen=True)
class ChartRequest:
    chart_id: str
    grid: GridSpec

    def __post_init__(self) -> None:
        if self.chart_id not in CHART_IDS:
            raise DomainError(f"unknown chart {self.chart_id!r}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """Comma separated, '.' decimals, LF endings, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(
                ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


def chart_table(request: ChartRequest) -> tuple[list[str], list[list[float]]]:
    """Header and rows for one analytic chart."""
    points = request.grid.points()
    if request.chart_id == "angle_vs_alpha":
        diag = basis_state(Axis.Y, Branch.PLUS)
        rows = []
        for alpha in points:
            state = no_click_map(
                PartialMeasurementOp(Axis.X, Branch.PLUS, alpha), diag
            )
            rows.append([alpha, polarization_angle(state)])
        return ["alpha", "theta_deg"], rows
    if request.chart_id == "uncertainty_vs_alpha":
        rows = []
        for alpha in points:
            spread_x, spread_y = uncertainty_spreads(alpha)
            rows.append([alpha, spread_x, spread_y])
        return ["alpha", "delta_px", "delta_py"], rows
    if request.chart_id == "epr_parts_vs_alpha":
        rows = []
        for alpha in points:
            epr, anti = weighted_epr_track(IntensityQuadruple(alpha, 1.0, 1.0, 1.0))
            rows.append([alpha, epr, anti])
        return ["alpha", "epr_amp", "anti_epr_amp"], rows
    rows = []
    for rho in points:
        d_sum = 2.0 * delta_pair(rho)
        d_ac = delta_ac(rho)
        rows.append([rho, d_sum, d_ac, d_ac - d_sum])
    return ["rho", "delta_ab_plus_bc", "delta_ac", "margin"], rows


def cmd_chart(args) -> int:
    request = ChartRequest(
        args.chart_id, GridSpec(args.min, args.max, args.steps, args.scale)
    )
    header, rows = chart_table(request)
    write_csv(args.output, header, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.gate is not None and not 0.0 <= args.gate < math.inf:
        raise ConfigError(f"gate must be a finite number >= 0, got {args.gate!r}")
    parsed = parse_experiment_file(args.config)
    config = resolve_config(parsed, seed=args.seed, trials=args.trials)
    stats = run_experiment(config)
    if args.log_trials:
        with open(
            str(args.output) + ".trials.csv", "w", encoding="utf-8", newline="\n"
        ) as handle:
            handle.writelines(trial_log(config))
    z = estimate_vs_analytic(stats) if stats.surviving > 0 else math.nan
    write_csv(
        args.output,
        [
            "total",
            "clicked",
            "surviving",
            "agreement_count",
            "agreement_rate",
            "std_error",
            "analytic_prediction",
            "z_score",
        ],
        [
            [
                stats.total,
                stats.clicked,
                stats.surviving,
                stats.agreement_count,
                stats.agreement_rate,
                stats.std_error,
                stats.analytic_prediction,
                z,
            ]
        ],
    )
    print(
        f"agreement={stats.agreement_rate:.4f} ± {stats.std_error:.4f} "
        f"predicted={stats.analytic_prediction:.4f} z={z:.1f}"
    )
    if args.gate is not None and not (abs(z) <= args.gate):
        print(f"gate failure: |z| > {args.gate}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def cmd_inequality_scan(args) -> int:
    low, high = violation_region(args.tolerance)
    header, rows = chart_table(
        ChartRequest("inequality_deltas_vs_rho", GridSpec(1.0, 20.0, 200, "log"))
    )
    write_csv(args.output, header, rows)
    print(f"margin at rho=1: {_fmt(inequality_margin(1.0))}")
    print(f"violation region: {_fmt(low)} < rho < {_fmt(high)}")
    return EXIT_OK


def cmd_cascade_demo(args) -> int:
    n, m = args.n_beams, args.detectors
    plan = [CascadeStep(Photon.A, Branch.PLUS, m, n)]
    if args.erase:
        plan.append(CascadeStep(Photon.A, Branch.MINUS, m, n))
    config = ExperimentConfig(
        Preparation.single(Branch.PLUS), tuple(plan), Axis.Y, args.trials,
        resolve_seed(args.seed, None),
    )
    clicks, survivors, _ = count_trials(config)
    analytic = analytic_survival(config)
    empirical = survivors / args.trials
    print(
        f"trials={args.trials} clicks={clicks} survivors={survivors} "
        f"survival={empirical:.5f} analytic={analytic:.5f}"
    )
    if args.output:
        write_csv(
            args.output,
            [
                "n_beams",
                "detectors",
                "erase",
                "trials",
                "clicks",
                "survivors",
                "empirical_survival",
                "analytic_survival",
            ],
            [
                [
                    n,
                    m,
                    int(args.erase),
                    args.trials,
                    clicks,
                    survivors,
                    empirical,
                    analytic,
                ]
            ],
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partial-eraser",
        description="Partial polarization measurement and erasure simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chart = sub.add_parser("chart", help="write an analytic chart as CSV")
    chart.add_argument("chart_id", choices=CHART_IDS)
    chart.add_argument("--min", type=float, default=0.0)
    chart.add_argument("--max", type=float, default=1.0)
    chart.add_argument("--steps", type=int, default=101)
    chart.add_argument("--scale", choices=("linear", "log"), default="linear")
    chart.add_argument("--output", required=True)
    chart.set_defaults(func=cmd_chart)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("config")
    run.add_argument("--output", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--gate", type=float, default=None, metavar="SIGMA")
    run.add_argument("--log-trials", action="store_true")
    run.set_defaults(func=cmd_run)

    scan = sub.add_parser("inequality-scan", help="locate the violation boundary")
    scan.add_argument("--tolerance", type=float, default=1e-6)
    scan.add_argument("--output", required=True)
    scan.set_defaults(func=cmd_inequality_scan)

    demo = sub.add_parser("cascade-demo", help="sampled mirror-cascade statistics")
    demo.add_argument("--n-beams", type=int, default=100)
    demo.add_argument("--detectors", type=int, default=1)
    demo.add_argument("--erase", action="store_true")
    demo.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    demo.add_argument("--seed", type=int, default=None)
    demo.add_argument("--output", default=None)
    demo.set_defaults(func=cmd_cascade_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PartialEraserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
