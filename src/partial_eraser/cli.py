"""Command-line front end.

Subcommands:

    chart <id>        analytic curves as CSV (no randomness, byte stable)
    run <config>      Monte-Carlo experiment from a config file
    inequality-scan   locate the inequality violation boundary
    cascade-demo      sampled click statistics of the mirror cascade

Exit codes: 0 success, 2 bad config or arguments, 3 statistical gate
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    DEFAULT_TRIALS,
    parse_experiment_file,
    resolve_config,
    resolve_seed,
)
from .epr import IntensityQuadruple, Photon, weighted_epr_track
from .errors import ConfigError, DomainError, PartialEraserError
from .inequality import delta_ac, delta_pair, inequality_margin, violation_region
from .measurement import PartialMeasurementOp, no_click_map
from .montecarlo import (
    _DIAGONAL,
    CascadeStep,
    ExperimentConfig,
    Preparation,
    _survival,
    _walk,
    count_trials,
    estimate_vs_analytic,
    run_experiment,
)
from .polarization import Axis, Branch, _check_integer, polarization_angle, uncertainty_spreads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_IO = 4

def _angle_row(alpha: float) -> list[float]:
    state = no_click_map(PartialMeasurementOp(Axis.X, Branch.PLUS, alpha), _DIAGONAL[Branch.PLUS])
    return [alpha, polarization_angle(state)]


def _deltas_row(rho: float) -> list[float]:
    d_sum = 2.0 * delta_pair(rho)
    d_ac = delta_ac(rho)
    return [rho, d_sum, d_ac, d_ac - d_sum]


@dataclass(frozen=True)
class GridSpec:
    low: float
    high: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise DomainError(f"grid bounds must be finite, got [{self.low}, {self.high}]")
        object.__setattr__(self, "steps", _check_integer("grid steps", self.steps))
        if self.steps < 2:
            raise DomainError(f"grid needs at least 2 steps, got {self.steps}")
        if not self.low < self.high:
            raise DomainError(f"grid needs low < high, got [{self.low}, {self.high}]")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"unknown grid scale {self.scale!r}")
        if self.scale == "log" and self.low <= 0.0:
            raise DomainError("log grids need a positive lower bound")

    def points(self) -> list[float]:
        spacing = np.geomspace if self.scale == "log" else np.linspace
        try:
            return spacing(self.low, self.high, self.steps).tolist()
        except MemoryError as exc:
            raise DomainError(f"{self.steps} grid steps do not fit in memory") from exc


class _Chart(NamedTuple):
    header: list[str]
    row: Callable[[float], list[float]]  # the row at one grid point
    grid: GridSpec  # the grid when the command line leaves it unset


_ALPHA_GRID = GridSpec(0.0, 1.0, 101)
_CHARTS = {
    "angle_vs_alpha": _Chart(["alpha", "theta_deg"], _angle_row, _ALPHA_GRID),
    "uncertainty_vs_alpha": _Chart(
        ["alpha", "delta_px", "delta_py"],
        lambda alpha: [alpha, *uncertainty_spreads(alpha)],
        _ALPHA_GRID,
    ),
    "epr_parts_vs_alpha": _Chart(
        ["alpha", "epr_amp", "anti_epr_amp"],
        lambda alpha: [alpha, *weighted_epr_track(IntensityQuadruple(alpha, 1.0, 1.0, 1.0))],
        _ALPHA_GRID,
    ),
    "inequality_deltas_vs_rho": _Chart(
        ["rho", "delta_ab_plus_bc", "delta_ac", "margin"],
        _deltas_row,
        GridSpec(1.0, 20.0, 200, "log"),
    ),
}
CHART_IDS = tuple(_CHARTS)


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
    chart = _CHARTS[request.chart_id]
    return list(chart.header), [chart.row(x) for x in request.grid.points()]


def cmd_chart(args) -> int:
    given = {"low": args.min, "high": args.max, "steps": args.steps, "scale": args.scale}
    grid = replace(
        _CHARTS[args.chart_id].grid, **{k: v for k, v in given.items() if v is not None}
    )
    request = ChartRequest(args.chart_id, grid)
    header, rows = chart_table(request)
    write_csv(args.output, header, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.gate is not None and not 0.0 <= args.gate < math.inf:
        raise ConfigError(f"gate must be a finite number >= 0, got {args.gate!r}")
    parsed = parse_experiment_file(args.config)
    config = resolve_config(parsed, seed=args.seed, trials=args.trials)
    log_path = str(args.output) + ".trials.csv" if args.log_trials else None
    stats = run_experiment(config, log_path)
    z = estimate_vs_analytic(stats) if stats.surviving > 0 else math.nan
    columns = [field.name for field in fields(stats)]
    write_csv(args.output, columns + ["z_score"], [[getattr(stats, c) for c in columns] + [z]])
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
    chart_id = "inequality_deltas_vs_rho"
    header, rows = chart_table(ChartRequest(chart_id, _CHARTS[chart_id].grid))
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
    walk = _walk(config)  # one fold for the counts and the prediction, as in ``run``
    clicks, survivors, _ = count_trials(config, walk=walk)
    analytic = _survival(*walk)
    empirical = survivors / args.trials
    print(
        f"trials={args.trials} clicks={clicks} survivors={survivors} "
        f"survival={empirical:.5f} analytic={analytic:.5f}"
    )
    if args.output:
        columns = {
            "n_beams": n,
            "detectors": m,
            "erase": int(args.erase),
            "trials": args.trials,
            "clicks": clicks,
            "survivors": survivors,
            "empirical_survival": empirical,
            "analytic_survival": analytic,
        }
        write_csv(args.output, list(columns), [list(columns.values())])
    return EXIT_OK


# A bare negative number in any form ``float`` reads, such as -1e-3 or
# -inf, is an option's value; argparse alone takes only -1 and -1.5 so.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):
        """A bad command line is one ``error:`` line and exit code 2."""
        self.exit(EXIT_CONFIG, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves no state in it."""
    parser = _Parser(
        prog="partial-eraser",
        description="Partial polarization measurement and erasure simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chart = sub.add_parser("chart", help="write an analytic chart as CSV")
    chart.add_argument("chart_id", choices=CHART_IDS)
    # Unset grid options take the chart's own grid (see _CHARTS).
    chart.add_argument("--min", type=float)
    chart.add_argument("--max", type=float)
    chart.add_argument("--steps", type=int)
    chart.add_argument("--scale", choices=("linear", "log"))
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PartialEraserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
