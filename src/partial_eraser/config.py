"""Line-oriented experiment config files.

The format is flat ``key = value`` text.  Measurement steps are repeated
``op`` / ``cascade`` lines whose file order is the application order, so
the format round-trips ordered plans exactly:

    # comment
    preparation = epr            | single:plus | single:minus
    trials      = 100000
    seed        = 42
    final_axis  = y              | x | z
    op      = A,x,plus,0.5       # photon, axis, branch, unmeasured fraction
    cascade = B,minus,50         # photon, branch, detectors [, beams (100)]

Branch tokens: ``plus`` / ``minus``, or the axis-specific aliases ``up``,
``right`` (x), ``diag``, ``antidiag`` (y), ``lcirc``, ``rcirc`` (z); an
alias must agree with the declared axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .epr import Photon
from .errors import ConfigError, DomainError
from .measurement import PartialMeasurementOp
from .montecarlo import (
    CascadeStep,
    ExperimentConfig,
    MeasureStep,
    PlanStep,
    Preparation,
    PrepKind,
)
from .polarization import Axis, Branch

SEED_ENV_VAR = "PARTIAL_ERASER_SEED"

DEFAULT_TRIALS = 100_000

_BRANCH_TOKENS: dict[str, tuple[Axis | None, Branch]] = {
    "plus": (None, Branch.PLUS),
    "minus": (None, Branch.MINUS),
    "up": (Axis.X, Branch.PLUS),
    "right": (Axis.X, Branch.MINUS),
    "diag": (Axis.Y, Branch.PLUS),
    "antidiag": (Axis.Y, Branch.MINUS),
    "lcirc": (Axis.Z, Branch.PLUS),
    "rcirc": (Axis.Z, Branch.MINUS),
}


@dataclass
class ParsedExperiment:
    """Raw file contents; None means the key was absent."""

    preparation: Preparation | None = None
    trials: int | None = None
    seed: int | None = None
    final_axis: Axis | None = None
    plan: list[PlanStep] = field(default_factory=list)


def _parse_photon(token: str) -> Photon:
    try:
        return Photon[token.strip().upper()]
    except KeyError:
        raise ConfigError(f"unknown photon {token!r} (expected A or B)") from None


def _parse_axis(token: str) -> Axis:
    try:
        return Axis(token.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown axis {token!r} (expected x, y or z)") from None


def _parse_branch(token: str, axis: Axis | None) -> Branch:
    key = token.strip().lower()
    if key not in _BRANCH_TOKENS:
        raise ConfigError(f"unknown branch {token!r}")
    implied_axis, branch = _BRANCH_TOKENS[key]
    if implied_axis is not None and axis is not None and implied_axis is not axis:
        raise ConfigError(f"branch {token!r} belongs to axis {implied_axis.value}")
    return branch


def _parse_op_line(value: str) -> MeasureStep:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 4:
        raise ConfigError("op needs photon,axis,branch,alpha")
    photon = _parse_photon(parts[0])
    axis = _parse_axis(parts[1])
    branch = _parse_branch(parts[2], axis)
    try:
        alpha = float(parts[3])
    except ValueError:
        raise ConfigError(f"bad alpha {parts[3]!r}") from None
    return MeasureStep(photon, PartialMeasurementOp(axis, branch, alpha))


def _parse_cascade_line(value: str) -> CascadeStep:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigError("cascade needs photon,branch,n_detectors[,n_beams]")
    photon = _parse_photon(parts[0])
    branch = _parse_branch(parts[1], Axis.X)
    try:
        n_detectors = int(parts[2])
        n_beams = int(parts[3]) if len(parts) == 4 else 100
    except ValueError:
        raise ConfigError("detector and beam counts must be integers") from None
    return CascadeStep(photon, branch, n_detectors, n_beams)


def _parse_preparation(value: str) -> Preparation:
    token = value.strip().lower()
    if token == "epr":
        return Preparation.epr()
    head, colon, branch = token.partition(":")
    if head.rstrip() == "single":
        return Preparation.single(_parse_branch(branch, Axis.Y) if colon else Branch.PLUS)
    raise ConfigError(f"unknown preparation {value!r}")


def _parse_int(value: str, key: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def parse_experiment_text(text: str) -> ParsedExperiment:
    """The experiment in ``text``.  The helpers above raise bare messages;
    a bad line's ``line N: `` prefix is added here, once for every cause."""
    parsed = ParsedExperiment()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key in ("op", "cascade"):
                step = _parse_op_line(value) if key == "op" else _parse_cascade_line(value)
                parsed.plan.append(step)
                continue
            if key in seen:
                raise ConfigError(f"duplicate key {key!r}")
            seen.add(key)
            if key == "preparation":
                parsed.preparation = _parse_preparation(value)
            elif key == "trials":
                parsed.trials = _parse_int(value, "trials")
            elif key == "seed":
                parsed.seed = _parse_int(value, "seed")
            elif key == "final_axis":
                parsed.final_axis = _parse_axis(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return parsed


def parse_experiment_file(path) -> ParsedExperiment:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.object is all of it
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
    return parse_experiment_text(text)


def resolve_seed(flag_seed: int | None, file_seed: int | None) -> int:
    """Seed precedence: command flag, then config file, then the
    PARTIAL_ERASER_SEED environment variable, then 0."""
    if flag_seed is not None:
        return flag_seed
    if file_seed is not None:
        return file_seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def resolve_config(
    parsed: ParsedExperiment,
    *,
    seed: int | None = None,
    trials: int | None = None,
) -> ExperimentConfig:
    """Combine file contents with command-line overrides."""
    if parsed.preparation is None:
        raise ConfigError("config must declare a preparation")
    if trials is None:
        trials = parsed.trials if parsed.trials is not None else DEFAULT_TRIALS
    return ExperimentConfig(
        preparation=parsed.preparation,
        plan=tuple(parsed.plan),
        final_axis=parsed.final_axis if parsed.final_axis is not None else Axis.Y,
        trials=trials,
        master_seed=resolve_seed(seed, parsed.seed),
    )


def format_experiment(config: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces ``config`` exactly."""
    if config.preparation.kind is PrepKind.EPR_PAIR:
        prep = "epr"
    else:
        prep = f"single:{config.preparation.branch.value}"
    lines = [
        f"preparation = {prep}",
        f"trials = {config.trials}",
        f"seed = {config.master_seed}",
        f"final_axis = {config.final_axis.value}",
    ]
    for step in config.plan:
        if isinstance(step, MeasureStep):
            lines.append(
                "op = {},{},{},{!r}".format(
                    step.photon.value,
                    step.op.axis.value,
                    step.op.branch.value,
                    step.op.alpha,
                )
            )
        else:
            lines.append(
                f"cascade = {step.photon.value},{step.branch.value},"
                f"{step.n_detectors},{step.n_beams}"
            )
    return "\n".join(lines) + "\n"
