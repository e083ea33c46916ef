"""Entangled photon pairs under partial measurement and erasure.

A pair state holds four complex amplitudes over the product basis
(|up,up>, |right,right>, |up,right>, |right,up>) plus an intensity
weight.  The correlated Bell state

    |EPR>      = (|up,up> + |right,right>) / sqrt(2)
               = (|diag,diag> + |antidiag,antidiag>) / sqrt(2)

is perfectly correlated in both the linear and the diagonal bases.  A
partial measurement on either photon scales that photon's measured branch
by sqrt(alpha), which contaminates the pair with the reverse-correlated
component

    |anti-EPR> = (|diag,antidiag> + |antidiag,diag>) / sqrt(2)
               = (|right,right> - |up,up>) / sqrt(2).

After up/right measurements with unmeasured fractions (a, b) on photon A
and (g, d) on photon B, the surviving state is

    sqrt(ag) |up,up> + sqrt(bd) |right,right>   (unnormalized),

so everything observable about the diagonal correlation depends only on
the ratio K = bd / ag; K = 1 restores |EPR> exactly, however the four
fractions are distributed over the two photons.  That is the whole point:
an erasing counter-measurement works just as well on the *other* photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ZeroSurvival
from .measurement import (
    MeasurementOutcome,
    OutcomeKind,
    PartialMeasurementOp,
    TrackingMode,
)
from .polarization import NORM_TOL, Axis, Branch, basis_vector

_SQRT_HALF = math.sqrt(0.5)


class Photon(Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class PairState:
    """Two-photon amplitudes over (up up, right right, up right, right up)
    with unit norm; ``weight`` carries the surviving pair intensity."""

    amp_uu: complex
    amp_rr: complex
    amp_ur: complex
    amp_ru: complex
    weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("amp_uu", "amp_rr", "amp_ur", "amp_ru"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        object.__setattr__(self, "weight", float(self.weight))
        norm2 = (
            abs(self.amp_uu) ** 2
            + abs(self.amp_rr) ** 2
            + abs(self.amp_ur) ** 2
            + abs(self.amp_ru) ** 2
        )
        if abs(norm2 - 1.0) > NORM_TOL:
            raise DomainError(
                f"pair amplitudes must have unit norm, got |psi|^2 = {norm2!r}"
            )
        if not 0.0 <= self.weight <= 1.0 + NORM_TOL:
            raise DomainError(f"weight must lie in [0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class EprDecomposition:
    """Components along |EPR> and |anti-EPR> (of the amplitude part)."""

    epr_amp: complex
    anti_epr_amp: complex


def make_epr() -> PairState:
    """The correlated pair (|up,up> + |right,right>) / sqrt(2)."""
    return PairState(_SQRT_HALF, _SQRT_HALF, 0.0, 0.0, 1.0)


def _to_matrix(pair: PairState):
    # m[i][j]: photon A index i, photon B index j; 0 = up, 1 = right.
    return [
        [pair.amp_uu, pair.amp_ur],
        [pair.amp_ru, pair.amp_rr],
    ]


def _from_matrix(m, weight: float) -> PairState:
    return PairState(m[0][0], m[1][1], m[0][1], m[1][0], weight)


def _scaling_matrix(op: PartialMeasurementOp):
    """sqrt(alpha) |b><b| + |o><o| in up/right coordinates."""
    b = basis_vector(op.axis, op.branch)
    o = basis_vector(op.axis, op.branch.other())
    root = math.sqrt(op.alpha)
    return [
        [
            root * b[i] * b[j].conjugate() + o[i] * o[j].conjugate()
            for j in range(2)
        ]
        for i in range(2)
    ]


def apply_partial_pair(
    pair: PairState,
    photon: Photon,
    op: PartialMeasurementOp,
    mode: TrackingMode = TrackingMode.NORMALIZED,
) -> PairState:
    """No-click update of the pair under a partial measurement of one photon.

    The scaling acts on the chosen tensor factor only; the other photon is
    untouched, yet the *joint* state (and with it every correlation)
    shifts.  Weight handling matches the single-photon case.
    """
    if op.is_identity:
        return pair
    s = _scaling_matrix(op)
    m = _to_matrix(pair)
    if photon is Photon.A:
        out = [
            [s[i][0] * m[0][j] + s[i][1] * m[1][j] for j in range(2)]
            for i in range(2)
        ]
    else:
        out = [
            [m[i][0] * s[j][0] + m[i][1] * s[j][1] for j in range(2)]
            for i in range(2)
        ]
    survival = sum(abs(out[i][j]) ** 2 for i in range(2) for j in range(2))
    if survival <= 0.0:
        raise ZeroSurvival(
            f"no-click impossible: alpha={op.alpha} on a fully measured branch"
        )
    norm = math.sqrt(survival)
    out = [[out[i][j] / norm for j in range(2)] for i in range(2)]
    weight = pair.weight * survival if mode is TrackingMode.WEIGHTED else pair.weight
    return _from_matrix(out, weight)


def _partner_amplitudes(pair: PairState, photon: Photon, b) -> list[complex]:
    """<b| applied to ``photon``: the partner's (up, right) amplitudes."""
    bra_up, bra_right = b[0].conjugate(), b[1].conjugate()
    if photon is Photon.A:
        return [
            bra_up * pair.amp_uu + bra_right * pair.amp_ru,
            bra_up * pair.amp_ur + bra_right * pair.amp_rr,
        ]
    return [
        bra_up * pair.amp_uu + bra_right * pair.amp_ur,
        bra_up * pair.amp_ru + bra_right * pair.amp_rr,
    ]


def pair_click_probability(
    pair: PairState, photon: Photon, op: PartialMeasurementOp
) -> float:
    """Probability that the op's detectors fire on the chosen photon."""
    comps = _partner_amplitudes(pair, photon, basis_vector(op.axis, op.branch))
    mass = sum(abs(c) ** 2 for c in comps)
    return (1.0 - op.alpha) * mass


def collapse_pair(pair: PairState, photon: Photon, op: PartialMeasurementOp) -> PairState:
    """Projective collapse of the clicked photon onto the measured branch.

    The partner photon keeps its conditional state, which for the
    correlated family means it acquires the matching branch.  Weight
    history is discarded (the click ends the interference bookkeeping).
    """
    b = basis_vector(op.axis, op.branch)
    partner = _partner_amplitudes(pair, photon, b)
    if photon is Photon.A:
        out = [[b[i] * partner[j] for j in range(2)] for i in range(2)]
    else:
        out = [[partner[i] * b[j] for j in range(2)] for i in range(2)]
    norm2 = sum(abs(out[i][j]) ** 2 for i in range(2) for j in range(2))
    if norm2 <= 0.0:
        raise ZeroSurvival("click impossible: measured branch is empty")
    norm = math.sqrt(norm2)
    out = [[out[i][j] / norm for j in range(2)] for i in range(2)]
    return _from_matrix(out, 1.0)


def sample_partial_pair(
    pair: PairState,
    photon: Photon,
    op: PartialMeasurementOp,
    mode: TrackingMode,
    rng,
) -> MeasurementOutcome:
    """Draw a click / no-click event for a partial measurement on a pair."""
    p_click = pair_click_probability(pair, photon, op)
    if rng.random() < p_click:
        return MeasurementOutcome(
            OutcomeKind.CLICK, p_click, collapse_pair(pair, photon, op)
        )
    return MeasurementOutcome(
        OutcomeKind.NO_CLICK, 1.0 - p_click, apply_partial_pair(pair, photon, op, mode)
    )


def epr_decompose(pair: PairState) -> EprDecomposition:
    """Inner products with |EPR> and |anti-EPR>.

    In up/right coordinates these are (uu + rr)/sqrt(2) and
    (rr - uu)/sqrt(2); states outside the correlated subspace leave
    |epr|^2 + |anti|^2 < 1.
    """
    epr = (pair.amp_uu + pair.amp_rr) * _SQRT_HALF
    anti = (pair.amp_rr - pair.amp_uu) * _SQRT_HALF
    return EprDecomposition(epr, anti)


@dataclass(frozen=True)
class IntensityQuadruple:
    """Unmeasured fractions of (A up, A right, B up, B right) branches.

    The diagonal-basis correlation of the surviving pair depends only on
    the ratio ``k_ratio`` = (beta delta) / (alpha gamma).
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def k_ratio(self) -> float:
        if self.alpha * self.gamma <= 0.0:
            raise DomainError("k ratio undefined when alpha * gamma = 0")
        return (self.beta * self.delta) / (self.alpha * self.gamma)


def apply_quadruple(
    pair: PairState,
    q: IntensityQuadruple,
    mode: TrackingMode = TrackingMode.NORMALIZED,
) -> PairState:
    """Apply the four up/right partial measurements (A up, A right,
    B up, B right) in order."""
    steps = (
        (Photon.A, Branch.PLUS, q.alpha),
        (Photon.A, Branch.MINUS, q.beta),
        (Photon.B, Branch.PLUS, q.gamma),
        (Photon.B, Branch.MINUS, q.delta),
    )
    for photon, branch, alpha in steps:
        pair = apply_partial_pair(
            pair, photon, PartialMeasurementOp(Axis.X, branch, alpha), mode
        )
    return pair


def y_correlation_pair(q: IntensityQuadruple) -> float:
    """Probability of equal diagonal-basis outcomes on the surviving pair:

        C = (sqrt(ag) + sqrt(bd))^2 / (2 (ag + bd))
          = ((1 + sqrt(K)) / sqrt(2 + 2 K))^2,   K = bd / ag.

    Equals 1 when the products match (erasure complete) and drops to
    exactly 1/2 as soon as any single branch is completely measured.
    """
    ag = q.alpha * q.gamma
    bd = q.beta * q.delta
    if ag <= 0.0 and bd <= 0.0:
        raise DomainError("correlation undefined: both branch products vanish")
    return (math.sqrt(ag) + math.sqrt(bd)) ** 2 / (2.0 * (ag + bd))


def weighted_epr_track(q: IntensityQuadruple) -> tuple[float, float]:
    """Unnormalized (EPR, anti-EPR) amplitudes relative to the source:

        ( (sqrt(bd) + sqrt(ag)) / 2 ,  (sqrt(bd) - sqrt(ag)) / 2 ).

    Squared, these are surviving intensities; the pair weight after the
    four no-click measurements is their squared sum.
    """
    ag = math.sqrt(q.alpha * q.gamma)
    bd = math.sqrt(q.beta * q.delta)
    return (bd + ag) / 2.0, (bd - ag) / 2.0


def pair_axis_amplitudes(pair: PairState, axis: Axis):
    """2x2 amplitudes of the pair in ``axis`` x ``axis`` coordinates,
    indexed [branch of A][branch of B] with 0 = PLUS, 1 = MINUS."""
    vecs = (basis_vector(axis, Branch.PLUS), basis_vector(axis, Branch.MINUS))
    m = _to_matrix(pair)
    return [
        [
            sum(
                vecs[k][i].conjugate() * vecs[l][j].conjugate() * m[i][j]
                for i in range(2)
                for j in range(2)
            )
            for l in range(2)
        ]
        for k in range(2)
    ]


def pair_distance(a: PairState, b: PairState) -> float:
    """Euclidean distance between the two amplitude vectors."""
    return math.sqrt(
        abs(a.amp_uu - b.amp_uu) ** 2
        + abs(a.amp_rr - b.amp_rr) ** 2
        + abs(a.amp_ur - b.amp_ur) ** 2
        + abs(a.amp_ru - b.amp_ru) ** 2
    )
