"""Partial polarization measurements: click statistics and no-click maps.

A partial measurement places detectors over a fraction of one branch of
the split wave function.  ``alpha`` is the *unmeasured* intensity fraction
of that branch: alpha = 1 is no measurement at all, alpha = 0 a complete
measurement.  Two things can happen:

* a detector clicks, with probability (1 - alpha) |<branch|psi>|^2; the
  state collapses onto the measured branch;
* no detector clicks.  The silence is itself information, and it reshapes
  the state: the measured branch amplitude is scaled by sqrt(alpha) and
  the state is renormalized.  On an even superposition of the up/right
  branches, measuring the up branch leaves

      sqrt(alpha / (1 + alpha)) |up> + sqrt(1 / (1 + alpha)) |right>.

A state is always the renormalized, conditional state of the survivors.
The intensity that has survived every detector so far is the product of
the no-click probabilities, ``no_click_sequence_probability``.

Same-axis operators form a tiny algebra: same-branch measurements multiply
their alphas, and an equal measurement on the opposite branch undoes a
partial measurement completely (quantum erasure).  Only the ratio of the
two branches' unmeasured fractions matters for the surviving state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import AxisMismatch, DomainError, ZeroSurvival
from .polarization import (
    _AXES,
    _BRANCHES,
    _KETS,
    _PLUS,
    Axis,
    Branch,
    PolarizationState,
    _check_member,
    _fraction,
    _twin,
    components_in,
)


class TrackingMode(Enum):
    """The one state update, renormalized after each no-click.  Only
    ``epr.sample_partial_pair`` still takes it, and does not read it; both
    go together (ROADMAP item 7)."""

    NORMALIZED = "normalized"


@dataclass(frozen=True)
class PartialMeasurementOp:
    """A partial measurement of one branch of one axis.

    ``alpha`` is the unmeasured intensity fraction of the measured branch,
    in [0, 1].  alpha = 1 acts as the identity, alpha = 0 is a complete
    measurement of that branch.
    """

    axis: Axis
    branch: Branch
    alpha: float

    def __post_init__(self) -> None:
        _check_member("axis", self.axis, _AXES)
        _check_member("branch", self.branch, _BRANCHES)
        object.__setattr__(self, "alpha", _fraction("alpha", self.alpha))

    @property
    def is_identity(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True, slots=True)
class MeasurementOutcome:
    """One realized measurement event.

    ``probability`` is the chance of this outcome given the input state,
    that is, conditional on the photon having survived everything earlier.
    A click collapses the state onto the measured branch; a silence
    carries the reshaped state.  ``detector`` identifies which detector
    fired when the event came from a beam cascade.
    """

    clicked: bool
    probability: float
    post_state: object
    detector: int | None = None


_OpenState, _OpenOutcome = _twin(PolarizationState), _twin(MeasurementOutcome)


def _outcome(clicked: bool, probability: float, post_state) -> MeasurementOutcome:
    """The constructor's outcome with no detector, built past ``__init__`` for the hot paths."""
    outcome = _OpenOutcome()
    outcome.clicked = clicked
    outcome.probability = probability
    outcome.post_state = post_state
    outcome.detector = None
    outcome.__class__ = MeasurementOutcome
    return outcome


def _impossible(alpha: float) -> ZeroSurvival:
    """The one failure: a silence that cannot happen, at unmeasured fraction ``alpha``."""
    return ZeroSurvival(f"no-click impossible: alpha={alpha} on a fully measured branch")


def _silence(op: PartialMeasurementOp, state: PolarizationState):
    """The state's one projection onto the op's axis: the click
    probability, the measured and the other component, and the survival
    probability.  The click probability is at least 1 wherever the
    survival is not positive."""
    c_plus, c_minus = components_in(state, op.axis)
    if op.branch is _PLUS:
        c_meas, c_other = c_plus, c_minus
    else:
        c_meas, c_other = c_minus, c_plus
    mass = abs(c_meas) ** 2
    p_click = (1.0 - op.alpha) * mass
    survival = op.alpha * mass + abs(c_other) ** 2
    if survival <= 0.0:
        p_click = max(p_click, 1.0)  # rounding may leave mass a few ulp below 1
    return p_click, c_meas, c_other, survival


def _silent_state(
    kets, plus: bool, alpha: float, c_meas: complex, c_other: complex, survival: float
) -> PolarizationState:
    """The one no-click state of a single photon, for a positive survival:
    the measured component (``plus`` names its branch) scaled by
    sqrt(alpha), both renormalized and recombined through the axis ``kets``
    (a ``_KETS`` entry), then normalized and filled into ``_OpenState``,
    past ``__init__``: a positive survival leaves no zero vector."""
    root = math.sqrt(survival)
    c_meas = c_meas * (math.sqrt(alpha) / root)
    c_other = c_other / root
    c_plus, c_minus = (c_meas, c_other) if plus else (c_other, c_meas)
    (p_up, p_right), (m_up, m_right) = kets
    up = c_plus * p_up + c_minus * m_up
    right = c_plus * p_right + c_minus * m_right
    norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
    state = _OpenState()
    state.amp_up = up / norm
    state.amp_right = right / norm
    state.__class__ = PolarizationState
    return state


def click_probability(op: PartialMeasurementOp, state: PolarizationState) -> float:
    """Probability that one of the op's detectors fires on this state; at
    least 1 wherever ``no_click_map`` finds the silence impossible."""
    return _silence(op, state)[0]


def no_click_map(op: PartialMeasurementOp, state: PolarizationState) -> PolarizationState:
    """State update conditioned on none of the detectors firing.

    Scales the measured-branch amplitude by sqrt(alpha) and renormalizes.
    A state entirely in the opposite branch is untouched.  Raises
    ZeroSurvival when the no-click outcome is impossible (alpha = 0 with
    everything in the measured branch).

    ``_silent_state`` builds the state, for ``cascade_measure`` too.
    """
    if op.is_identity:
        return state
    _, c_meas, c_other, survival = _silence(op, state)
    if survival <= 0.0:
        raise _impossible(op.alpha)
    return _silent_state(_KETS[op.axis], op.branch is _PLUS, op.alpha, c_meas, c_other, survival)


def _step(state: PolarizationState, photon, op: PartialMeasurementOp):
    """``(p_click, no-click state)`` from one ``_silence``, the state as
    ``no_click_map`` gives it, or None for it where the click is certain
    (``p_click >= 1``).  ``photon`` is ignored: this is the single
    photon's form of ``epr._pair_step``."""
    if op.alpha == 1.0:  # ``op.is_identity``, without the property call
        return 0.0, state
    p_click, c_meas, c_other, survival = _silence(op, state)
    if p_click >= 1.0:
        return p_click, None
    kets = _KETS[op.axis]
    return p_click, _silent_state(kets, op.branch is _PLUS, op.alpha, c_meas, c_other, survival)


def compose_same_axis(
    op1: PartialMeasurementOp, op2: PartialMeasurementOp
) -> PartialMeasurementOp:
    """Reduce two same-axis partial measurements to a single one.

    Same branch: alphas multiply.  Opposite branches: only the ratio of
    the unmeasured fractions survives, so the pair reduces to one
    measurement of the more-measured branch with alpha = ratio <= 1
    (an equal pair reduces to the identity: erasure).  The reduced op's
    no-click map equals the sequential one exactly; their no-click
    probabilities differ by the discarded overall factor.

    Raises AxisMismatch for different axes, where no single partial
    measurement reproduces the pair (use apply_sequence).
    """
    if op1.axis is not op2.axis:
        raise AxisMismatch(f"cannot compose across axes {op1.axis} and {op2.axis}")
    axis = op1.axis
    if op1.branch is op2.branch:
        return PartialMeasurementOp(axis, op1.branch, op1.alpha * op2.alpha)

    a_plus = op1.alpha if op1.branch is Branch.PLUS else op2.alpha
    a_minus = op1.alpha if op1.branch is Branch.MINUS else op2.alpha
    if a_plus == 0.0 and a_minus == 0.0:
        raise DomainError(
            "complete measurements of both branches leave no surviving state"
        )
    if a_plus <= a_minus:
        return PartialMeasurementOp(axis, Branch.PLUS, a_plus / a_minus)
    return PartialMeasurementOp(axis, Branch.MINUS, a_minus / a_plus)


def apply_sequence(
    ops: Iterable[PartialMeasurementOp], state: PolarizationState
) -> PolarizationState:
    """Fold the no-click maps of ``ops`` over ``state``, first op first.

    This is the canonical semantics for mixed-axis strings, where no
    closed-form single operator exists.  An empty sequence is the
    identity.
    """
    for op in ops:
        state = no_click_map(op, state)
    return state


def no_click_sequence_probability(
    ops: Iterable[PartialMeasurementOp], state: PolarizationState
) -> float:
    """Probability that an entire op sequence stays silent on ``state``;
    0.0 from the first op whose click is certain (``p_click >= 1``)."""
    prob = 1.0
    for op in ops:
        p_click, state = _step(state, None, op)
        if state is None:
            return 0.0
        prob *= 1.0 - p_click
    return prob
