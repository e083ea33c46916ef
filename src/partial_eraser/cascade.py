"""Beam-level model of the graded mirror cascade.

Each branch of the split wave function passes a chain of partly silvered
mirrors whose transmissions are graded so that every reflected beam
carries an equal fraction 1/n of the branch intensity: the first mirror
transmits (n-1)/n, the second (n-2)/(n-1), and so on down to a solid
mirror at the end.  Detectors sit on an arbitrary subset of the beams.

Because the beams are equal and in phase, only the *number* of detectors
matters: placing m detectors on a branch realizes exactly the abstract
partial measurement with unmeasured fraction alpha = (n - m)/n, whichever
beams were chosen.  The model builds this in: a placement enters the
no-click map and the click rate only through its detector count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import DomainError
from .measurement import MeasurementOutcome, PartialMeasurementOp, _impossible
from .polarization import (
    _BRANCHES,
    _KETS,
    _PLUS,
    _X,
    Axis,
    Branch,
    PolarizationState,
    _check_integer,
    _check_member,
    basis_state,
)

# A cascade measures on the X axis.  Its kets, unpacked once for the silent
# pass in ``cascade_measure``, and the state each click leaves.
(_KET_PLUS_UP, _KET_PLUS_RIGHT), (_KET_MINUS_UP, _KET_MINUS_RIGHT) = _KETS[Axis.X]
_CLICK_PLUS = basis_state(Axis.X, Branch.PLUS)
_CLICK_MINUS = basis_state(Axis.X, Branch.MINUS)


@dataclass(frozen=True)
class Cascade:
    """A chain of graded mirror transmissions splitting one branch into
    ``n_beams`` equal-intensity beams."""

    n_beams: int

    def __post_init__(self) -> None:
        _check_integer("n_beams", self.n_beams, low=1)
        object.__setattr__(self, "n_beams", int(self.n_beams))

    @property
    def transmissions(self) -> tuple[float, ...]:
        """(n-1-i)/(n-i) for mirror i; the last mirror is solid."""
        n = self.n_beams
        return tuple((n - 1 - i) / (n - i) for i in range(n))


def build_cascade(n_beams: int) -> Cascade:
    """The graded cascade of ``n_beams`` equal-intensity beams."""
    return Cascade(n_beams)


def beam_intensities(cascade: Cascade) -> tuple[float, ...]:
    """Intensity fraction of each reflected beam (all equal to 1/n)."""
    intensities = []
    remaining = 1.0
    for t in cascade.transmissions:
        intensities.append(remaining * (1.0 - t))
        remaining *= t
    return tuple(intensities)


@dataclass(frozen=True)
class DetectorPlacement:
    """Detectors on a chosen subset of one branch's beams."""

    branch: Branch
    beam_indices: frozenset[int]

    def __post_init__(self) -> None:
        _check_member("branch", self.branch, _BRANCHES)
        for index in self.beam_indices:
            if isinstance(index, bool) or not isinstance(index, Integral):
                raise DomainError(f"beam indices must be integers, got {index!r}")
        ordered = tuple(sorted(self.beam_indices))
        object.__setattr__(self, "beam_indices", frozenset(ordered))
        # cached for the sampling hot path
        object.__setattr__(self, "_ordered", ordered)
        object.__setattr__(self, "_max_index", ordered[-1] if ordered else -1)
        if ordered and ordered[0] < 0:
            raise DomainError("beam indices must be non-negative")

    @property
    def n_detectors(self) -> int:
        return len(self.beam_indices)


def equivalent_op(placement: DetectorPlacement, cascade: Cascade) -> PartialMeasurementOp:
    """The abstract partial measurement realized by this placement."""
    _check_indices(placement, cascade)
    alpha = (cascade.n_beams - placement.n_detectors) / cascade.n_beams
    return PartialMeasurementOp(_X, placement.branch, alpha)


def _check_indices(placement: DetectorPlacement, cascade: Cascade) -> None:
    if placement._max_index >= cascade.n_beams:
        raise DomainError(
            f"beam indices must lie in [0, {cascade.n_beams}), got "
            f"{sorted(placement.beam_indices)}"
        )


def cascade_measure(
    state: PolarizationState,
    placement: DetectorPlacement,
    cascade: Cascade,
    rng,
) -> MeasurementOutcome:
    """Sample one pass of the photon through the instrumented cascade.

    Click probability is (m/n) |<branch|psi>|^2, spread uniformly over the
    m placed detectors; the click outcome records which one fired.  A
    silent pass applies the equivalent partial measurement's no-click map,
    written out here for the X axis as ``no_click_map`` takes it, so the
    two agree to the bit.
    """
    n = cascade.n_beams
    if placement._max_index >= n:
        _check_indices(placement, cascade)
    m = len(placement._ordered)
    plus = placement.branch is _PLUS
    # The X-axis bras are 1-0j and 0-0j: their products give back the
    # amplitudes bit for bit (``test_silent_pass_bits_match_no_click_map``).
    if plus:
        c_meas, c_other = state.amp_up, state.amp_right
    else:
        c_meas, c_other = state.amp_right, state.amp_up
    mass = abs(c_meas) ** 2
    p_click = (m / n) * mass

    u = rng.random()
    outcome = object.__new__(MeasurementOutcome)  # filled in as ``_outcome`` does
    fields = outcome.__dict__
    if u < p_click:
        # u is uniform on [0, p_click); reuse it to pick the detector.
        which = min(int(u / p_click * m), m - 1)
        fields["clicked"] = True
        fields["probability"] = p_click
        fields["post_state"] = _CLICK_PLUS if plus else _CLICK_MINUS
        fields["detector"] = placement._ordered[which]
        return outcome
    fields["clicked"] = False
    fields["probability"] = 1.0 - p_click
    alpha = (n - m) / n
    if alpha == 1.0:
        post = state
    else:
        survival = alpha * mass + abs(c_other) ** 2
        if survival <= 0.0:
            raise _impossible(alpha)
        root = math.sqrt(survival)
        c_meas = c_meas * (math.sqrt(alpha) / root)
        c_other = c_other / root
        c_plus, c_minus = (c_meas, c_other) if plus else (c_other, c_meas)

        up = c_plus * _KET_PLUS_UP + c_minus * _KET_MINUS_UP
        right = c_plus * _KET_PLUS_RIGHT + c_minus * _KET_MINUS_RIGHT
        norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
        post = object.__new__(PolarizationState)  # as ``_trusted_state`` builds it
        post_fields = post.__dict__
        post_fields["amp_up"] = up / norm
        post_fields["amp_right"] = right / norm
    fields["post_state"] = post
    fields["detector"] = None
    return outcome

