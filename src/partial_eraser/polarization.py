"""Two-level polarization states and the three measurement bases.

A single photon lives in the span of the linear basis states |up> and
|right>.  Three mutually unbiased measurement axes are supported:

    X : {|up>, |right>}                      linear, the canonical basis
    Y : {|diag>, |antidiag>}                 linear at 45 degrees
    Z : {|circ+>, |circ->}                   circular

with conventions

    |diag>     = (|up> + |right>) / sqrt(2)
    |antidiag> = (|right> - |up>) / sqrt(2)
    |circ+>    = (|up> + i |right>) / sqrt(2)
    |circ->    = (|up> - i |right>) / sqrt(2)

The antidiagonal sign is fixed so that a partial measurement of the up
branch rotates a diagonal state toward |right> with a positive antidiagonal
component; the circular convention makes all three axes mutually unbiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

from .errors import DegenerateState, DomainError

NORM_TOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


class Axis(Enum):
    """Measurement axis: linear (X), diagonal (Y) or circular (Z)."""

    X = "x"
    Y = "y"
    Z = "z"

    # Members are singletons, so identity hashing agrees with ==; it spares
    # the basis lookups (``_KETS[axis]``) Enum's Python-level __hash__.
    __hash__ = object.__hash__


class Branch(Enum):
    """One of the two outcomes of an axis: PLUS or MINUS.

    Per axis: X plus=|up> minus=|right>; Y plus=|diag> minus=|antidiag>;
    Z plus=|circ+> minus=|circ->.
    """

    PLUS = "plus"
    MINUS = "minus"

    __hash__ = object.__hash__  # as for Axis

    def other(self) -> "Branch":
        return Branch.MINUS if self is Branch.PLUS else Branch.PLUS


# EnumType defines __getattr__ on Python 3.11, so a load such as ``Branch.PLUS``
# takes the slow attribute hook, over ten times a module global's cost; the hot
# kernels read their members from private constants like these instead.
_PLUS, _MINUS = Branch.PLUS, Branch.MINUS
_X, _Y = Axis.X, Axis.Y
_AXES, _BRANCHES = tuple(Axis), tuple(Branch)


def _check_member(name: str, value, members: tuple, error: type = DomainError) -> None:
    """``error`` unless ``value`` is one of ``members``, an enum's members
    bound at import like ``_BRANCHES``: a string, a bool or another enum's
    member is not one."""
    for member in members:
        if value is member:
            return
    raise error(f"{name} must be one of {', '.join(map(str, members))}, got {value!r}")


def _check_integer(
    name: str, value, error: type = DomainError, low: int | None = None, high: int | None = None
) -> int:
    """``value`` as an ``int``, else ``error``: it must be an integer
    (numpy's too, not a bool), not below ``low`` and not above ``high``.
    This is the one home of every integer bound in the package."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise error(f"{name} must be <= {high}, got {value!r}")
    return int(value)


def _fraction(name: str, value) -> float:
    """``value`` as a float in [0, 1], else DomainError naming the value; a
    bool is not a number, nor is ``numpy.True_`` or ``"0.5"``, and NaN fails."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int or a Fraction beyond the float range
        value = math.inf if value > 0 else -math.inf
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


# Per axis, the (plus, minus) basis kets as (amp_up, amp_right) coordinates,
# and their conjugates (the bras), so the basis changes below look up one
# entry instead of conjugating per call.
_KETS: dict[Axis, tuple[tuple[complex, complex], tuple[complex, complex]]] = {
    Axis.X: ((1.0 + 0.0j, 0.0 + 0.0j), (0.0 + 0.0j, 1.0 + 0.0j)),
    Axis.Y: ((_SQRT_HALF + 0.0j, _SQRT_HALF + 0.0j), (-_SQRT_HALF + 0.0j, _SQRT_HALF + 0.0j)),
    Axis.Z: ((_SQRT_HALF + 0.0j, _SQRT_HALF * 1.0j), (_SQRT_HALF + 0.0j, -_SQRT_HALF * 1.0j)),
}
_BRAS = {
    axis: tuple((up.conjugate(), right.conjugate()) for up, right in kets)
    for axis, kets in _KETS.items()
}


def basis_vector(axis: Axis, branch: Branch) -> tuple[complex, complex]:
    """(amp_up, amp_right) coordinates of one basis state."""
    _check_member("axis", axis, _AXES)
    _check_member("branch", branch, _BRANCHES)
    return _KETS[axis][branch is _MINUS]


def _check_unit(norm2: float, amplitudes: str = "amplitudes") -> None:
    """DomainError unless the squared norm ``norm2`` of the ``amplitudes``
    is 1 to within NORM_TOL; NaN fails the check."""
    if not abs(norm2 - 1.0) <= NORM_TOL:
        raise DomainError(f"{amplitudes} must have unit norm, got |psi|^2 = {norm2!r}")


@dataclass(frozen=True)
class PolarizationState:
    """Pure single-photon polarization state.

    ``amp_up`` and ``amp_right`` are the complex amplitudes on |up> and
    |right>; they must form a unit vector (checked to 1e-12).
    """

    amp_up: complex
    amp_right: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp_up", complex(self.amp_up))
        object.__setattr__(self, "amp_right", complex(self.amp_right))
        _check_unit(abs(self.amp_up) ** 2 + abs(self.amp_right) ** 2)


def basis_state(axis: Axis, branch: Branch) -> PolarizationState:
    """The pure state pointing along one basis vector."""
    return PolarizationState(*basis_vector(axis, branch))


def from_components(axis: Axis, c_plus: complex, c_minus: complex) -> PolarizationState:
    """Build a state from its components along ``axis`` (normalizing)."""
    _check_member("axis", axis, _AXES)
    (p_up, p_right), (m_up, m_right) = _KETS[axis]
    up = c_plus * p_up + c_minus * m_up
    right = c_plus * p_right + c_minus * m_right
    norm = math.sqrt(abs(up) ** 2 + abs(right) ** 2)
    if norm < 1e-15:
        raise DegenerateState("cannot normalize a zero vector")
    return PolarizationState(up / norm, right / norm)


def components_in(state: PolarizationState, axis: Axis) -> tuple[complex, complex]:
    """Components (<plus|psi>, <minus|psi>) of the state along ``axis``.

    The squared magnitudes sum to 1, so they are the Born probabilities of
    the two outcomes of a complete measurement along that axis.
    """
    try:
        (p_up, p_right), (m_up, m_right) = _BRAS[axis]
    except KeyError:
        _check_member("axis", axis, _AXES)
        raise
    c_plus = p_up * state.amp_up + p_right * state.amp_right
    c_minus = m_up * state.amp_up + m_right * state.amp_right
    return c_plus, c_minus


def polarization_angle(state: PolarizationState) -> float:
    """Polarization-plane angle in degrees, atan(|up| / |right|).

    45 degrees for an even superposition, 0 for pure |right>, 90 for pure
    |up>.  Defined through amplitude magnitudes, so it is meaningful only
    for states whose amplitudes are relatively real (no circular
    component); complex relative phases are deliberately ignored.
    """
    up_mag = abs(state.amp_up)
    right_mag = abs(state.amp_right)
    if up_mag < 1e-15 and right_mag < 1e-15:
        raise DegenerateState("polarization angle undefined for zero amplitudes")
    return math.degrees(math.atan2(up_mag, right_mag))


def uncertainty_spreads(alpha: float) -> tuple[float, float]:
    """Standard deviations (spread_x, spread_y) of the two +-1 polarization
    observables after an up-branch partial measurement leaving unmeasured
    fraction ``alpha``.

        spread_x = 2 sqrt(alpha) / (1 + alpha)
        spread_y = (1 - alpha) / (1 + alpha)

    alpha = 1 (nothing measured) gives full X uncertainty and an intact Y
    polarization; alpha = 0 (complete measurement) the reverse.
    """
    alpha = _fraction("alpha", alpha)
    spread_x = 2.0 * math.sqrt(alpha) / (1.0 + alpha)
    spread_y = (1.0 - alpha) / (1.0 + alpha)
    return spread_x, spread_y


def y_correlation_single(alpha: float) -> float:
    """Probability that the diagonal polarization survives an up-branch
    partial measurement of unmeasured fraction ``alpha``:

        C(alpha) = ((1 + sqrt(alpha)) / sqrt(2 + 2 alpha))^2

    Ranges from 1 (alpha = 1, nothing measured) down to 1/2 (alpha = 0,
    complete measurement leaves the diagonal outcome random).
    """
    alpha = _fraction("alpha", alpha)
    return (1.0 + math.sqrt(alpha)) ** 2 / (2.0 + 2.0 * alpha)
