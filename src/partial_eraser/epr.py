"""Entangled photon pairs under partial measurement and erasure.

A pair state holds four complex amplitudes over the product basis
(|up,up>, |right,right>, |up,right>, |right,up>).  The correlated Bell
state

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

Photon A and photon B differ only in which tensor index a single-photon
map acts on, so every such map here reads the pair as rows over the
measured photon's (up, right) index and has one formula for both.  As in
``measurement``, the click probability is at least 1 wherever the no-click
update finds the silence impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ZeroSurvival
from .measurement import (
    MeasurementOutcome,
    PartialMeasurementOp,
    TrackingMode,
    _impossible,
    _outcome,
)
from .polarization import (
    _AXES,
    _BRAS,
    _KETS,
    _MINUS,
    _PLUS,
    _SQRT_HALF,
    _X,
    Axis,
    _check_member,
    _check_unit,
    _fraction,
)


class Photon(Enum):
    A = "A"
    B = "B"


_PHOTON_A = Photon.A  # as ``polarization._PLUS``
_PHOTONS = tuple(Photon)


@dataclass(frozen=True)
class PairState:
    """Two-photon amplitudes over (up up, right right, up right, right up)
    with unit norm."""

    amp_uu: complex
    amp_rr: complex
    amp_ur: complex
    amp_ru: complex

    def __post_init__(self) -> None:
        norm2 = 0.0
        for name in ("amp_uu", "amp_rr", "amp_ur", "amp_ru"):
            amp = complex(getattr(self, name))
            object.__setattr__(self, name, amp)
            norm2 += abs(amp) ** 2
        _check_unit(norm2, "pair amplitudes")


@dataclass(frozen=True)
class EprDecomposition:
    """Components along |EPR> and |anti-EPR> (of the amplitude part)."""

    epr_amp: complex
    anti_epr_amp: complex


def make_epr() -> PairState:
    """The correlated pair (|up,up> + |right,right>) / sqrt(2)."""
    return PairState(_SQRT_HALF, _SQRT_HALF, 0.0, 0.0)


def _unit_amplitudes(amps, norm2: float):
    """The (uu, rr, ur, ru) amplitudes ``amps``, whose squared norm is
    ``norm2``, scaled to unit norm and checked as ``PairState`` checks
    them, the norm summed in the same field order."""
    if norm2 < 2.2250738585072014e-308:  # subnormal, so short of bits: 2^600 rescales exactly
        amps = [a * 2.0**600 for a in amps]
        norm2 = sum(abs(a) ** 2 for a in amps)
    norm = math.sqrt(norm2)
    uu, rr, ur, ru = amps
    uu, rr, ur, ru = uu / norm, rr / norm, ur / norm, ru / norm
    _check_unit(abs(uu) ** 2 + abs(rr) ** 2 + abs(ur) ** 2 + abs(ru) ** 2, "pair amplitudes")
    return uu, rr, ur, ru


def _unit_pair(amps, norm2: float) -> PairState:
    """The pair of ``_unit_amplitudes(amps, norm2)``, built without
    ``__init__``: the amplitudes are already complex and checked."""
    pair = object.__new__(PairState)
    fields = pair.__dict__
    fields["amp_uu"], fields["amp_rr"], fields["amp_ur"], fields["amp_ru"] = _unit_amplitudes(
        amps, norm2
    )
    return pair


# Per (axis, branch), what ``_silence`` and ``_click`` read of the basis: the
# measured branch's ket (b0, b1) and bra (bb0, bb1), and the other branch's
# projector terms o_i * ob_j, built once so the kernels multiply no constants.
_SILENCE_TERMS = {
    (axis, branch): (b0, b1, bb0, bb1, o0 * ob0, o0 * ob1, o1 * ob0, o1 * ob1)
    for axis in Axis
    for branch, ((b0, b1), (o0, o1)), ((bb0, bb1), (ob0, ob1)) in (
        (_PLUS, _KETS[axis], _BRAS[axis]),
        (_MINUS, _KETS[axis][::-1], _BRAS[axis][::-1]),
    )
}


def _silence(amps, photon: Photon, terms, alpha: float):
    """The (uu, rr, ur, ru) amplitudes ``amps`` under sqrt(alpha) |b><b| +
    |o><o| on ``photon``, unnormalized, with b and o from ``terms`` (a
    ``_SILENCE_TERMS`` entry), and their squared norm (the survival),
    summed uu, ur, ru, rr.  The pair is read as the rows (uu, m01),
    (m10, rr) over ``photon``'s (up, right) index."""
    b0, b1, bb0, bb1, oo00, oo01, oo10, oo11 = terms
    root = math.sqrt(alpha)
    rb0, rb1 = root * b0, root * b1
    w00, w01 = rb0 * bb0 + oo00, rb0 * bb1 + oo01
    w10, w11 = rb1 * bb0 + oo10, rb1 * bb1 + oo11
    uu, rr, ur, ru = amps
    if photon is _PHOTON_A:
        m01, m10 = ur, ru
    else:
        m01, m10 = ru, ur
    n01, n10 = w00 * m01 + w01 * rr, w10 * uu + w11 * m10
    ur, ru = (n01, n10) if photon is _PHOTON_A else (n10, n01)
    uu, rr = w00 * uu + w01 * m10, w10 * m01 + w11 * rr
    return (uu, rr, ur, ru), abs(uu) ** 2 + abs(ur) ** 2 + abs(ru) ** 2 + abs(rr) ** 2


def _click(amps, photon: Photon, terms, alpha: float, survival: float) -> float:
    """The click probability of the measurement under which
    ``_silence(amps, photon, terms, alpha)`` is the silence, given that
    silence's ``survival``: (1 - alpha) times the squared norm of the
    measured branch's bra applied to ``photon``'s rows of ``amps``.  It is
    at least 1 wherever the survival is not positive."""
    _, _, bb0, bb1, _, _, _, _ = terms
    uu, rr, ur, ru = amps
    if photon is _PHOTON_A:  # the rows of ``_silence``
        m01, m10 = ur, ru
    else:
        m01, m10 = ru, ur
    c0, c1 = bb0 * uu + bb1 * m10, bb0 * m01 + bb1 * rr
    p_click = (1.0 - alpha) * (abs(c0) ** 2 + abs(c1) ** 2)
    if survival <= 0.0:
        p_click = max(p_click, 1.0)  # rounding may leave the mass a few ulp below 1
    return p_click


def apply_partial_pair(pair: PairState, photon: Photon, op: PartialMeasurementOp) -> PairState:
    """No-click update of the pair under a partial measurement of one photon.

    The scaling acts on the chosen tensor factor only; the other photon is
    untouched, yet the *joint* state (and with it every correlation)
    shifts.
    """
    if op.alpha == 1.0:  # ``op.is_identity``, without the property call
        return pair
    amps = pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru
    amps, survival = _silence(amps, photon, _SILENCE_TERMS[op.axis, op.branch], op.alpha)
    if survival <= 0.0:
        raise _impossible(op.alpha)
    return _unit_pair(amps, survival)


def _pair_step(pair: PairState, photon: Photon, op: PartialMeasurementOp):
    """``(p_click, no-click pair)`` from one ``_silence`` and its
    ``_click``, the pair as ``apply_partial_pair`` gives it, or None for it
    where the click is certain (``p_click >= 1``)."""
    alpha = op.alpha
    if alpha == 1.0:  # ``op.is_identity``, without the property call
        return 0.0, pair
    amps = pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru
    terms = _SILENCE_TERMS[op.axis, op.branch]
    silent, survival = _silence(amps, photon, terms, alpha)
    p_click = _click(amps, photon, terms, alpha, survival)
    if p_click >= 1.0:
        return p_click, None
    return p_click, _unit_pair(silent, survival)


def pair_click_probability(
    pair: PairState, photon: Photon, op: PartialMeasurementOp
) -> float:
    """Probability that the op's detectors fire on the chosen photon; at
    least 1 wherever ``apply_partial_pair`` finds the silence impossible."""
    alpha = op.alpha
    amps = pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru
    terms = _SILENCE_TERMS[op.axis, op.branch]
    return _click(amps, photon, terms, alpha, _silence(amps, photon, terms, alpha)[1])


def collapse_pair(pair: PairState, photon: Photon, op: PartialMeasurementOp) -> PairState:
    """Projective collapse of the clicked photon onto the measured branch.

    The partner photon keeps its conditional state, which for the
    correlated family means it acquires the matching branch.
    """
    i = 0 if op.branch is _PLUS else 1
    (b0, b1), (w0, w1) = _KETS[op.axis][i], _BRAS[op.axis][i]
    if photon is _PHOTON_A:  # the rows of ``_silence``
        m01, m10 = pair.amp_ur, pair.amp_ru
    else:
        m01, m10 = pair.amp_ru, pair.amp_ur
    c0, c1 = w0 * pair.amp_uu + w1 * m10, w0 * m01 + w1 * pair.amp_rr  # the partner's
    n01, n10 = b0 * c1, b1 * c0
    ur, ru = (n01, n10) if photon is _PHOTON_A else (n10, n01)
    uu, rr = b0 * c0, b1 * c1
    norm2 = abs(uu) ** 2 + abs(ur) ** 2 + abs(ru) ** 2 + abs(rr) ** 2
    if norm2 <= 0.0:
        raise ZeroSurvival("click impossible: measured branch is empty")
    return _unit_pair((uu, rr, ur, ru), norm2)


def sample_partial_pair(
    pair: PairState,
    photon: Photon,
    op: PartialMeasurementOp,
    mode: TrackingMode,
    rng,
) -> MeasurementOutcome:
    """Draw a click / no-click event for a partial measurement on a pair.

    ``mode`` is read by nothing; it and this function go together
    (ROADMAP item 7)."""
    alpha = op.alpha
    amps = pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru
    terms = _SILENCE_TERMS[op.axis, op.branch]
    silent, survival = _silence(amps, photon, terms, alpha)
    p_click = _click(amps, photon, terms, alpha, survival)
    if rng.random() < p_click:
        return _outcome(True, p_click, collapse_pair(pair, photon, op), None)
    if alpha == 1.0:  # ``op.is_identity``, without the property call
        post = pair
    else:  # p_click < 1 here, so the survival is positive
        post = _unit_pair(silent, survival)
    return _outcome(False, 1.0 - p_click, post, None)


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
            object.__setattr__(self, name, _fraction(name, getattr(self, name)))

    @property
    def k_ratio(self) -> float:
        if self.alpha * self.gamma <= 0.0:
            raise DomainError("k ratio undefined when alpha * gamma = 0")
        return (self.beta * self.delta) / (self.alpha * self.gamma)


# The four steps of ``apply_quadruple``, (A up, A right, B up, B right):
# each photon and the X-axis silence terms of its measured branch.
_QUADRUPLE_STEPS = tuple(
    (photon, _SILENCE_TERMS[_X, branch]) for photon in _PHOTONS for branch in (_PLUS, _MINUS)
)


def apply_quadruple(pair: PairState, q: IntensityQuadruple) -> PairState:
    """Apply the four up/right partial measurements (A up, A right,
    B up, B right) in order, as four ``apply_partial_pair`` calls would:
    one fold over the amplitudes that builds one pair at the end, or
    returns ``pair`` itself where every fraction is 1."""
    amps, norm2 = (pair.amp_uu, pair.amp_rr, pair.amp_ur, pair.amp_ru), None
    for (photon, terms), alpha in zip(_QUADRUPLE_STEPS, (q.alpha, q.beta, q.gamma, q.delta)):
        if alpha == 1.0:
            continue
        if norm2 is not None:  # the previous step's normalization
            amps = _unit_amplitudes(amps, norm2)
        amps, norm2 = _silence(amps, photon, terms, alpha)
        if norm2 <= 0.0:
            raise _impossible(alpha)
    return pair if norm2 is None else _unit_pair(amps, norm2)


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

    Squared, these are surviving intensities, and their sum is the
    probability that all four measurements stay silent (``analytic_survival``
    of the four-step plan).
    """
    ag = math.sqrt(q.alpha * q.gamma)
    bd = math.sqrt(q.beta * q.delta)
    return (bd + ag) / 2.0, (bd - ag) / 2.0


# Per axis, the 16 bra products of ``pair_axis_amplitudes``, row-major over
# [branch of A][branch of B] and in each entry over (uu, ur, ru, rr): the
# products a_i * b_j of A's bra a and B's bra b, built once.
_PAIR_BRAS = {
    axis: tuple(
        product
        for a0, a1 in bras
        for b0, b1 in bras
        for product in (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    )
    for axis, bras in _BRAS.items()
}


def pair_axis_amplitudes(pair: PairState, axis: Axis):
    """2x2 amplitudes of the pair in ``axis`` x ``axis`` coordinates,
    indexed [branch of A][branch of B] with 0 = PLUS, 1 = MINUS."""
    try:
        bras = _PAIR_BRAS[axis]
    except KeyError:
        _check_member("axis", axis, _AXES)
        raise
    uu, ur, ru, rr = pair.amp_uu, pair.amp_ur, pair.amp_ru, pair.amp_rr
    kk0, kk1, kk2, kk3, kl0, kl1, kl2, kl3, lk0, lk1, lk2, lk3, ll0, ll1, ll2, ll3 = bras
    return [  # summed from 0, as sum() is, so a sum of -0.0 parts reads +0.0
        [
            0 + kk0 * uu + kk1 * ur + kk2 * ru + kk3 * rr,
            0 + kl0 * uu + kl1 * ur + kl2 * ru + kl3 * rr,
        ],
        [
            0 + lk0 * uu + lk1 * ur + lk2 * ru + lk3 * rr,
            0 + ll0 * uu + ll1 * ur + ll2 * ru + ll3 * rr,
        ],
    ]


def pair_distance(a: PairState, b: PairState) -> float:
    """Euclidean distance between the two amplitude vectors."""
    return math.sqrt(
        abs(a.amp_uu - b.amp_uu) ** 2
        + abs(a.amp_rr - b.amp_rr) ** 2
        + abs(a.amp_ur - b.amp_ur) ** 2
        + abs(a.amp_ru - b.amp_ru) ** 2
    )
