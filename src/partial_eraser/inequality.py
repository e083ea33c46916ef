"""A same-angle correlation inequality for chained measurement ratios.

Three observers A, B, C prepare pair experiments whose measurement-ratio
mismatches are rho between A and B, rho between B and C, and therefore
rho^2 between A and C.  The disagreement rate of diagonal-basis outcomes
at mismatch r is

    delta(r) = 1 - ((1 + sqrt(r)) / sqrt(2 + 2 r))^2,

which depends on the ratio alone and satisfies delta(r) = delta(1/r).
Any local assignment of outcomes would force

    delta_ac(rho) <= delta(rho) + delta(rho),

but with delta_ac(rho) = delta(rho^2) the left side exceeds the right
for every rho in (1, ~8.35): the chained disagreement grows faster than
additively.  Both rates are unchanged at 1 / rho, so the bound is broken
on (1 / 8.35..., 1) as well.  ``violation_region`` localizes the upper
boundary by bisection on the margin delta_ac - 2 delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def delta_pair(rho: float) -> float:
    """Disagreement rate between two observers at ratio mismatch ``rho``.

    Clipped at zero: near rho = 1 the cancellation can round a hair below.
    Where the denominator overflows, the equal rate at 1 / rho is returned.
    NaN fails every comparison, so the range check rejects it too.
    """
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho!r}")
    denominator = 2.0 + 2.0 * rho
    if denominator == math.inf:
        return delta_pair(1.0 / rho)
    return max(0.0, 1.0 - (1.0 + math.sqrt(rho)) ** 2 / denominator)


def delta_ac(rho: float) -> float:
    """Disagreement rate across the chain, at squared mismatch rho^2."""
    if not 0.0 < rho < math.inf:
        raise DomainError(f"rho must be positive and finite, got {rho!r}")
    denominator = 2.0 + 2.0 * rho * rho
    if denominator == math.inf:  # as in delta_pair, the rate at 1 / rho is equal
        return delta_ac(1.0 / rho)
    return max(0.0, 1.0 - (1.0 + rho) ** 2 / denominator)


def inequality_margin(rho: float) -> float:
    """delta_ac(rho) - 2 delta(rho); positive means the bound is broken."""
    return delta_ac(rho) - 2.0 * delta_pair(rho)


@dataclass(frozen=True)
class ViolationReport:
    """Margin evaluation at one ratio."""

    rho: float
    delta_ab: float
    delta_ac: float
    margin: float
    violated: bool


def violation_report(rho: float) -> ViolationReport:
    d_ab = delta_pair(rho)
    d_ac = delta_ac(rho)
    margin = d_ac - 2.0 * d_ab
    return ViolationReport(rho, d_ab, d_ac, margin, margin > 0.0)


def violation_region(tolerance: float) -> tuple[float, float]:
    """The interval of ratios above 1 where the additive bound is broken.

    The lower boundary is 1 (the margin vanishes quadratically and is
    positive on a dense grid just above it).  The upper boundary is the
    sign change of the margin, located by bisection to ``tolerance`` (or
    to adjacent floats).  The margin at 1 / rho equals that at rho, so the
    bound is also broken on the mirror interval below 1, not returned here.
    """
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tolerance!r}")

    # brackets (phi + sqrt(phi))^2 ~ 8.3524, README's closed form (test_boundary_regression_pinned)
    lo, hi = 8.0, 16.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: no finer bracket exists
            break
        if inequality_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0, 0.5 * (lo + hi)
