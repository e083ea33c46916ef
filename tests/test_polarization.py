import math
import re

import numpy as np
import pytest
from hypothesis import given

from partial_eraser import (
    Axis,
    Branch,
    DegenerateState,
    DomainError,
    PartialMeasurementOp,
    basis_state,
    basis_vector,
    components_in,
    from_components,
    no_click_map,
    polarization_angle,
    uncertainty_spreads,
    y_correlation_single,
)
from partial_eraser.epr import make_epr, pair_axis_amplitudes
from partial_eraser.polarization import PolarizationState

from conftest import alphas, axes, polarization_states

SQRT_HALF = math.sqrt(0.5)


def change_of_basis_oracle(state, axis):
    """Independent change of basis by explicit matrix product."""
    u = np.array(
        [basis_vector(axis, Branch.PLUS), basis_vector(axis, Branch.MINUS)]
    ).conj()
    return u @ np.array([state.amp_up, state.amp_right])


def partially_measured_diag(alpha):
    """Diagonal state after an up-branch partial measurement."""
    return no_click_map(
        PartialMeasurementOp(Axis.X, Branch.PLUS, alpha),
        basis_state(Axis.Y, Branch.PLUS),
    )


class TestComponents:
    def test_diag_in_x_is_even_mixture(self):
        c_plus, c_minus = components_in(basis_state(Axis.Y, Branch.PLUS), Axis.X)
        assert c_plus == pytest.approx(SQRT_HALF, abs=1e-15)
        assert c_minus == pytest.approx(SQRT_HALF, abs=1e-15)

    def test_up_in_x_is_basis_vector(self):
        c_plus, c_minus = components_in(basis_state(Axis.X, Branch.PLUS), Axis.X)
        assert (c_plus, c_minus) == (1.0, 0.0)

    def test_half_measured_diag_in_y(self):
        # oracle: direct change-of-basis product on the known amplitudes
        state = partially_measured_diag(0.5)
        oracle = change_of_basis_oracle(state, Axis.Y)
        c_plus, c_minus = components_in(state, Axis.Y)
        assert c_plus == pytest.approx(oracle[0], abs=1e-14)
        assert c_minus == pytest.approx(oracle[1], abs=1e-14)
        assert c_plus.real == pytest.approx((1 + math.sqrt(0.5)) / math.sqrt(3), abs=1e-12)
        assert c_minus.real == pytest.approx((1 - math.sqrt(0.5)) / math.sqrt(3), abs=1e-12)
        assert abs(c_plus) == pytest.approx(0.98560, abs=5e-6)
        assert abs(c_minus) == pytest.approx(0.16910, abs=5e-6)

    @given(polarization_states(), axes)
    def test_matches_matrix_oracle(self, state, axis):
        oracle = change_of_basis_oracle(state, axis)
        c_plus, c_minus = components_in(state, axis)
        assert abs(c_plus - oracle[0]) < 1e-12
        assert abs(c_minus - oracle[1]) < 1e-12

    @given(polarization_states(), axes)
    def test_parseval(self, state, axis):
        c_plus, c_minus = components_in(state, axis)
        assert abs(c_plus) ** 2 + abs(c_minus) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(polarization_states(), axes)
    def test_basis_round_trip(self, state, axis):
        c_plus, c_minus = components_in(state, axis)
        back = from_components(axis, c_plus, c_minus)
        assert abs(back.amp_up - state.amp_up) < 1e-12
        assert abs(back.amp_right - state.amp_right) < 1e-12

    def test_axes_mutually_unbiased(self):
        for a in Axis:
            for b in Axis:
                if a is b:
                    continue
                for branch_a in Branch:
                    for branch_b in Branch:
                        overlap = components_in(basis_state(a, branch_a), b)
                        c = overlap[0] if branch_b is Branch.PLUS else overlap[1]
                        assert abs(c) ** 2 == pytest.approx(0.5, abs=1e-12)


class TestStateValidation:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(DomainError):
            PolarizationState(1.0, 1.0)

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_rejects_nan_amplitudes(self, nan):
        """A NaN norm compares false both ways, so it fails the check."""
        for amps in ((nan, 0.0), (1.0, nan)):
            with pytest.raises(DomainError, match="unit norm"):
                PolarizationState(*amps)

    def test_from_components_rejects_zero_vector(self):
        with pytest.raises(DegenerateState):
            from_components(Axis.X, 0.0, 0.0)

    @pytest.mark.parametrize("build", [basis_vector, basis_state])
    @pytest.mark.parametrize(
        "axis, branch, field",
        [
            ("x", Branch.PLUS, "axis"),
            (None, Branch.PLUS, "axis"),
            (Branch.PLUS, Branch.PLUS, "axis"),
            (Axis.X, "minus", "branch"),
            (Axis.Y, "minus", "branch"),
            (Axis.Z, True, "branch"),
            (Axis.X, Axis.X, "branch"),
        ],
    )
    def test_basis_takes_only_members(self, build, axis, branch, field):
        """A string branch of "minus" would be read as plus, and a string
        axis would raise a bare KeyError from the basis table."""
        value = axis if field == "axis" else branch
        expected = f"^{field} must be one of .*, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=expected):
            build(axis, branch)

    @pytest.mark.parametrize(
        "call",
        [
            lambda axis: components_in(basis_state(Axis.Y, Branch.PLUS), axis),
            lambda axis: from_components(axis, 1, 0),
            lambda axis: pair_axis_amplitudes(make_epr(), axis),
        ],
        ids=["components_in", "from_components", "pair_axis_amplitudes"],
    )
    @pytest.mark.parametrize("axis", ["x", "y", None, Branch.PLUS])
    def test_axis_takes_only_members(self, call, axis):
        """A string axis would raise a bare KeyError from a basis table."""
        expected = f"^axis must be one of .*, got {re.escape(repr(axis))}$"
        with pytest.raises(DomainError, match=expected):
            call(axis)


class TestPolarizationAngle:
    @pytest.mark.parametrize(
        "alpha, expected_deg",
        [
            (1.0, 45.0),
            (0.0, 0.0),
            (0.5, math.degrees(math.atan(math.sqrt(0.5)))),
        ],
    )
    def test_measured_diag_angles(self, alpha, expected_deg):
        assert polarization_angle(partially_measured_diag(alpha)) == pytest.approx(
            expected_deg, abs=1e-9
        )

    def test_half_measurement_angle_value(self):
        assert polarization_angle(partially_measured_diag(0.5)) == pytest.approx(
            35.264, abs=5e-4
        )

    def test_strictly_monotone_in_alpha(self):
        grid = np.linspace(0.0, 1.0, 201)
        angles = [polarization_angle(partially_measured_diag(a)) for a in grid]
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_degenerate_raises(self):
        class Hollow:
            amp_up = 0j
            amp_right = 0j

        with pytest.raises(DegenerateState):
            polarization_angle(Hollow())


class TestUncertaintySpreads:
    @pytest.mark.parametrize(
        "alpha, expected",
        [
            (1.0, (1.0, 0.0)),
            (0.0, (0.0, 1.0)),
            (0.5, (2 * math.sqrt(0.5) / 1.5, 0.5 / 1.5)),
        ],
    )
    def test_values(self, alpha, expected):
        spread_x, spread_y = uncertainty_spreads(alpha)
        assert spread_x == pytest.approx(expected[0], abs=1e-12)
        assert spread_y == pytest.approx(expected[1], abs=1e-12)

    def test_half_measurement_rounded(self):
        spread_x, spread_y = uncertainty_spreads(0.5)
        assert spread_x == pytest.approx(0.94281, abs=5e-6)
        assert spread_y == pytest.approx(0.33333, abs=5e-6)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0, 10**400, True, np.True_, "0.5"])
    def test_domain(self, alpha):
        """Neither a bool nor a numeric string is a fraction, and an integer
        too large for a float is out of range, not an OverflowError."""
        with pytest.raises(DomainError, match="^alpha must"):
            uncertainty_spreads(alpha)

    def test_monotonicity(self):
        grid = np.linspace(0.0, 1.0, 401)
        xs, ys = zip(*(uncertainty_spreads(a) for a in grid))
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert all(b <= a for a, b in zip(ys, ys[1:]))

    @given(alphas)
    def test_range(self, alpha):
        spread_x, spread_y = uncertainty_spreads(alpha)
        assert 0.0 <= spread_x <= 1.0 + 1e-12
        assert 0.0 <= spread_y <= 1.0


class TestDiagonalCorrelation:
    def test_half_measurement_is_97_percent(self):
        assert y_correlation_single(0.5) == pytest.approx(0.9714, abs=5e-5)

    def test_extremes(self):
        assert y_correlation_single(1.0) == 1.0
        assert y_correlation_single(0.0) == 0.5

    @pytest.mark.parametrize("alpha", [-1e-9, 1.0000001, True, np.True_, "0.5"])
    def test_domain(self, alpha):
        with pytest.raises(DomainError, match="^alpha must"):
            y_correlation_single(alpha)

    def test_equals_half_of_one_plus_x_spread(self):
        # algebraic identity linking the correlation to the X spread
        for alpha in np.arange(0.0, 1.0 + 1e-9, 1e-3):
            spread_x, _ = uncertainty_spreads(alpha)
            assert abs(y_correlation_single(alpha) - 0.5 * (1.0 + spread_x)) < 1e-12

    def test_matches_survivor_overlap(self):
        # the correlation is the diagonal-branch weight of the survivor state
        for alpha in (0.0, 0.1, 0.3, 0.7, 1.0):
            c_plus, _ = components_in(partially_measured_diag(alpha), Axis.Y)
            assert abs(abs(c_plus) ** 2 - y_correlation_single(alpha)) < 1e-12
