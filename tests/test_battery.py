import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import BatteryParams, phi_minus, phi_plus, soc_next_giver, soc_next_taker
from gridshare.battery import (
    MAX_MAGNITUDE,
    MIN_EFFICIENCY,
    residential_battery,
    self_discharge,
)
from gridshare.errors import InfeasibleActionError, InvalidBatteryParamsError

from conftest import simple_battery


def demo_battery(**overrides):
    # CC/CV hand-over at s = 8.0
    params = dict(
        s_min=0.5,
        s_max=10.0,
        rho_plus=2.0,
        rho_minus=-2.0,
        rho_bar=-0.001,
        eta_plus=0.95,
        eta_minus=0.95,
        gamma_2=1.0,
    )
    params.update(overrides)
    return BatteryParams(**params)


class TestChargingLimit:
    def test_constant_current_stage(self):
        bat = demo_battery()
        assert phi_plus(2.0, bat, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_constant_voltage_stage(self):
        bat = demo_battery()
        expected = (10.0 - 9.0) * (1.0 - math.exp(-1.0))
        assert phi_plus(9.0, bat, 1.0) == pytest.approx(expected, abs=1e-12)
        assert phi_plus(9.0, bat, 1.0) == pytest.approx(0.6321205588, abs=1e-9)

    def test_full_battery_admits_no_charge(self):
        bat = demo_battery()
        assert phi_plus(10.0, bat, 1.0) == 0.0

    def test_out_of_range_soc_rejected(self):
        bat = demo_battery()
        with pytest.raises(InfeasibleActionError):
            phi_plus(10.5, bat, 1.0)

    @given(
        s=st.floats(min_value=0.5, max_value=10.0),
        dt=st.floats(min_value=0.05, max_value=4.0),
    )
    def test_bounded_by_rate_and_nonnegative(self, s, dt):
        bat = demo_battery()
        value = phi_plus(s, bat, dt)
        assert 0.0 <= value <= bat.rho_plus * dt + 1e-12

    @given(
        s1=st.floats(min_value=8.0, max_value=10.0),
        s2=st.floats(min_value=8.0, max_value=10.0),
    )
    def test_nonincreasing_on_saturation_stage(self, s1, s2):
        bat = demo_battery()
        lo, hi = sorted((s1, s2))
        assert phi_plus(lo, bat, 1.0) >= phi_plus(hi, bat, 1.0) - 1e-12

    def test_smooth_handover_slope_identity(self):
        # the CC rate equals the initial slope of the saturation stage
        bat = demo_battery()
        assert bat.rho_plus == pytest.approx(
            (bat.s_max - bat.transition_soc) / bat.gamma_2, abs=1e-12
        )

    def test_handover_gap_vanishes_for_short_intervals(self):
        bat = demo_battery()
        dt = 1e-5
        s_tr = bat.transition_soc
        below = phi_plus(s_tr - 1e-12, bat, dt)
        above = phi_plus(s_tr, bat, dt)
        assert abs(below - above) <= 1e-9 * bat.s_max


class TestDischargingLimit:
    def test_lossy_case(self):
        bat = demo_battery()
        assert phi_minus(bat, 0.95, 1.0) == pytest.approx(-1.805, abs=1e-12)

    def test_lossless_case_equals_rate_times_time(self):
        bat = demo_battery(eta_plus=1.0, eta_minus=1.0)
        assert phi_minus(bat, 1.0, 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_half_interval_scaling(self):
        bat = demo_battery()
        assert phi_minus(bat, 0.95, 0.5) == pytest.approx(-0.9025, abs=1e-12)


class TestSocUpdates:
    def test_taker_charging(self):
        bat = simple_battery()
        assert soc_next_taker(5.0, 1.0, bat, 0.95, 1.0) == pytest.approx(
            5.9025, abs=1e-12
        )

    def test_taker_idle_self_discharges(self):
        bat = simple_battery()
        assert soc_next_taker(5.0, 0.0, bat, 0.95, 1.0) == pytest.approx(
            4.995, abs=1e-12
        )

    def test_taker_discharging(self):
        bat = simple_battery()
        assert soc_next_taker(5.0, -0.9025, bat, 0.95, 1.0) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_giver_local_charge_skips_inverter(self):
        bat = simple_battery()
        assert soc_next_giver(5.0, 0.0, 1.0, bat, 0.95, 1.0) == pytest.approx(
            5.95, abs=1e-12
        )

    def test_giver_combined_charging(self):
        bat = simple_battery()
        assert soc_next_giver(5.0, 1.0, 1.0, bat, 0.95, 1.0) == pytest.approx(
            6.8525, abs=1e-12
        )

    def test_giver_idle_self_discharges(self):
        bat = simple_battery()
        assert soc_next_giver(5.0, 0.0, 0.0, bat, 0.95, 1.0) == pytest.approx(
            4.995, abs=1e-12
        )

    def test_giver_rejects_negative_inputs(self):
        bat = simple_battery()
        with pytest.raises(InfeasibleActionError):
            soc_next_giver(5.0, -0.5, 0.0, bat, 0.95, 1.0)
        with pytest.raises(InfeasibleActionError):
            soc_next_giver(5.0, 0.0, -0.5, bat, 0.95, 1.0)

    def test_overflow_rejected(self):
        bat = simple_battery()
        with pytest.raises(InfeasibleActionError):
            soc_next_taker(13.0, 5.0, bat, 0.95, 1.0)
        with pytest.raises(InfeasibleActionError):
            soc_next_taker(0.6, -5.0, bat, 0.95, 1.0)

    @settings(max_examples=300)
    @given(
        s=st.floats(min_value=0.5, max_value=13.5),
        frac=st.floats(min_value=0.0, max_value=1.0),
        sign=st.sampled_from([-1, 1]),
        dt=st.floats(min_value=0.25, max_value=2.0),
    )
    def test_taker_update_stays_in_bounds(self, s, frac, sign, dt):
        # any action inside the rate and SOC limits keeps SOC in range
        bat = simple_battery()
        eta_inv = 0.95
        if sign > 0:
            a_cap = min(
                phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus)
            )
            a = frac * a_cap
        else:
            a_cap = max(
                phi_minus(bat, eta_inv, dt),
                -(s - bat.s_min) * eta_inv * bat.eta_minus,
            )
            a = frac * a_cap
        nxt = soc_next_taker(s, a, bat, eta_inv, dt)
        assert bat.s_min - 1e-9 <= nxt <= bat.s_max + 1e-9

    @settings(max_examples=300)
    @given(
        s=st.floats(min_value=0.5, max_value=13.5),
        frac=st.floats(min_value=0.0, max_value=1.0),
        dt=st.floats(min_value=0.25, max_value=2.0),
    )
    def test_giver_update_stays_in_bounds(self, s, frac, dt):
        bat = simple_battery()
        eta_inv = 0.95
        a_cap = min(phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus))
        nxt = soc_next_giver(s, frac * max(a_cap, 0.0), 0.0, bat, eta_inv, dt)
        assert bat.s_min - 1e-9 <= nxt <= bat.s_max + 1e-9


class TestSelfDischarge:
    @given(
        s=st.floats(min_value=0.6, max_value=13.5),
        dt=st.floats(min_value=0.1, max_value=24.0),
    )
    def test_raw_decay_is_strictly_decreasing(self, s, dt):
        bat = simple_battery()
        assert s * (1.0 + bat.rho_bar) ** dt < s

    def test_floored_at_reserve(self):
        bat = simple_battery()
        assert self_discharge(bat.s_min, bat, 1.0) == bat.s_min

    def test_daily_retention_for_hourly_intervals(self):
        bat = simple_battery()
        s = 10.0
        for _ in range(24):
            s = self_discharge(s, bat, 1.0)
        assert s == pytest.approx(10.0 * 0.999**24, abs=1e-12)


class TestRoundTripLoss:
    @given(
        eta_inv=st.floats(min_value=0.5, max_value=1.0),
        eta_p=st.floats(min_value=0.5, max_value=1.0),
        eta_m=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_no_perpetual_motion(self, eta_inv, eta_p, eta_m):
        factor = eta_inv**2 * eta_p * eta_m
        if eta_inv < 1.0 or eta_p < 1.0 or eta_m < 1.0:
            assert factor < 1.0
        else:
            assert factor == 1.0

    def test_charge_then_discharge_loses_energy(self):
        bat = simple_battery()
        eta_inv = 0.95
        s1 = soc_next_taker(5.0, 1.0, bat, eta_inv, 1.0)
        stored = s1 - 5.0
        recoverable = stored * eta_inv * bat.eta_minus
        assert recoverable < 1.0


class TestParamValidation:
    def test_default_set_is_valid(self):
        bat = residential_battery()
        assert bat.s_min < bat.s_max
        assert bat.transition_soc == pytest.approx(10.2)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"s_min": 14.0},
            {"rho_plus": 0.0},
            {"rho_minus": 0.5},
            {"rho_bar": 0.001},
            {"eta_plus": 1.5},
            {"eta_minus": 0.0},
            {"gamma_2": -1.0},
        ],
    )
    def test_invalid_params_rejected(self, overrides):
        with pytest.raises(InvalidBatteryParamsError):
            simple_battery(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"s_max": 2e30}, "s_max"),
            ({"rho_plus": 2e30}, "rho_plus"),
            ({"rho_minus": -2e30}, "rho_minus"),
            ({"rho_bar": -1.5}, "rho_bar"),
            ({"eta_plus": 1e-7}, "eta_plus"),
            ({"eta_minus": 1e-7}, "eta_minus"),
        ],
    )
    def test_range_bound_names_its_field_once(self, overrides, field):
        with pytest.raises(InvalidBatteryParamsError) as exc:
            simple_battery(**overrides)
        assert str(exc.value).count(field) == 1, str(exc.value)

    @pytest.mark.parametrize(
        "overrides",
        [
            # at s_max = 1e30 a CV span of 3.3 rounds away, so rho_plus grows too
            {"s_max": MAX_MAGNITUDE, "rho_plus": MAX_MAGNITUDE, "gamma_2": 0.5},
            {"rho_minus": -MAX_MAGNITUDE},
            {"rho_bar": -1.0},
            {"eta_plus": MIN_EFFICIENCY, "eta_minus": MIN_EFFICIENCY},
        ],
    )
    def test_values_at_the_range_bounds_accepted(self, overrides):
        simple_battery(**overrides)

    def test_rho_bar_of_minus_one_empties_an_idle_battery(self):
        # s_min = 0 here, so nothing holds the SOC up after one idle hour
        bat = simple_battery(s_min=0.0, rho_bar=-1.0)
        assert self_discharge(5.0, bat, 1.0) == 0.0
        assert self_discharge(5.0, bat, 0.5) == 0.0

    def test_handover_below_reserve_rejected(self):
        # rho_plus * gamma_2 > s_max - s_min pushes the hand-over point
        # below the reserve floor
        with pytest.raises(InvalidBatteryParamsError):
            simple_battery(rho_plus=20.0)
