import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import (
    Schedule,
    audit_community,
    giver_bounds,
    net_demand,
    phi_minus,
    phi_plus,
    synth_scenario,
    taker_bounds,
)
from gridshare.battery import FEAS_TOL
from gridshare.errors import InfeasibleDecisionError, LengthMismatchError

from conftest import make_scenario, random_scenario, sample_schedules, simple_battery


def _audit(scenario, schedules):
    return audit_community(scenario.households, schedules, 0.95, 0.9, scenario.dt)


def _leftover_by_interval(scenario, schedules):
    """The pool left per interval: offers and draws summed an interval at a time."""
    takes = scenario.net_demands() > 0.0
    leftover = []
    for t in range(scenario.horizon):
        offers = [float(s.e[t]) for m, s in enumerate(schedules) if not takes[m, t]]
        draws = [-float(s.e[t]) for m, s in enumerate(schedules) if takes[m, t]]
        built = scenario.eta_bar * math.fsum(offers)
        leftover.append(max(0.0, built - math.fsum(draws)))
    return np.array(leftover)


class TestNetDemandAndRoles:
    def test_net_demand_subtracts_corrected_output(self):
        assert net_demand(2.0, 1.0, 0.95) == pytest.approx(1.05, abs=1e-12)

    def test_no_generation_leaves_demand(self):
        assert net_demand(1.7, 0.0, 0.95) == 1.7

    def test_exact_balance_is_giver(self):
        # 0.95 - 0.95 * 1.0 is exactly 0: the replay treats it as a giver,
        # whose load is its grid charge alone and who may not draw
        scenario = make_scenario(
            demands=[[0.95, 1.0]], re_outputs=[[1.0, 0.0]], generation=[1.0, 1.0]
        )
        assert scenario.net_demands()[0, 0] == 0.0
        trace = _audit(scenario, [Schedule([0.2, 0.0], [0.0, 0.0])])
        assert trace.loads[0] == pytest.approx([0.2, 1.0], abs=1e-12)
        with pytest.raises(InfeasibleDecisionError, match="giver decision"):
            _audit(scenario, [Schedule([0.0, 0.0], [-0.1, 0.0])])

    def test_elementwise_on_arrays(self):
        d = net_demand(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 0.95)
        assert d == pytest.approx([1.05, -0.95])


class TestTakerBounds:
    def test_cannot_discharge_at_reserve_floor(self):
        bat = simple_battery()
        box = taker_bounds(bat.s_min, 1.0, 0.0, bat, 0.95, 1.0)
        assert box.a_min == 0.0
        expected_hi = min(
            phi_plus(bat.s_min, bat, 1.0),
            (bat.s_max - bat.s_min) / (0.95 * bat.eta_plus),
        )
        assert box.a_max == pytest.approx(expected_hi, abs=1e-12)

    def test_empty_pool_pins_draw_to_zero(self):
        bat = simple_battery()
        box = taker_bounds(5.0, 1.0, 0.0, bat, 0.95, 1.0)
        assert box.e_min(-0.5) == 0.0

    def test_residual_demand_binds_before_pool(self):
        bat = simple_battery()
        box = taker_bounds(5.0, 1.0, 2.0, bat, 0.95, 1.0)
        assert box.e_min(0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_decision_always_feasible(self):
        bat = simple_battery()
        box = taker_bounds(5.0, 0.3, 0.0, bat, 0.95, 1.0)
        assert box.contains(0.0, 0.0)

    def test_rejects_nonpositive_net_demand(self):
        bat = simple_battery()
        with pytest.raises(InfeasibleDecisionError):
            taker_bounds(5.0, -0.1, 0.0, bat, 0.95, 1.0)


class TestGiverBounds:
    def test_share_all_leaves_full_charging_headroom(self):
        bat = simple_battery()
        box = giver_bounds(5.0, -1.0, bat, 0.95, 1.0)
        grid_cap = (bat.s_max - 5.0) / (0.95 * bat.eta_plus)
        assert box.a_max(1.0) == pytest.approx(
            min(phi_plus(5.0, bat, 1.0), grid_cap), abs=1e-12
        )

    def test_local_charge_consumes_headroom(self):
        # battery whose CC-stage limit is exactly 2.0 at mid SOC
        bat = simple_battery(rho_plus=2.0, s_max=30.0)
        box = giver_bounds(5.0, -1.0, bat, 0.95, 1.0)
        assert box.local_charge(0.0) == 1.0
        assert box.a_max(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_excess_forces_zero_offer(self):
        bat = simple_battery()
        box = giver_bounds(5.0, 0.0, bat, 0.95, 1.0)
        assert box.e_min == box.e_max == 0.0
        assert box.a_max(0.0) > 0.0

    def test_share_all_always_feasible(self):
        # even with a nearly full battery, offering everything works
        bat = simple_battery()
        box = giver_bounds(13.49, -5.0, bat, 0.95, 1.0)
        assert box.contains(0.0, box.e_max)
        assert box.e_min <= box.e_max

    def test_excess_beyond_headroom_must_be_shared(self):
        # tiny headroom: most of the excess cannot be absorbed locally
        bat = simple_battery()
        box = giver_bounds(13.4, -5.0, bat, 0.95, 1.0)
        assert box.e_min > 0.0
        headroom_cap = -(-5.0) - (bat.s_max - 13.4) / bat.eta_plus
        assert box.e_min >= headroom_cap - 1e-12

    def test_rejects_positive_net_demand(self):
        bat = simple_battery()
        with pytest.raises(InfeasibleDecisionError):
            giver_bounds(5.0, 0.1, bat, 0.95, 1.0)


def _hand_built_day():
    """h1 takes (d = 1.0) and h2 gives (d = -0.95) in both intervals."""
    scenario = make_scenario(
        demands=[[1.0, 1.0], [0.0, 0.0]],
        re_outputs=[[0.0, 0.0], [1.0, 1.0]],
        generation=[1.0, 1.0],
    )
    return _audit(
        scenario,
        [Schedule([0.5, -1.0], [-0.2, 0.0]), Schedule([0.3, 0.0], [0.5, 0.95])],
    )


class TestLoadsAndPool:
    """Loads, pool and aggregate as the replay computes them."""

    def test_taker_load(self):
        # d + a + e
        assert _hand_built_day().loads[0, 0] == pytest.approx(1.3, abs=1e-12)

    def test_giver_load_is_grid_charge_only(self):
        assert _hand_built_day().loads[1] == pytest.approx([0.3, 0.0], abs=1e-12)

    def test_fully_self_supplied_taker(self):
        # a = -d covers the whole net demand
        assert _hand_built_day().loads[0, 1] == 0.0

    def test_negative_load_rejected(self):
        # a and e each sit inside the region's slack, but d + a + e does not
        scenario = make_scenario(
            demands=[[1.0, 1.0]], re_outputs=[[0.0, 0.0]], generation=[1.0, 1.0]
        )
        slack = 0.9e-9
        schedule = Schedule([-1.0 - slack, 0.0], [-slack, 0.0])
        with pytest.raises(InfeasibleDecisionError, match="negative load"):
            _audit(scenario, [schedule])

    def test_pool_leftover(self):
        # eta_bar * offers - draws
        assert _hand_built_day().pool_leftover == pytest.approx(
            [0.9 * 0.5 - 0.2, 0.9 * 0.95], abs=1e-12
        )

    def test_aggregate(self):
        assert _hand_built_day().aggregated == pytest.approx([1.6, 0.0], abs=1e-12)


def _assert_taker_point_feasible(s, d, pool, a, e, bat, eta_inv, dt, tol=1e-9):
    """Raw constraint inequalities, written out independently of TakerBounds."""
    assert a >= max(
        phi_minus(bat, eta_inv, dt), -(s - bat.s_min) * eta_inv * bat.eta_minus, -d
    ) - tol
    assert a <= min(phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus)) + tol
    assert -d - a - tol <= e <= tol
    assert -e <= pool + tol
    assert d + a + e >= -tol


def _assert_giver_point_feasible(s, d, a, e, bat, eta_inv, dt, tol=1e-9):
    assert -tol <= e <= -d + tol
    local = max(0.0, -d - e)
    assert a >= -tol
    assert local + a <= phi_plus(s, bat, dt) + tol
    assert bat.eta_plus * local + eta_inv * bat.eta_plus * a <= bat.s_max - s + tol


class TestRegionProperties:
    @settings(max_examples=200)
    @given(
        s=st.floats(min_value=0.5, max_value=13.5),
        d=st.floats(min_value=1e-6, max_value=3.0),
        pool=st.floats(min_value=0.0, max_value=3.0),
        fa=st.floats(min_value=0.0, max_value=1.0),
        fe=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sampled_taker_points_satisfy_raw_constraints(self, s, d, pool, fa, fe):
        bat = simple_battery()
        box = taker_bounds(s, d, pool, bat, 0.95, 1.0)
        assert box.a_min <= 0.0 <= box.a_max  # region never empty
        a = box.a_min + fa * (box.a_max - box.a_min)
        e = box.e_min(a) * fe
        assert box.contains(a, e)
        _assert_taker_point_feasible(s, d, pool, a, e, bat, 0.95, 1.0)

    @settings(max_examples=200)
    @given(
        s=st.floats(min_value=0.5, max_value=13.5),
        d=st.floats(min_value=-3.0, max_value=0.0),
        fa=st.floats(min_value=0.0, max_value=1.0),
        fe=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sampled_giver_points_satisfy_raw_constraints(self, s, d, fa, fe):
        bat = simple_battery()
        box = giver_bounds(s, d, bat, 0.95, 1.0)
        assert box.e_min <= box.e_max  # region never empty
        e = box.e_min + fe * (box.e_max - box.e_min)
        a = fa * box.a_max(e)
        assert box.contains(a, e)
        _assert_giver_point_feasible(s, d, a, e, bat, 0.95, 1.0)


class TestCommunityReplay:
    def test_schedule_series_must_match(self):
        with pytest.raises(LengthMismatchError):
            Schedule([0.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "lengths, short",
        [((3, 3), "h1 has 3"), ((7, 7), "h1 has 7"), ((6, 3), "h2 has 3")],
        ids=["cut", "one-too-many", "one-short"],
    )
    def test_schedule_of_another_length_rejected(self, rng, lengths, short):
        # cut short, one interval too many, or one full and one short: each is
        # a LengthMismatchError, neither a shorter trace nor a bare numpy error
        scenario = synth_scenario(2, 6, 5)
        full = sample_schedules(scenario, rng)
        assert _audit(scenario, full).loads.shape == (2, 6)
        schedules = [
            Schedule(np.append(s.a, 0.0)[:n], np.append(s.e, 0.0)[:n])
            for s, n in zip(full, lengths)
        ]
        with pytest.raises(LengthMismatchError, match=short + " intervals, the day 6"):
            _audit(scenario, schedules)

    @pytest.mark.parametrize(
        "households, kept, counts",
        [(2, 1, "count 1 differs from household count 2"),
         (1, 2, "count 2 differs from household count 1")],
        ids=["one-schedule-for-two", "two-schedules-for-one"],
    )
    def test_schedule_count_must_match_households(self, rng, households, kept, counts):
        # neither a bare IndexError nor a trace that drops a schedule
        scenario = synth_scenario(2, 6, 5)
        schedules = sample_schedules(scenario, rng)[:kept]
        profiles = scenario.households[:households]
        with pytest.raises(LengthMismatchError, match="schedule " + counts):
            audit_community(profiles, schedules, 0.95, 0.9, scenario.dt)

    @pytest.mark.parametrize(
        "floor_of, missed",
        [
            (lambda final: final, False),
            (lambda final: np.nextafter(final, np.inf), True),
            (lambda final: final + 2 * FEAS_TOL, True),
        ],
        ids=["at-the-floor", "one-ulp-below", "two-slacks-below"],
    )
    def test_terminal_floor_judged_exactly(self, floor_of, missed):
        scenario = make_scenario(
            demands=[[1.0, 1.0]], re_outputs=[[0.0, 0.0]], generation=[1.0, 1.0]
        )
        schedules = [Schedule([0.0, 0.0], [0.0, 0.0])]
        floor = floor_of(_audit(scenario, schedules).soc[0, -1])
        args = (scenario.households, schedules, 0.95, 0.9, scenario.dt, floor)
        if missed:
            with pytest.raises(InfeasibleDecisionError, match="missed: h1 ends at"):
                audit_community(*args)
        else:
            audit_community(*args)

    def test_random_feasible_schedules_pass_audit(self, rng):
        for _ in range(40):
            scenario = random_scenario(rng)
            schedules = sample_schedules(scenario, rng)
            trace = audit_community(
                scenario.households,
                schedules,
                scenario.eta_inv,
                scenario.eta_bar,
                scenario.dt,
            )
            assert np.all(trace.loads >= 0.0)
            assert np.all(trace.pool_leftover >= 0.0)
            reference = _leftover_by_interval(scenario, schedules)
            assert trace.pool_leftover.tobytes() == reference.tobytes()
            for i, h in enumerate(scenario.households):
                assert np.all(trace.soc[i] >= h.battery.s_min - 1e-9)
                assert np.all(trace.soc[i] <= h.battery.s_max + 1e-9)

    def test_overdrawn_pool_detected(self):
        scenario = make_scenario(
            demands=[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]],
            re_outputs=[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
            generation=[1.0, 1.0, 1.0],
        )
        # the taker draws 0.95 at t = 1 and t = 2, but each pool only holds
        # 0.9 * 0.95; the first overdrawn interval is named
        schedules = [
            Schedule([0.0, 0.0, 0.0], [0.0, -0.95, -0.95]),
            Schedule([0.0, 0.0, 0.0], [0.95, 0.95, 0.95]),
        ]
        with pytest.raises(
            InfeasibleDecisionError,
            match=r"^pool overdrawn at t=1: draws 0\.95 > 0\.855 available$",
        ):
            audit_community(scenario.households, schedules, 0.95, 0.9, 12.0)

    def test_pool_leftover_is_never_negative_zero(self):
        # a giver may offer a hair below zero, and 0.25 times the smallest
        # subnormal rounds to -0.0; the pool left is +0.0, as max(0.0, x) gives
        scenario = make_scenario(
            demands=[[1.0, 1.0], [0.0, 0.0]],
            re_outputs=[[0.0, 0.0], [1.0, 1.0]],
            generation=[1.0, 1.0],
        )
        schedules = [
            Schedule([0.0, 0.0], [0.0, 0.0]),
            Schedule([0.0, 0.0], [-5e-324, 0.95]),
        ]
        trace = audit_community(scenario.households, schedules, 0.95, 0.25, 12.0)
        assert str(0.25 * -5e-324) == "-0.0"
        assert trace.pool_leftover.tobytes() == np.array([0.0, 0.25 * 0.95]).tobytes()

    @pytest.mark.parametrize(
        "demand, re_output, a, e",
        [
            # rate limit rho_plus * dt = 3.3; the SOC has room for 7.2
            pytest.param(1.0, 0.0, 4.95, 0.0, id="taker"),
            # 3.3 less the 1.9 charged locally leaves 1.4 for the grid;
            # later intervals share all their excess
            pytest.param(0.0, 2.0, 2.0, 1.9, id="giver"),
        ],
    )
    def test_charge_above_rate_limit_detected(self, demand, re_output, a, e):
        horizon = 24
        scenario = make_scenario(
            demands=[[demand] * horizon],
            re_outputs=[[re_output] * horizon],
            generation=[1.0] * horizon,
        )
        schedule = Schedule([a] + [0.0] * (horizon - 1), [0.0] + [e] * (horizon - 1))
        with pytest.raises(InfeasibleDecisionError, match="feasible region"):
            audit_community(scenario.households, [schedule], 0.95, 0.9, scenario.dt)

    def test_taker_cannot_offer(self):
        scenario = make_scenario(
            demands=[[1.0, 1.0]], re_outputs=[[0.0, 0.0]], generation=[1.0, 1.0]
        )
        with pytest.raises(InfeasibleDecisionError):
            audit_community(
                scenario.households,
                [Schedule([0.0, 0.0], [0.5, 0.0])],
                0.95,
                0.9,
                12.0,
            )
