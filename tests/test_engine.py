import dataclasses
import hashlib
import math

import numpy as np
import pytest

from gridshare import (
    GameConfig,
    Schedule,
    audit_community,
    best_response,
    deviation_gain,
    engine,
    initial_state,
    phi_minus,
    phi_plus,
    solve,
    sweep,
    synth_scenario,
)
from gridshare.engine import (
    _bill_of,
    _build_env,
    _build_problem,
    _dp,
    _exhaustive,
    _local_grids,
    _matrices,
    _reachable_grids,
    _respond,
    _soc_trajectory,
    _stage,
    _terminal_values,
    _transition,
    _uniform_grid,
)
from gridshare.errors import GridShareError, InfeasibleConfigError

from conftest import community_bill, make_scenario, simple_battery


def schedules_from_state(A, E):
    return [Schedule(A[m], E[m]) for m in range(A.shape[0])]


def replay_loads(scenario, schedules):
    trace = audit_community(
        scenario.households,
        schedules,
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
    )
    return trace.loads


class TestGameConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilon": 0.0},
            {"max_sweeps": 0},
            {"soc_grid": 1},
            {"action_grid": 2},
            {"epsilon": math.inf},
            {"seed": -1},
            {"epsilon": math.nan},
            {"epsilon": -1.0},
            {"terminal_soc_min": math.inf},
            {"terminal_soc_min": math.nan},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(GridShareError):
            GameConfig(**overrides)


class TestBestResponse:
    def test_exhaustive_gate_counts_leaves_exactly(self):
        # a giver then a taker interval at 9 actions: 81 * 90 = 7290 leaves,
        # counted exactly, so a cap of 7290 admits the tree and 7289 does not
        taker = np.array([False, True])
        assert _exhaustive(taker, 9, 7290)
        assert not _exhaustive(taker, 9, 7289)

    def test_pinched_battery_leaves_load_at_net_demand(self, tiny_config):
        # near-singleton battery: reserve floor almost at capacity, so the
        # only feasible battery actions are vanishingly small
        bat = simple_battery(
            s_min=5.0, s_max=5.001, rho_plus=0.001, rho_minus=-0.001, gamma_2=1.0
        )
        scenario = make_scenario(
            demands=[[1.0, 1.0]],
            re_outputs=[[0.0, 0.0]],
            generation=[1.0, 1.0],
            batteries=[bat],
            initial_socs=[5.0],
        )
        sched = best_response(
            scenario, [Schedule([0.0, 0.0], [0.0, 0.0])], 0, tiny_config
        )
        d = scenario.net_demands()[0]
        assert np.all(sched.e == 0.0)  # empty pool pins draws to zero
        assert np.all(np.abs(sched.a) <= 0.002)
        loads = replay_loads(scenario, [sched])[0]
        assert loads == pytest.approx(d, abs=0.002)

    def test_shifts_load_toward_generous_interval(self, tiny_config):
        # generation is plentiful early and absent late: the household
        # should charge while energy is cheap and discharge afterwards
        scenario = make_scenario(
            demands=[[0.5, 0.5]],
            re_outputs=[[0.0, 0.0]],
            generation=[1.2, 0.0],
            initial_socs=[0.6],  # nearly empty battery, so energy must be bought
        )
        sched = best_response(
            scenario, [Schedule([0.0, 0.0], [0.0, 0.0])], 0, tiny_config
        )
        loads = replay_loads(scenario, [sched])[0]
        assert loads[0] > loads[1]

    def test_matches_dense_grid_oracle(self, tiny_config, monkeypatch):
        # one household, two intervals: enumerate a dense grid over both
        # battery actions and check the solver is at least as good
        scenario = make_scenario(
            demands=[[0.5, 0.5]],
            re_outputs=[[0.0, 0.0]],
            generation=[1.2, 0.0],
            initial_socs=[0.6],
        )
        h = scenario.households[0]
        bat = h.battery
        eta_inv = scenario.eta_inv
        dt = scenario.dt
        d = scenario.net_demands()[0]
        tariff = scenario.tariff

        def feasible_a(s):
            lo = min(
                0.0,
                max(
                    phi_minus(bat, eta_inv, dt),
                    -(s - bat.s_min) * eta_inv * bat.eta_minus,
                    -float(d[0]),
                ),
            )
            hi = max(
                0.0, min(phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus))
            )
            return lo, hi

        def step(s, a):
            if a > 0:
                return min(s + eta_inv * bat.eta_plus * a, bat.s_max)
            if a < 0:
                return max(s + a / (eta_inv * bat.eta_minus), bat.s_min)
            return max(bat.s_min, s * (1.0 + bat.rho_bar) ** dt)

        best = math.inf
        s0 = h.initial_soc
        lo0, hi0 = feasible_a(s0)
        for a0 in np.linspace(lo0, hi0, 240):
            s1 = step(s0, a0)
            lo1 = min(
                0.0,
                max(
                    phi_minus(bat, eta_inv, dt),
                    -(s1 - bat.s_min) * eta_inv * bat.eta_minus,
                    -float(d[1]),
                ),
            )
            hi1 = max(
                0.0,
                min(phi_plus(s1, bat, dt), (bat.s_max - s1) / (eta_inv * bat.eta_plus)),
            )
            for a1 in np.linspace(lo1, hi1, 240):
                loads = np.array([d[0] + a0, d[1] + a1])
                bill = math.fsum(
                    loads[t]
                    * ((loads[t] - tariff.generation[t]) ** 2 + tariff.p0)
                    for t in range(2)
                )
                best = min(best, bill)

        # a cap of 1 forces the refining DP path even on this tiny game,
        # so the solver should approach the continuous optimum
        monkeypatch.setattr(engine, "_EXACT_CAP", 1)
        config = GameConfig(soc_grid=16, action_grid=7, seed=0)
        sched = best_response(
            scenario, [Schedule([0.0, 0.0], [0.0, 0.0])], 0, config
        )
        loads = replay_loads(scenario, [sched])[0]
        bill = community_bill(scenario, loads.reshape(1, -1), 0)
        assert bill <= best + 1e-3

    def test_free_pool_beats_any_paid_load(self, tiny_config):
        # the pool fully covers the taker's demand; drawing it all is free
        scenario = make_scenario(
            demands=[[1.0], [0.0]],
            re_outputs=[[0.0], [2.0]],
            generation=[0.0],
        )
        others = [
            Schedule([0.0], [0.0]),
            Schedule([0.0], [1.9]),  # giver shares all its excess
        ]
        sched = best_response(scenario, others, 0, tiny_config)
        loads = replay_loads(scenario, [sched, others[1]])
        assert loads[0][0] <= 1e-9
        bill = community_bill(scenario, loads, 0)
        assert bill <= 1e-12

    def test_never_worsens_the_incumbent(self, rng, tiny_config):
        from conftest import random_scenario, sample_schedules

        for _ in range(25):
            scenario = random_scenario(rng)
            schedules = sample_schedules(scenario, rng)
            loads = replay_loads(scenario, schedules)
            m = int(rng.integers(0, scenario.n_households))
            old_bill = community_bill(scenario, loads, m)
            new = best_response(scenario, schedules, m, tiny_config)
            new_schedules = list(schedules)
            new_schedules[m] = new
            new_loads = replay_loads(scenario, new_schedules)
            new_bill = community_bill(scenario, new_loads, m)
            assert new_bill <= old_bill + 1e-9


class TestSweep:
    def test_fixed_point_reports_no_improvement(self):
        scenario = make_scenario(
            demands=[[0.8, 0.4, 0.6], [0.2, 0.9, 0.1]],
            re_outputs=[[0.0, 0.5, 0.0], [0.4, 0.0, 0.3]],
            generation=[0.9, 0.8, 0.5],
        )
        config = GameConfig(soc_grid=24, action_grid=5, seed=3)
        result = solve(scenario, config)
        assert result.converged
        again, improved = sweep(scenario, result.schedules, config)
        assert improved is False
        for before, after in zip(result.schedules, again):
            assert np.allclose(before.a, after.a, atol=1e-9)
            assert np.allclose(before.e, after.e, atol=1e-9)

    def test_single_household_one_call(self, tiny_config):
        scenario = make_scenario(
            demands=[[0.5, 0.5]], re_outputs=[[0.0, 0.0]], generation=[1.2, 0.0]
        )
        start = [Schedule([0.0, 0.0], [0.0, 0.0])]
        after, improved = sweep(scenario, start, tiny_config)
        assert improved is True  # the idle schedule is suboptimal here
        _, improved_again = sweep(scenario, after, tiny_config)
        assert improved_again is False

    def test_gain_within_epsilon_is_not_adopted(self, tiny_config):
        # a sweep adopts under solve's rule: only drops above epsilon
        scenario = make_scenario(
            demands=[[0.5, 0.5]], re_outputs=[[0.0, 0.0]], generation=[1.2, 0.0]
        )
        start = [Schedule([0.0, 0.0], [0.0, 0.0])]
        gain = _respond(_build_problem(scenario), *_matrices(start), 0, tiny_config)[2]
        assert gain > 0.0
        config = dataclasses.replace(tiny_config, epsilon=2.0 * gain)
        after, improved = sweep(scenario, start, config)
        assert improved is False
        assert np.array_equal(after[0].a, start[0].a)
        assert np.array_equal(after[0].e, start[0].e)


class TestInitialState:
    def test_random_init_is_feasible(self, rng):
        from conftest import random_scenario

        for seed in range(20):
            scenario = random_scenario(rng)
            config = GameConfig(seed=seed)
            A, E = initial_state(scenario, config)
            audit_community(
                scenario.households,
                schedules_from_state(A, E),
                scenario.eta_inv,
                scenario.eta_bar,
                scenario.dt,
            )

    def test_cold_start_is_zero_or_share_all(self):
        scenario = make_scenario(
            demands=[[1.0, 0.0]],
            re_outputs=[[0.0, 1.0]],
            generation=[1.0, 1.0],
        )
        A, E = initial_state(scenario, GameConfig(cold_start=True))
        d = scenario.net_demands()[0]
        assert np.all(A == 0.0)
        assert E[0, 0] == 0.0          # taker interval: no draw
        assert E[0, 1] == -d[1]        # giver interval: share everything

    def test_seed_determinism(self):
        scenario = make_scenario(
            demands=[[1.0, 0.5], [0.3, 0.9]],
            re_outputs=[[0.2, 0.8], [0.5, 0.1]],
            generation=[1.0, 1.0],
        )
        A1, E1 = initial_state(scenario, GameConfig(seed=11))
        A2, E2 = initial_state(scenario, GameConfig(seed=11))
        A3, _ = initial_state(scenario, GameConfig(seed=12))
        assert np.array_equal(A1, A2) and np.array_equal(E1, E2)
        assert not np.array_equal(A1, A3)


class TestSolve:
    def test_single_household_converges_quickly(self):
        scenario = make_scenario(
            demands=[[0.6, 0.2, 0.9, 0.4]],
            re_outputs=[[0.0, 0.3, 0.0, 0.2]],
            generation=[0.8, 0.2, 0.6, 0.3],
        )
        config = GameConfig(soc_grid=24, action_grid=5, seed=1)
        result = solve(scenario, config)
        assert result.converged
        assert result.sweeps_used <= 2
        # with nobody else playing, the result is a plain best response
        gain = deviation_gain(scenario, result.schedules, 0, config)
        assert gain <= config.epsilon + 1e-9

    def test_result_state_is_rederivable(self):
        scenario = make_scenario(
            demands=[[0.8, 0.4], [0.2, 0.9]],
            re_outputs=[[0.0, 0.5], [0.4, 0.0]],
            generation=[0.9, 0.8],
        )
        config = GameConfig(soc_grid=16, action_grid=5, seed=5)
        result = solve(scenario, config)
        trace = audit_community(
            scenario.households,
            result.schedules,
            scenario.eta_inv,
            scenario.eta_bar,
            scenario.dt,
        )
        assert np.allclose(trace.loads, result.loads, atol=1e-12)
        assert np.allclose(trace.aggregated, result.aggregated, atol=1e-12)
        assert np.allclose(trace.soc, result.soc, atol=1e-12)
        assert np.allclose(trace.pool_leftover, result.pool, atol=1e-12)
        for m in range(scenario.n_households):
            assert result.bills[m] == pytest.approx(
                community_bill(scenario, trace.loads, m), abs=1e-12
            )

    def test_deterministic_across_runs(self):
        scenario = make_scenario(
            demands=[[0.8, 0.4], [0.2, 0.9]],
            re_outputs=[[0.0, 0.5], [0.4, 0.0]],
            generation=[0.9, 0.8],
        )
        config = GameConfig(soc_grid=16, action_grid=5, seed=5)
        r1 = solve(scenario, config)
        r2 = solve(scenario, config)
        assert r1.bills == r2.bills
        assert np.array_equal(r1.loads, r2.loads)
        assert np.array_equal(r1.soc, r2.soc)
        assert r1.converged == r2.converged
        assert r1.sweeps_used == r2.sweeps_used

    def test_sweep_cap_reports_honest_failure(self):
        from gridshare import synth_scenario

        scenario = synth_scenario(3, 8, seed=0)
        config = GameConfig(soc_grid=24, action_grid=5, seed=0, max_sweeps=1)
        result = solve(scenario, config)
        assert result.converged is False
        assert result.max_deviation_gain > 0.0
        # the state is measured once, without adopting, and that pass is logged
        last = result.convergence_log[-1]
        assert last["certification"] is True
        assert last["max_bill_drop"] == result.max_deviation_gain
        # the report is still complete and internally consistent
        assert len(result.bills) == 3
        assert result.loads.shape == (3, 8)

    def test_exact_mode_clean_sweep_is_the_certificate(self):
        # the criterion-3 day: every candidate tree fits exact_cap, so the
        # check grids are the game's own and no pass follows the clean sweep
        scenario = synth_scenario(2, 2, seed=1)
        result = solve(scenario, GameConfig(soc_grid=5, action_grid=5, seed=1))
        assert result.converged
        assert len(result.convergence_log) == result.sweeps_used
        assert result.convergence_log[-1]["max_bill_drop"] == 0.0

    def test_terminal_soc_floor_respected(self):
        scenario = make_scenario(
            demands=[[0.9, 0.9]], re_outputs=[[0.0, 0.0]], generation=[0.5, 0.5]
        )
        floor = 6.5
        config = GameConfig(
            soc_grid=24, action_grid=5, seed=2, terminal_soc_min=floor
        )
        result = solve(scenario, config)
        assert result.soc[0, -1] >= floor - 1e-6

    def test_floor_met_only_between_two_cells(self):
        # the floor sits 0.01 below the highest terminal SOC the candidates
        # reach, with no cell of the round-0 grid between the two:
        # interpolating between the inf cell below and the cell above reads
        # inf, so only the floor path's nodes keep the feasible SOCs finite.
        # The random start misses the floor unless it, too, follows the path.
        scenario, env = slow_charger(None)
        top = env.s0
        for t in range(env.horizon):
            top = highest_successor(env, t, top)
        floor = top - 0.01
        grid = _uniform_grid(env, 24)
        assert not np.any((grid >= floor) & (grid <= top))
        config = GameConfig(soc_grid=24, action_grid=5, terminal_soc_min=floor)
        result = solve(scenario, config)
        assert floor <= result.soc[0, -1] <= top


def slow_charger(terminal_min, T=4):
    """A lone taker that charges at most ~2.4 kWh an interval from 0.6 kWh.

    Returns its scenario and its best-response env under ``terminal_min``.
    """
    scenario = make_scenario(
        demands=[[0.9] * T],
        re_outputs=[[0.0] * T],
        generation=[0.5] * T,
        batteries=[simple_battery(rho_plus=0.45)],
        initial_socs=[0.6],
    )
    zeros = np.zeros((1, T))
    return scenario, _build_env(_build_problem(scenario), zeros, zeros, 0, terminal_min)


def highest_successor(env, t, s):
    none = np.zeros(0)
    return float(_stage(env, t, np.array([s]), 2, none, none)[3].max())


class TestDeviationGain:
    def test_zero_at_certified_equilibrium(self):
        scenario = make_scenario(
            demands=[[0.8, 0.4], [0.2, 0.9]],
            re_outputs=[[0.0, 0.5], [0.4, 0.0]],
            generation=[0.9, 0.8],
        )
        config = GameConfig(soc_grid=24, action_grid=5, seed=4)
        result = solve(scenario, config)
        assert result.converged
        for m in range(scenario.n_households):
            assert deviation_gain(scenario, result.schedules, m, config) <= (
                config.epsilon + 1e-9
            )

    def test_positive_after_feasible_perturbation(self):
        scenario = make_scenario(
            demands=[[0.5, 0.5]], re_outputs=[[0.0, 0.0]], generation=[1.2, 0.0]
        )
        config = GameConfig(soc_grid=24, action_grid=5, seed=4)
        # the idle schedule is feasible but clearly not a best response
        idle = [Schedule([0.0, 0.0], [0.0, 0.0])]
        assert deviation_gain(scenario, idle, 0, config) > 0.0

    @pytest.mark.parametrize(
        "shape, overrides, converged",
        [
            ((3, 8, 0), dict(soc_grid=24, action_grid=5, seed=0), True),
            ((3, 8, 0), dict(soc_grid=24, action_grid=5, seed=0, max_sweeps=1), False),
            # every candidate tree fits exact_cap: the criterion-3 day, which
            # certifies on its own grids, where the search is exact
            ((2, 2, 1), dict(soc_grid=5, action_grid=5, seed=1), True),
        ],
        ids=["converged", "sweep-capped", "exact-mode"],
    )
    def test_emitted_gains_match_the_public_measure(self, shape, overrides, converged):
        from gridshare import synth_scenario

        M, T, seed = shape
        scenario = synth_scenario(M, T, seed=seed)
        config = GameConfig(**overrides)
        result = solve(scenario, config)
        assert result.converged is converged
        for m in range(scenario.n_households):
            assert result.deviation_gains[m] == deviation_gain(
                scenario, result.schedules, m, config
            )

    def test_zero_for_pinched_battery_alone(self, tiny_config):
        bat = simple_battery(
            s_min=5.0, s_max=5.001, rho_plus=0.001, rho_minus=-0.001
        )
        scenario = make_scenario(
            demands=[[1.0, 1.0]],
            re_outputs=[[0.0, 0.0]],
            generation=[1.0, 1.0],
            batteries=[bat],
            initial_socs=[5.0],
        )
        sched = best_response(
            scenario, [Schedule([0.0, 0.0], [0.0, 0.0])], 0, tiny_config
        )
        gain = deviation_gain(scenario, [sched], 0, tiny_config)
        assert gain <= tiny_config.epsilon


def flat_dp(env, grids, n_act, extras_a, extras_e):
    """Reference DP that steps and looks up every (a, e) pair of every stage.

    Returns the rolled-out (a, e) and the backward values.
    """
    horizon = env.horizon
    if env.terminal_min is not None:
        grids = [
            g if f is None else np.union1d(g, [f])
            for g, f in zip(grids, env.floor_path)
        ]
    values = [None] * (horizon + 1)
    values[horizon] = _terminal_values(env, grids[horizon])

    def totals(t, s):
        # flatten the stage block into (state, pair) rows and step every pair
        # itself, so a taker's per-action nxt is not trusted here
        a, e, cost, _ = _stage(env, t, s, n_act, extras_a[t], extras_e[t])
        block = cost.shape
        a, e, cost = (
            np.broadcast_to(x, block).reshape(len(s), -1) for x in (a, e, cost)
        )
        nxt = _transition(env, t, s[:, None], a, e)
        return a, e, nxt, cost + np.interp(nxt, grids[t + 1], values[t + 1])

    for t in range(horizon - 1, 0, -1):
        values[t] = totals(t, grids[t])[3].min(axis=1)

    a_out = np.zeros(horizon)
    e_out = np.zeros(horizon)
    s = env.s0
    for t in range(horizon):
        a, e, nxt, total = (x[0] for x in totals(t, np.array([s])))
        if not np.isfinite(total).any():
            raise InfeasibleConfigError("unreachable")
        best = np.lexsort((nxt, np.abs(e), np.abs(a), total))[0]
        a_out[t] = a[best]
        e_out[t] = e[best]
        s = float(nxt[best])
    return a_out, e_out, values


class TestStageReduction:
    def test_dp_matches_flat_reference_bit_for_bit(self):
        # taker stages minimize the draw before the SOC step and the lookup;
        # the rolled-out schedule must equal the all-pairs reference exactly
        rng = np.random.default_rng(2024)
        seen = {"taker": 0, "giver": 0, "inf": 0, "local": 0}
        for case in range(48):
            M, T = int(rng.integers(2, 4)), int(rng.integers(4, 11))
            scenario = synth_scenario(M, T, seed=int(rng.integers(0, 1000)))
            problem = _build_problem(scenario)
            A, E = initial_state(scenario, GameConfig(seed=case))
            m = int(rng.integers(0, M))
            bat = scenario.households[m].battery
            terminal = None
            if case % 2:
                terminal = bat.s_min + rng.uniform(0.1, 0.7) * (bat.s_max - bat.s_min)
            env = _build_env(problem, A, E, m, terminal)
            n_act = int(rng.integers(3, 10))
            n_grid = int(rng.integers(6, 48))
            sigma = rng.uniform(0.05, 0.5) * (env.s_max - env.s_min)
            if case % 3 == 0:
                grids = [_uniform_grid(env, n_grid)] * (T + 1)
            else:
                traj = _soc_trajectory(env, A[m], E[m])
                grids = _local_grids(env, traj, n_grid, sigma)
                seen["local"] += 1
            offsets = sigma * np.linspace(-1.0, 1.0, int(rng.integers(1, 8)))
            extras_a = A[m][:, None] + offsets
            extras_e = E[m][:, None] + offsets
            ref_a, ref_e, values = flat_dp(env, grids, n_act, extras_a, extras_e)
            a, e = _dp(env, grids, n_act, extras_a, extras_e)
            assert np.array_equal(a, ref_a) and np.array_equal(e, ref_e), case
            seen["taker"] += int(env.taker.sum())
            seen["giver"] += int((~env.taker).sum())
            seen["inf"] += int(any(np.isinf(v).any() for v in values[1:]))
        assert min(seen.values()) > 0, seen


class TestValueLookup:
    # _dp looks a successor up with np.interp(nxt, grid, values); these pin
    # what it relies on next to the inf cells of a terminal_soc_min floor

    def test_interp_is_inf_beside_the_floor_and_exact_on_cells(self):
        scenario = make_scenario(
            demands=[[0.5]], re_outputs=[[0.0]], generation=[0.5]
        )
        env = _build_env(
            _build_problem(scenario), np.zeros((1, 1)), np.zeros((1, 1)), 0, 6.5
        )
        grid = _uniform_grid(env, 17)
        values = _terminal_values(env, grid) + np.linspace(0.3, 1.9, len(grid))
        inf = np.isinf(values)
        assert inf.any() and not inf.all()
        # every cell gives its own value, inf or not
        assert np.array_equal(np.interp(grid, grid, values), values)
        # strictly between two cells: inf when either cell is inf
        mid = 0.5 * (grid[:-1] + grid[1:])
        looked = np.interp(mid, grid, values)
        beside = inf[:-1] | inf[1:]
        assert np.all(np.isposinf(looked[beside]))
        assert np.all(np.isfinite(looked[~beside]))
        dense = np.linspace(env.s_min, env.s_max, 4001)
        assert not np.isnan(np.interp(dense, grid, values)).any()

    def test_floor_path_is_the_reach_boundary(self):
        # each entry's highest successor reaches the next entry and a SOC
        # 1e-4 below it falls short: the scan rounds up by less than that
        _, env = slow_charger(9.0)
        path = env.floor_path
        assert path[0] is None and path[-1] == 9.0
        for t in range(1, env.horizon):
            assert env.s_min < path[t] < path[t + 1]
            assert highest_successor(env, t, path[t]) >= path[t + 1]
            assert highest_successor(env, t, path[t] - 1e-4) < path[t + 1]

    def test_dp_values_hold_no_nan_under_a_floor(self, monkeypatch):
        scenario = synth_scenario(2, 6, seed=5)
        problem = _build_problem(scenario)
        A, E = initial_state(scenario, GameConfig(seed=0))
        inf_between_cells = []
        interp = np.interp

        def spy(x, xp, fp):
            out = interp(x, xp, fp)
            assert not np.isnan(fp).any() and not np.isnan(out).any()
            inf_between_cells.append(np.isinf(out[~np.isin(x, xp)]).sum())
            return out

        monkeypatch.setattr(np, "interp", spy)
        for m in range(2):
            env = _build_env(problem, A, E, m, 6.0)
            grids = [_uniform_grid(env, 24)] * (env.horizon + 1)
            none = np.zeros((env.horizon, 0))
            a, e = _dp(env, grids, 5, none, none)
            assert _soc_trajectory(env, a, e)[-1] >= 6.0 - 1e-9
        assert sum(inf_between_cells) > 0


def dfs_best(env, n_act):
    """Reference exhaustive search: depth first over the candidate tree.

    Propagates the exact SOC and keeps the first of equal totals in block
    order, so exact bill ties may resolve differently from the DP rollout.
    """
    horizon = env.horizon
    none = np.zeros(0)

    def rec(t, s):
        if t == horizon:
            return float(_terminal_values(env, np.array([s]))[0]), [], []
        a, e, cost, nxt = _stage(env, t, np.array([s]), n_act, none, none)
        a, e, cost, nxt = (
            np.broadcast_to(x, cost.shape).ravel() for x in (a, e, cost, nxt)
        )
        best = (math.inf, [], [])
        for k in range(len(a)):
            sub_cost, sub_a, sub_e = rec(t + 1, float(nxt[k]))
            total = float(cost[k]) + sub_cost
            if total < best[0]:
                best = (total, [float(a[k])] + sub_a, [float(e[k])] + sub_e)
        return best

    total, a_seq, e_seq = rec(0, env.s0)
    if not math.isfinite(total):
        raise InfeasibleConfigError("unreachable")
    return np.array(a_seq), np.array(e_seq)


def exhaustive_dp(env, n_act):
    none = np.zeros((env.horizon, 0))
    return _dp(env, _reachable_grids(env, n_act), n_act, none, none)


class TestExhaustiveSearch:
    def test_dp_on_reachable_grids_matches_dfs_reference(self):
        # every successor SOC is a cell of the next reachable grid, so the DP
        # finds the DFS optimum exactly; only exact bill ties may differ
        rng = np.random.default_rng(7)
        cap = engine._EXACT_CAP
        seen = {"taker": 0, "giver": 0, "floor": 0, "infeasible": 0}
        cases = ties = 0
        while cases < 200:
            M, T = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            scenario = synth_scenario(M, T, seed=int(rng.integers(0, 1000)))
            A, E = initial_state(scenario, GameConfig(seed=cases))
            m = int(rng.integers(0, M))
            n_act = int(rng.integers(3, 7))
            terminal = None
            if cases % 4 == 0:
                bat = scenario.households[m].battery
                terminal = bat.s_min + rng.uniform(0.2, 1.1) * (bat.s_max - bat.s_min)
            env = _build_env(_build_problem(scenario), A, E, m, terminal)
            if not _exhaustive(env.taker, n_act, cap):
                continue
            cases += 1
            seen["taker"] += int(env.taker.sum())
            seen["giver"] += int((~env.taker).sum())
            try:
                ref_a, ref_e = dfs_best(env, n_act)
            except InfeasibleConfigError:
                with pytest.raises(InfeasibleConfigError):
                    exhaustive_dp(env, n_act)
                seen["infeasible"] += 1
                continue
            seen["floor"] += terminal is not None
            a, e = exhaustive_dp(env, n_act)
            assert _bill_of(env, a, e) == _bill_of(env, ref_a, ref_e), cases
            # a schedule that differs at an equal bill is an exact tie
            ties += not (np.array_equal(a, ref_a) and np.array_equal(e, ref_e))
        assert min(seen.values()) > 0, seen
        assert ties <= cases // 20, ties

    def test_one_cell_level_and_tie_rule(self):
        # h1 starts full and gives at t=0: its one offer leaves a single
        # reachable SOC at level 1, whose lookup interpolates on a one-cell
        # grid.  h2 covers its 1 kWh taker demand at a bill of 0 either by
        # discharging or from the pool; the rollout's tie rule (cost, then
        # |a|, |e|, SOC) takes the draw, the DFS the first-listed discharge
        scenario = make_scenario(
            demands=[[0.0, 0.0], [1.0, 0.0]],
            re_outputs=[[2.0, 0.0], [0.0, 0.0]],
            generation=[1.0, 1.0],
            initial_socs=[13.5, 7.0],
        )
        config = GameConfig(soc_grid=5, action_grid=4, seed=0)
        result = solve(scenario, config)
        assert result.converged and result.bills == [0.0, 0.0]
        A, E = _matrices(result.schedules)
        problem = _build_problem(scenario)
        h1 = _build_env(problem, A, E, 0, None)
        assert len(_reachable_grids(h1, config.action_grid)[1]) == 1
        assert (A[1, 0], E[1, 0]) == (0.0, -1.0)
        h2 = _build_env(problem, A, E, 1, None)
        ref_a, ref_e = dfs_best(h2, config.action_grid)
        assert (ref_a[0], ref_e[0]) == (-1.0, 0.0)
        assert _bill_of(h2, ref_a, ref_e) == _bill_of(h2, A[1], E[1]) == 0.0


class TestGoldenSchedules:
    # sha256 of the solved A then E (float64, C order): a kernel change that
    # moves any bit of these schedules fails here, not only in the benchmark
    @pytest.mark.parametrize(
        "shape, overrides, digest",
        [
            (
                (3, 12, 4),
                dict(cold_start=True, soc_grid=32, action_grid=5),
                "8bc8c51862f4a32c73e7cee1039ceb380c3e782c8bcf0d02723f7ee7e58b8f49",
            ),
            (
                (2, 6, 5),
                dict(soc_grid=24, action_grid=5, terminal_soc_min=6.0),
                "b0d64256b1e2ce0ddfeae40ab601feb488016b2de7af21ffd41269b4898b976b",
            ),
            (
                # every pool draw here covers the taker's whole residual
                # demand, an end of the draw axis
                (3, 8, 1),
                dict(soc_grid=24, action_grid=5),
                "8d5fa0f64513d0441c9c3aa44243bfe89e0a7cea79aec85f64000ecc4ec3b501",
            ),
            (
                # a taker here keeps an interior pool draw the exact
                # per-interval draw scan (bench/checks.draw_gains) beats by
                # 1.3e-6, so the digest pins the sampled draw axis itself
                (3, 8, 5),
                dict(soc_grid=24, action_grid=5),
                "33642885940d16cda42a859578c1d39f660cd29266e2556ab105564e63d23610",
            ),
            (
                # the criterion-3 day: every tree fits exact_cap, so the
                # search is exhaustive and no value lookup rounds or blends
                (2, 2, 1),
                dict(soc_grid=5, action_grid=5, seed=1),
                "91084988c002ac76985a356e13dd7eb9b70e85cf5ede8796c44673769f2ff045",
            ),
        ],
        ids=[
            "3x12-seed4-cold",
            "2x6-seed5-terminal",
            "3x8-seed1-draw",
            "3x8-seed5-draw",
            "2x2-seed1-exact",
        ],
    )
    def test_solved_schedules_are_pinned(self, shape, overrides, digest):
        M, T, seed = shape
        result = solve(synth_scenario(M, T, seed=seed), GameConfig(**overrides))
        A = np.array([s.a for s in result.schedules], dtype=float)
        E = np.array([s.e for s in result.schedules], dtype=float)
        assert hashlib.sha256(A.tobytes() + E.tobytes()).hexdigest() == digest
