"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (straight to the terminal, past
pytest's capture) so a release run can be audited at a glance.  Tolerances
are stated inline next to each assertion.
"""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from gridshare import (
    BatteryParams,
    GameConfig,
    Schedule,
    TariffParams,
    audit_community,
    best_response,
    daily_bill,
    daily_bill_decomposed,
    deviation_gain,
    phi_minus,
    phi_plus,
    run,
    soc_next_giver,
    soc_next_taker,
    solve,
    synth_scenario,
)
from gridshare.battery import residential_battery
from gridshare.cli import main as cli_main
from gridshare.report import emit, result_document, traces_table

from conftest import community_bill, random_scenario, sample_schedules, simple_battery


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(
            "[ACCEPTANCE %d] %s: %s" % (criterion, "PASS" if ok else "FAIL", detail)
        )
    assert ok, detail


@pytest.fixture(scope="module")
def flagship():
    """The reference community: 4 households, hourly intervals, seed 7."""
    scenario = synth_scenario(4, 24, seed=7)
    config = GameConfig()
    start = time.perf_counter()
    result = solve(scenario, config)
    elapsed = time.perf_counter() - start
    return scenario, config, result, elapsed


def test_criterion_1_equilibrium_certificate(flagship, capsys):
    scenario, config, result, elapsed = flagship
    gains = [
        deviation_gain(scenario, result.schedules, m, config)
        for m in range(scenario.n_households)
    ]
    ok = (
        result.converged
        and max(gains) <= config.epsilon + 1e-9  # certificate tolerance
        and elapsed <= 60.0
    )
    announce(
        capsys,
        1,
        ok,
        "converged=%s, max deviation gain on the check grids %.3g (eps=%g), solve %.1fs"
        % (result.converged, max(gains), config.epsilon, elapsed),
    )


def test_flagship_equilibrium_holds_on_4x_grids(flagship):
    # deviation_gain refines this 2x config once more, so the search runs on
    # 4x the game's grids, a rung the solver never adopted from
    scenario, config, result, _ = flagship
    finer = replace(config, soc_grid=128, action_grid=18)
    gains = [
        deviation_gain(scenario, result.schedules, m, finer)
        for m in range(scenario.n_households)
    ]
    assert max(gains) <= config.epsilon, gains


def test_flagship_schedules_are_pinned(flagship):
    # sha256 of the solved A then E (float64, C order), as the golden days
    # of tests/test_engine.py: a kernel change that moves any bit fails here
    _, _, result, _ = flagship
    A = np.array([s.a for s in result.schedules], dtype=float)
    E = np.array([s.e for s in result.schedules], dtype=float)
    assert hashlib.sha256(A.tobytes() + E.tobytes()).hexdigest() == (
        "83d451c65c9801f92a8e62cee558fb277b9e21622bb95f7f639e03be636d63ed"
    )


def test_criterion_2_tracking_error_reduction(flagship, capsys):
    scenario, config, result, _ = flagship
    g = scenario.tariff.generation
    baseline_agg = np.sum(np.maximum(scenario.net_demands(), 0.0), axis=0)
    base_err = float(np.sum((baseline_agg - g) ** 2))
    eq_err = float(np.sum((result.trace.aggregated - g) ** 2))
    reduction = 100.0 * (base_err - eq_err) / base_err
    ok = reduction >= 30.0
    announce(
        capsys,
        2,
        ok,
        "tracking error %.4g -> %.4g, reduction %.1f%% (bar: 30%%)"
        % (base_err, eq_err, reduction),
    )


# --- criterion 3: brute-force oracle -----------------------------------------
#
# The oracle reimplements discrete best-response dynamics from the domain
# API only: candidate actions are the uniform samples over each feasibility
# region, a household's best response is an exhaustive depth-first search
# over its candidate tree with exact SOC propagation, and households are
# updated in fixed order until a full pass changes nothing.


def _oracle_candidates(scenario, m, t, s, others_a, others_e, n_act):
    d = scenario.net_demands()
    taker = d > 0.0
    bat = scenario.households[m].battery
    eta_inv, eta_bar, dt = scenario.eta_inv, scenario.eta_bar, scenario.dt
    offers_others = math.fsum(
        others_e[k][t]
        for k in range(scenario.n_households)
        if k != m and not taker[k, t]
    )
    draws_others = math.fsum(
        -others_e[k][t]
        for k in range(scenario.n_households)
        if k != m and taker[k, t]
    )
    pairs = []
    fr = np.linspace(0.0, 1.0, n_act)
    if taker[m, t]:
        pool = max(0.0, eta_bar * offers_others - draws_others)
        a_lo = min(
            0.0,
            max(
                phi_minus(bat, eta_inv, dt),
                -(s - bat.s_min) * eta_inv * bat.eta_minus,
                -float(d[m, t]),
            ),
        )
        a_hi = max(
            0.0,
            min(phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus)),
        )
        for a in list(a_lo + fr * (a_hi - a_lo)) + [0.0]:
            e_lo = min(0.0, max(-float(d[m, t]) - a, -pool))
            for e in e_lo * (1.0 - fr):
                pairs.append((float(a), float(e)))
    else:
        min_offer = max(0.0, draws_others / eta_bar - offers_others)
        phi = phi_plus(s, bat, dt)
        e_hi = -float(d[m, t])
        e_lo = min(
            e_hi,
            max(0.0, -float(d[m, t]) - phi, e_hi - (bat.s_max - s) / bat.eta_plus, min_offer),
        )
        for e in e_lo + fr * (e_hi - e_lo):
            local = max(0.0, -float(d[m, t]) - e)
            a_cap = max(
                0.0,
                min(
                    phi - local,
                    (bat.s_max - s - bat.eta_plus * local)
                    / (eta_inv * bat.eta_plus),
                ),
            )
            for a in a_cap * fr:
                pairs.append((float(a), float(e)))
    return pairs


def _oracle_step(scenario, m, t, s, a, e):
    d = float(scenario.net_demands()[m, t])
    bat = scenario.households[m].battery
    if d > 0.0:
        return soc_next_taker(s, a, bat, scenario.eta_inv, scenario.dt)
    return soc_next_giver(
        s, a, max(0.0, -d - e), bat, scenario.eta_inv, scenario.dt
    )


def _oracle_best_response(scenario, m, others_a, others_e, n_act):
    d = scenario.net_demands()
    taker = d > 0.0
    horizon = scenario.horizon
    g = scenario.tariff.generation
    p0 = scenario.tariff.p0
    l_others = np.zeros(horizon)
    for t in range(horizon):
        l_others[t] = math.fsum(
            float(d[k, t]) + others_a[k][t] + others_e[k][t]
            if taker[k, t]
            else others_a[k][t]
            for k in range(scenario.n_households)
            if k != m
        )

    def stage_cost(t, a, e):
        l = float(d[m, t]) + a + e if taker[m, t] else a
        gap = l + l_others[t] - g[t]
        return l * (gap * gap + p0)

    def rec(t, s):
        if t == horizon:
            return 0.0, [], []
        best = (math.inf, [], [])
        for a, e in _oracle_candidates(
            scenario, m, t, s, others_a, others_e, n_act
        ):
            nxt = _oracle_step(scenario, m, t, s, a, e)
            sub, sa, se = rec(t + 1, nxt)
            total = stage_cost(t, a, e) + sub
            if total < best[0]:
                best = (total, [a] + sa, [e] + se)
        return best

    _, a_seq, e_seq = rec(0, scenario.households[m].initial_soc)
    return np.array(a_seq), np.array(e_seq)


def _oracle_dynamics(scenario, A, E, n_act, max_passes=60):
    A = A.copy()
    E = E.copy()
    for _ in range(max_passes):
        changed = False
        for m in range(scenario.n_households):
            a_new, e_new = _oracle_best_response(scenario, m, A, E, n_act)
            if not (
                np.allclose(a_new, A[m], atol=1e-12)
                and np.allclose(e_new, E[m], atol=1e-12)
            ):
                changed = True
            A[m] = a_new
            E[m] = e_new
        if not changed:
            break
    return A, E


def test_criterion_3_brute_force_oracle(capsys):
    from gridshare import initial_state

    scenario = synth_scenario(2, 2, seed=1)
    config = GameConfig(soc_grid=5, action_grid=5, seed=1)
    start = time.perf_counter()
    result = solve(scenario, config)
    A0, E0 = initial_state(scenario, config)
    A, E = _oracle_dynamics(scenario, A0, E0, n_act=config.action_grid)
    elapsed = time.perf_counter() - start
    trace = audit_community(
        scenario.households,
        [Schedule(A[m], E[m]) for m in range(2)],
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
    )
    oracle_bills = [community_bill(scenario, trace.loads, m) for m in range(2)]
    diffs = [abs(a - b) for a, b in zip(result.bills, oracle_bills)]
    ok = max(diffs) <= 1e-9 and elapsed <= 5.0  # absolute bill tolerance
    announce(
        capsys,
        3,
        ok,
        "bills %s vs oracle %s, max diff %.2e (tol 1e-9), %.2fs"
        % (
            ["%.6g" % b for b in result.bills],
            ["%.6g" % b for b in oracle_bills],
            max(diffs),
            elapsed,
        ),
    )


def test_criterion_4_randomized_invariants(capsys):
    rng = np.random.default_rng(20260823)
    checks = {"soc": 0, "load": 0, "pool": 0, "bill": 0, "monotone": 0}

    # SOC bounds, load >= 0, pool balance: random feasible community states
    # replayed through the independent re-checker (raises on violation)
    for _ in range(1000):
        scenario = random_scenario(rng, max_households=3, max_horizon=6)
        schedules = sample_schedules(scenario, rng)
        trace = audit_community(
            scenario.households,
            schedules,
            scenario.eta_inv,
            scenario.eta_bar,
            scenario.dt,
        )
        for i, h in enumerate(scenario.households):
            assert np.all(trace.soc[i] >= h.battery.s_min - 1e-9)
            assert np.all(trace.soc[i] <= h.battery.s_max + 1e-9)
        checks["soc"] += 1
        assert np.all(trace.loads >= 0.0)
        checks["load"] += 1
        assert np.all(trace.pool_leftover >= -1e-9)  # draws never exceed offers
        checks["pool"] += 1

    # compact vs decomposed daily bill, <= 1e-9 relative
    for _ in range(1000):
        horizon = int(rng.integers(1, 97))
        own = rng.uniform(0.0, 20.0, size=horizon)
        others = rng.uniform(0.0, 100.0, size=horizon)
        tariff = TariffParams(
            p0=float(rng.uniform(1e-3, 5.0)),
            generation=rng.uniform(0.0, 100.0, size=horizon),
        )
        compact = daily_bill(own, others, tariff)
        decomposed = daily_bill_decomposed(own, others, tariff)
        assert abs(compact - decomposed) <= 1e-9 * max(1.0, abs(compact))
        checks["bill"] += 1

    # best-response monotonicity: the responder's bill never increases
    config = GameConfig(soc_grid=5, action_grid=3, seed=0)
    for _ in range(1000):
        scenario = random_scenario(rng, max_households=2, max_horizon=2)
        schedules = sample_schedules(scenario, rng)
        trace = audit_community(
            scenario.households,
            schedules,
            scenario.eta_inv,
            scenario.eta_bar,
            scenario.dt,
        )
        m = int(rng.integers(0, scenario.n_households))
        old_bill = community_bill(scenario, trace.loads, m)
        new_schedules = list(schedules)
        new_schedules[m] = best_response(scenario, schedules, m, config)
        new_trace = audit_community(
            scenario.households,
            new_schedules,
            scenario.eta_inv,
            scenario.eta_bar,
            scenario.dt,
        )
        new_bill = community_bill(scenario, new_trace.loads, m)
        assert new_bill <= old_bill + 1e-9
        checks["monotone"] += 1

    ok = all(count >= 1000 for count in checks.values())
    announce(
        capsys,
        4,
        ok,
        "zero violations in %s randomized cases"
        % ", ".join("%s=%d" % kv for kv in sorted(checks.items())),
    )


def test_criterion_5_battery_unit_checks(capsys):
    bat = BatteryParams(
        s_min=0.5,
        s_max=10.0,
        rho_plus=2.0,
        rho_minus=-2.0,
        rho_bar=-0.001,
        eta_plus=0.95,
        eta_minus=0.95,
        gamma_2=1.0,
    )
    # hand-over continuity: CC rate equals the initial saturation slope,
    # and the gap at the hand-over point vanishes as dt -> 0
    assert bat.rho_plus == pytest.approx(
        (bat.s_max - bat.transition_soc) / bat.gamma_2, abs=1e-12
    )
    dt = 1e-5
    gap = abs(
        phi_plus(bat.transition_soc - 1e-12, bat, dt)
        - phi_plus(bat.transition_soc, bat, dt)
    )
    assert gap <= 1e-9 * bat.s_max
    # full battery admits no charge
    assert phi_plus(bat.s_max, bat, 1.0) == 0.0
    # discharge limit is the plain product of its factors, to 1e-12
    assert abs(phi_minus(bat, 0.95, 1.0) - (-2.0 * 1.0 * 0.95 * 0.95)) <= 1e-12
    # self-discharge strictly decreases (raw decay law)
    for s in (0.6, 5.0, 10.0):
        assert s * (1.0 + bat.rho_bar) ** 1.0 < s
    # SOC-update branch examples, exact values
    home = simple_battery()
    assert soc_next_taker(5.0, 1.0, home, 0.95, 1.0) == pytest.approx(5.9025, abs=1e-12)
    assert soc_next_taker(5.0, 0.0, home, 0.95, 1.0) == pytest.approx(4.995, abs=1e-12)
    assert soc_next_taker(5.0, -0.9025, home, 0.95, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert soc_next_giver(5.0, 0.0, 1.0, home, 0.95, 1.0) == pytest.approx(5.95, abs=1e-12)
    assert soc_next_giver(5.0, 1.0, 1.0, home, 0.95, 1.0) == pytest.approx(6.8525, abs=1e-12)
    assert soc_next_giver(5.0, 0.0, 0.0, home, 0.95, 1.0) == pytest.approx(4.995, abs=1e-12)
    announce(capsys, 5, True, "all battery unit checks exact within stated tolerances")


def test_criterion_6_determinism(capsys, tmp_path):
    scenario = synth_scenario(2, 12, seed=5)
    config = GameConfig(soc_grid=24, action_grid=5, seed=3)
    outputs = []
    for name in ("one", "two"):
        report = run(scenario, config)
        paths = emit(report, tmp_path / name)
        outputs.append(
            (paths["result"].read_bytes(), paths["traces"].read_bytes())
        )
    ok = outputs[0] == outputs[1]
    announce(
        capsys,
        6,
        ok,
        "result.json and traces.csv byte-identical across two runs"
        if ok
        else "reruns differ",
    )


def test_criterion_7_nonconvergence_handling(capsys, tmp_path):
    runner = CliRunner()
    scen = tmp_path / "scen.yaml"
    assert (
        runner.invoke(
            cli_main,
            ["synth", "-M", "3", "-T", "8", "--seed", "0", "--out", str(scen)],
        ).exit_code
        == 0
    )
    out = tmp_path / "out"
    result = runner.invoke(
        cli_main,
        [
            "solve",
            "--scenario",
            str(scen),
            "--out",
            str(out),
            "--max-sweeps",
            "1",
            "--soc-grid",
            "24",
            "--action-grid",
            "5",
            "--seed",
            "0",
        ],
    )
    doc = json.loads((out / "result.json").read_text())
    ok = (
        result.exit_code == 2
        and doc["game"]["converged"] is False
        and doc["game"]["max_deviation_gain"] > 0.0
        and (out / "traces.csv").exists()
        and (out / "summary.txt").exists()
    )
    announce(
        capsys,
        7,
        ok,
        "exit code %d, converged=%s, max_deviation_gain %.3g, full report written"
        % (
            result.exit_code,
            doc["game"]["converged"],
            doc["game"]["max_deviation_gain"],
        ),
    )
