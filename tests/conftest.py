import math

import numpy as np
import pytest

from gridshare import (
    BatteryParams,
    GameConfig,
    HouseholdProfile,
    Schedule,
    TariffParams,
    giver_bounds,
    net_demand,
    soc_next_giver,
    soc_next_taker,
    taker_bounds,
)
from gridshare.scenario import Scenario


def simple_battery(**overrides) -> BatteryParams:
    params = dict(
        s_min=0.5,
        s_max=13.5,
        rho_plus=3.3,
        rho_minus=-3.3,
        rho_bar=-0.001,
        eta_plus=0.95,
        eta_minus=0.95,
        gamma_2=1.0,
    )
    params.update(overrides)
    return BatteryParams(**params)


def make_scenario(
    demands,
    re_outputs,
    generation,
    p0=0.01,
    eta_inv=0.95,
    eta_bar=0.9,
    batteries=None,
    initial_socs=None,
) -> Scenario:
    """Hand-built scenario from per-household demand / RE series."""
    demands = [np.asarray(d, dtype=float) for d in demands]
    horizon = len(demands[0])
    households = []
    for i, demand in enumerate(demands):
        bat = batteries[i] if batteries else simple_battery()
        soc0 = initial_socs[i] if initial_socs else 0.5 * (bat.s_min + bat.s_max)
        households.append(
            HouseholdProfile(
                id="h%d" % (i + 1),
                demand=demand,
                re_output=np.asarray(re_outputs[i], dtype=float),
                battery=bat,
                initial_soc=soc0,
            )
        )
    return Scenario(
        households=households,
        tariff=TariffParams(p0=p0, generation=np.asarray(generation, dtype=float)),
        eta_inv=eta_inv,
        eta_bar=eta_bar,
        horizon=horizon,
    ).check()


def sample_schedules(scenario: Scenario, rng: np.random.Generator):
    """Random feasible schedules, built purely from the decisions-layer API.

    Households are walked in order; takers only draw pool energy that
    earlier givers have committed, so the community state is feasible by
    construction.
    """
    horizon = scenario.horizon
    dt = scenario.dt
    pool = np.zeros(horizon)
    schedules = []
    for h in scenario.households:
        d = net_demand(h.demand, h.re_output, scenario.eta_inv)
        a_row = np.zeros(horizon)
        e_row = np.zeros(horizon)
        s = h.initial_soc
        for t in range(horizon):
            if d[t] > 0.0:
                box = taker_bounds(
                    s, float(d[t]), pool[t], h.battery, scenario.eta_inv, dt
                )
                a = rng.uniform(box.a_min, box.a_max)
                e = rng.uniform(box.e_min(a), 0.0)
                pool[t] += e
                s = soc_next_taker(s, a, h.battery, scenario.eta_inv, dt)
            else:
                box = giver_bounds(
                    s, float(d[t]), h.battery, scenario.eta_inv, dt
                )
                e = rng.uniform(box.e_min, box.e_max)
                a = rng.uniform(0.0, box.a_max(e))
                pool[t] += scenario.eta_bar * e
                s = soc_next_giver(
                    s,
                    a,
                    max(0.0, -float(d[t]) - e),
                    h.battery,
                    scenario.eta_inv,
                    dt,
                )
            a_row[t] = a
            e_row[t] = e
        schedules.append(Schedule(a_row, e_row))
    return schedules


def random_scenario(rng: np.random.Generator, max_households=3, max_horizon=8):
    """Small random but valid scenario for property sweeps."""
    n = int(rng.integers(1, max_households + 1))
    horizon = int(rng.integers(2, max_horizon + 1))
    demands = [rng.uniform(0.0, 2.0, size=horizon) for _ in range(n)]
    re_outputs = [rng.uniform(0.0, 2.0, size=horizon) for _ in range(n)]
    generation = rng.uniform(0.0, 3.0, size=horizon)
    socs = [
        float(rng.uniform(0.5, 13.5))
        for _ in range(n)
    ]
    return make_scenario(
        demands, re_outputs, generation, initial_socs=socs
    )


def community_bill(scenario, loads, m):
    """Bill of household m from a community load matrix, via the billing module."""
    from gridshare import daily_bill

    horizon = loads.shape[1]
    others = np.array(
        [
            math.fsum(loads[k, t] for k in range(loads.shape[0]) if k != m)
            for t in range(horizon)
        ]
    )
    return daily_bill(loads[m], others, scenario.tariff)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    return GameConfig(soc_grid=5, action_grid=4, max_sweeps=30, seed=2)
