"""Output checks and quality measures on an emitted ``result.json``.

Everything here reads the emitted document and recomputes from the
independent model layers (``decisions``, ``billing``); only
:func:`indep_gain` calls the engine, on grids the solver never uses.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from gridshare import billing, engine
from gridshare.decisions import Schedule, audit_community, taker_bounds
from gridshare.report import baseline_loads

BILL_RTOL = 1e-12
GAIN_SLACK = 1e-9  # the slack `certify` and `solve` allow on epsilon


def schedules_of(doc, scenario) -> list:
    households = doc["game"]["households"]
    return [
        Schedule(np.array(households[h.id]["a"]), np.array(households[h.id]["e"]))
        for h in scenario.households
    ]


def others_sum(loads: np.ndarray, m: int) -> np.ndarray:
    """Per-interval load of every household but ``m``, summed with fsum."""
    n, horizon = loads.shape
    return np.array(
        [
            math.fsum(loads[k, t] for k in range(n) if k != m)
            for t in range(horizon)
        ]
    )


def _bill_problems(label, emitted, loads, scenario) -> list:
    problems = []
    for m, h in enumerate(scenario.households):
        want = billing.daily_bill(loads[m], others_sum(loads, m), scenario.tariff)
        got = emitted[h.id]
        if abs(got - want) > BILL_RTOL * max(abs(want), 1e-300):
            problems.append(
                "%s bill of %s: emitted %r, recomputed %r" % (label, h.id, got, want)
            )
    return problems


def check_result(doc, scenario, config) -> list:
    """Every content check on one emitted result; returns the problems found."""
    problems = []
    if doc.get("scenario_digest") != scenario.digest():
        problems.append("result digest does not match the generated scenario")
    problems += _bill_problems(
        "baseline", doc["baseline"]["bills"], baseline_loads(scenario), scenario
    )
    game = doc["game"]
    if game is None:
        return problems
    trace = audit_community(
        scenario.households,
        schedules_of(doc, scenario),
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
    )
    for m, h in enumerate(scenario.households):
        emitted = game["households"][h.id]
        if not np.array_equal(trace.loads[m], emitted["load"]):
            problems.append("replayed loads of %s differ from result" % h.id)
        if not np.array_equal(trace.soc[m], emitted["soc"]):
            problems.append("replayed SOC of %s differs from result" % h.id)
    problems += _bill_problems("game", game["bills"], trace.loads, scenario)
    if game["converged"] and not (
        game["max_deviation_gain"] <= config.epsilon + GAIN_SLACK
    ):
        problems.append(
            "converged but max_deviation_gain %g > epsilon %g"
            % (game["max_deviation_gain"], config.epsilon)
        )
    return problems


def _interval_term(l, rest, g, p0):
    return l * billing.unit_price(l + rest, g, p0)


def _best_draw_term(lo, hi, rest, g, p0):
    """Minimum of l * price(l + rest) over l in [lo, hi], in closed form.

    The derivative 3l^2 + 4cl + c^2 + p0 (c = rest - g) vanishes only at
    its real roots, so the minimum sits there or at an end of the range.
    """
    c = rest - g
    points = [lo, hi]
    disc = 4.0 * c * c - 12.0 * p0
    if disc >= 0.0:
        root = math.sqrt(disc)
        points += [
            x for x in ((-4.0 * c - root) / 6.0, (-4.0 * c + root) / 6.0)
            if lo < x < hi
        ]
    return min(_interval_term(x, rest, g, p0) for x in points)


def draw_gains(doc, scenario) -> list:
    """Each household's bill drop from re-choosing only its pool draws.

    At every taker interval the battery action stays as emitted; the draw
    ranges over the feasible [e_min(a), 0] given the pool the others leave.
    Draws at different intervals are independent, so the drops add up.
    """
    game = doc["game"]
    ids = [h.id for h in scenario.households]
    loads = np.array([game["households"][i]["load"] for i in ids])
    a = np.array([game["households"][i]["a"] for i in ids])
    e = np.array([game["households"][i]["e"] for i in ids])
    d = scenario.net_demands()
    taker = d > 0.0
    tariff = scenario.tariff
    gains = []
    for m, h in enumerate(scenario.households):
        rest = others_sum(loads, m)
        drop = 0.0
        for t in np.flatnonzero(taker[m]):
            offers = math.fsum(e[~taker[:, t], t].tolist())
            other_draws = math.fsum(
                -e[k, t] for k in range(len(ids)) if taker[k, t] and k != m
            )
            pool = scenario.eta_bar * offers - other_draws
            bounds = taker_bounds(
                float(game["households"][h.id]["soc"][t]),
                float(d[m, t]),
                pool,
                h.battery,
                scenario.eta_inv,
                scenario.dt,
            )
            base = float(d[m, t] + a[m, t])
            lo = max(base + bounds.e_min(float(a[m, t])), 0.0)
            g, p0 = float(tariff.generation[t]), tariff.p0
            now = _interval_term(float(loads[m, t]), float(rest[t]), g, p0)
            best = _best_draw_term(lo, max(base, lo), float(rest[t]), g, p0)
            drop += max(0.0, now - best)
        gains.append(drop)
    return gains


def indep_gain(scenario, schedules, config) -> float:
    """Largest deviation gain on 4x the solver's grids (2x what it certifies)."""
    finer = replace(
        config, soc_grid=config.soc_grid * 2, action_grid=config.action_grid * 2
    )
    return max(
        engine.deviation_gain(scenario, schedules, m, finer)
        for m in range(scenario.n_households)
    )


def quality(doc, scenario) -> dict:
    """Deterministic quality figures of one result, with their units."""
    game = doc["game"]
    if game is None:
        return {"bill_total": (math.fsum(doc["baseline"]["bills"].values()), "cost")}
    return {
        "max_deviation_gain": (game["max_deviation_gain"], "cost"),
        "draw_scan_gain": (max(draw_gains(doc, scenario)), "cost"),
        "reduction_pct": (doc["reduction_pct"], "%"),
        "bill_total": (math.fsum(game["bills"].values()), "cost"),
    }
