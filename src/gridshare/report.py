"""Run orchestration and machine-readable result emission.

``run`` solves the no-battery/no-sharing baseline and (unless asked not
to) the game, and packages both into a RunReport.  ``emit`` writes three
artifacts into a directory:

* ``result.json`` -- the structured result document (schedules, bills,
  convergence, metrics); byte-identical across repeated runs.
* ``traces.csv``  -- per-interval plot-ready table (generation, baseline
  and equilibrium aggregated loads, pool, and per-household load / battery
  action / sharing / SOC).
* ``summary.txt`` -- a short human-readable digest (the only file that
  carries a timestamp).

Field names are frozen in docs/SCHEMA.md.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import billing
from .engine import EquilibriumResult, GameConfig, solve
from .scenario import Scenario

RESULT_SCHEMA_VERSION = 2


def tracking_error(aggregated, generation) -> float:
    """Sum of squared gaps between aggregated load and forecast generation."""
    aggregated = np.asarray(aggregated, dtype=float)
    generation = np.asarray(generation, dtype=float)
    return math.fsum(((aggregated - generation) ** 2).tolist())


def baseline_loads(scenario: Scenario) -> np.ndarray:
    """Per-household loads with batteries idle and no sharing: max(d, 0)."""
    return np.maximum(scenario.net_demands(), 0.0)


@dataclass
class BaselineResult:
    loads: np.ndarray       # (M, T)
    aggregated: np.ndarray  # (T,)
    bills: list
    tracking_error: float


def run_baseline(scenario: Scenario) -> BaselineResult:
    loads = baseline_loads(scenario)
    aggregated = np.array([math.fsum(column) for column in loads.T.tolist()])
    bills = billing.community_bills(loads, scenario.tariff)
    return BaselineResult(
        loads=loads,
        aggregated=aggregated,
        bills=bills,
        tracking_error=tracking_error(aggregated, scenario.tariff.generation),
    )


@dataclass
class RunReport:
    scenario: Scenario
    config: GameConfig
    baseline: BaselineResult
    equilibrium: EquilibriumResult | None
    wall_time: float

    @property
    def reduction_pct(self) -> float | None:
        if self.equilibrium is None:
            return None
        base = self.baseline.tracking_error
        if base == 0.0:
            return 0.0
        eq = tracking_error(
            self.equilibrium.aggregated, self.scenario.tariff.generation
        )
        return 100.0 * (base - eq) / base


def run(
    scenario: Scenario, config: GameConfig, baseline_only: bool = False
) -> RunReport:
    start = time.perf_counter()
    baseline = run_baseline(scenario)
    equilibrium = None if baseline_only else solve(scenario, config)
    return RunReport(
        scenario=scenario,
        config=config,
        baseline=baseline,
        equilibrium=equilibrium,
        wall_time=time.perf_counter() - start,
    )


def _floats(values) -> list:
    return [float(v) for v in values]


def result_document(report: RunReport) -> dict:
    """The result.json payload.  Excludes wall time so reruns are identical."""
    scenario = report.scenario
    ids = [h.id for h in scenario.households]
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "scenario_digest": scenario.digest(),
        "config": dataclasses.asdict(report.config),
        "baseline": {
            "bills": dict(zip(ids, _floats(report.baseline.bills))),
            "aggregated_load": _floats(report.baseline.aggregated),
            "tracking_error": float(report.baseline.tracking_error),
        },
        "game": None,
        "reduction_pct": report.reduction_pct,
    }
    eq = report.equilibrium
    if eq is not None:
        d = scenario.net_demands()
        doc["game"] = {
            "converged": eq.converged,
            "sweeps_used": eq.sweeps_used,
            "cycle_detected": eq.cycle_detected,
            "max_deviation_gain": float(eq.max_deviation_gain),
            "deviation_gains": dict(zip(ids, _floats(eq.deviation_gains))),
            "bills": dict(zip(ids, _floats(eq.bills))),
            "tracking_error": tracking_error(
                eq.aggregated, scenario.tariff.generation
            ),
            "aggregated_load": _floats(eq.aggregated),
            "pool": _floats(eq.pool),
            "convergence_log": eq.convergence_log,
            "households": {
                ids[m]: {
                    "a": _floats(eq.schedules[m].a),
                    "e": _floats(eq.schedules[m].e),
                    "load": _floats(eq.loads[m]),
                    "soc": _floats(eq.soc[m]),
                    "net_demand": _floats(d[m]),
                }
                for m in range(len(ids))
            },
        }
    return doc


def _fmt(value: float) -> str:
    return repr(float(value))


def traces_table(report: RunReport) -> str:
    """The traces.csv content: one row per interval, full-precision floats."""
    scenario = report.scenario
    ids = [h.id for h in scenario.households]
    eq = report.equilibrium
    header = ["t", "g", "baseline_load"]
    if eq is not None:
        header += ["equilibrium_load", "pool"]
    for hid in ids:
        header += ["%s_d" % hid, "%s_load" % hid]
        if eq is not None:
            header += ["%s_a" % hid, "%s_e" % hid, "%s_soc" % hid]
    d = scenario.net_demands()
    rows = [",".join(header)]
    for t in range(scenario.horizon):
        row = [
            str(t),
            _fmt(scenario.tariff.generation[t]),
            _fmt(report.baseline.aggregated[t]),
        ]
        if eq is not None:
            row += [_fmt(eq.aggregated[t]), _fmt(eq.pool[t])]
        for m, hid in enumerate(ids):
            if eq is None:
                row += [_fmt(d[m, t]), _fmt(report.baseline.loads[m, t])]
            else:
                row += [
                    _fmt(d[m, t]),
                    _fmt(eq.loads[m, t]),
                    _fmt(eq.schedules[m].a[t]),
                    _fmt(eq.schedules[m].e[t]),
                    _fmt(eq.soc[m, t]),
                ]
        rows.append(",".join(row))
    return "\n".join(rows) + "\n"


def summary_text(report: RunReport, timestamp: str | None = None) -> str:
    scenario = report.scenario
    if timestamp is None:
        timestamp = datetime.datetime.now().isoformat(timespec="seconds")
    lines = [
        "gridshare run summary (%s)" % timestamp,
        "households: %d, intervals: %d (dt = %g h)"
        % (scenario.n_households, scenario.horizon, scenario.dt),
        "baseline tracking error: %.6g" % report.baseline.tracking_error,
        "wall time: %.2f s" % report.wall_time,
    ]
    eq = report.equilibrium
    if eq is None:
        lines.append("game: skipped (baseline only)")
    else:
        eq_err = tracking_error(eq.aggregated, scenario.tariff.generation)
        lines += [
            "equilibrium tracking error: %.6g" % eq_err,
            "tracking-error reduction: %.2f%%" % report.reduction_pct,
            "converged: %s after %d sweeps (max deviation gain %.3g)"
            % (eq.converged, eq.sweeps_used, eq.max_deviation_gain),
        ]
        for hid, base, bill in zip(
            [h.id for h in scenario.households],
            report.baseline.bills,
            eq.bills,
        ):
            lines.append(
                "  %s: bill %.6g (baseline %.6g)" % (hid, bill, base)
            )
    return "\n".join(lines) + "\n"


def emit(report: RunReport, out_dir) -> dict:
    """Write result.json, traces.csv, and summary.txt into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "result": out / "result.json",
        "traces": out / "traces.csv",
        "summary": out / "summary.txt",
    }
    paths["result"].write_text(
        json.dumps(result_document(report), sort_keys=True, indent=2) + "\n"
    )
    paths["traces"].write_text(traces_table(report))
    paths["summary"].write_text(summary_text(report))
    return paths
