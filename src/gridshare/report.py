"""Run orchestration, and the machine-readable result written and read back.

``run`` solves the no-battery/no-sharing baseline and (unless asked not
to) the game, and packages both into a RunReport.  ``emit`` writes three
artifacts into a directory, and ``read_result`` reads and judges the first
of them:

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

import csv
import dataclasses
import datetime
import io
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import billing
from .decisions import Schedule, audit_community
from .engine import EquilibriumResult, GameConfig, solve
from .errors import GridShareError
from .scenario import Scenario, _brief, number_series

RESULT_SCHEMA_VERSION = 3


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
    """The day with batteries idle and no sharing, for a validated scenario."""
    loads = baseline_loads(scenario)
    aggregated = billing.aggregate(loads)
    return BaselineResult(
        loads=loads,
        aggregated=aggregated,
        bills=billing.community_bills(loads, aggregated, scenario.tariff),
        tracking_error=tracking_error(aggregated, scenario.tariff.generation),
    )


@dataclass
class RunReport:
    scenario: Scenario
    config: GameConfig
    baseline: BaselineResult
    equilibrium: EquilibriumResult | None
    wall_time: float

    @cached_property
    def game_tracking_error(self) -> float | None:
        """The equilibrium's tracking error, computed once; None without a game."""
        eq, generation = self.equilibrium, self.scenario.tariff.generation
        return None if eq is None else tracking_error(eq.aggregated, generation)

    @property
    def reduction_pct(self) -> float | None:
        eq, base = self.game_tracking_error, self.baseline.tracking_error
        if eq is None:
            return None
        return 0.0 if base == 0.0 else 100.0 * (base - eq) / base


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


def result_document(report: RunReport) -> dict:
    """The result.json payload.  Excludes wall time so reruns are identical."""
    scenario = report.scenario
    ids = [h.id for h in scenario.households]
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "scenario_digest": scenario.digest(),
        "config": dataclasses.asdict(report.config),
        "baseline": {
            "bills": dict(zip(ids, report.baseline.bills)),
            "aggregated_load": report.baseline.aggregated.tolist(),
            "tracking_error": report.baseline.tracking_error,
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
            "max_deviation_gain": eq.max_deviation_gain,
            "deviation_gains": dict(zip(ids, eq.deviation_gains)),
            "bills": dict(zip(ids, eq.bills)),
            "tracking_error": report.game_tracking_error,
            "aggregated_load": eq.aggregated.tolist(),
            "pool": eq.pool.tolist(),
            "convergence_log": eq.convergence_log,
            "households": {
                ids[m]: {
                    "a": eq.schedules[m].a.tolist(),
                    "e": eq.schedules[m].e.tolist(),
                    "load": eq.loads[m].tolist(),
                    "soc": eq.soc[m].tolist(),
                    "net_demand": d[m].tolist(),
                }
                for m in range(len(ids))
            },
        }
    return doc


def _config_from_doc(cfg) -> GameConfig:
    """A result's ``config`` section as a GameConfig, which judges its values."""
    if not isinstance(cfg, dict):
        raise GridShareError("config must be a mapping")
    names = [f.name for f in dataclasses.fields(GameConfig)]
    unknown = [name for name in cfg if name not in names]
    if unknown:
        raise GridShareError("unknown config key %r" % unknown[0])
    missing = [name for name in names if name not in cfg]
    if missing:
        raise GridShareError("config is missing %s" % ", ".join(missing))
    try:
        return GameConfig(**cfg)
    except GridShareError as exc:
        raise GridShareError("config.%s" % exc) from None


def read_result(path, scenario: Scenario):
    """(config, schedules) of the result.json at ``path`` for ``scenario``.

    Raises GridShareError: "cannot read result document" for a file that
    does not parse, else "invalid result document" naming the first
    malformed part or the replay's first objection to its schedules.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # bad JSON or UTF-8, an overlong int, arrays nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise GridShareError("cannot read result document: %s" % exc) from None
    try:
        return _parse_result(doc, scenario)
    except GridShareError as exc:
        raise GridShareError("invalid result document: %s" % exc) from None


def _parse_result(doc, scenario: Scenario):
    if not isinstance(doc, dict) or not isinstance(doc.get("game"), dict):
        raise GridShareError("no game section")
    version = doc.get("schema_version")
    if type(version) is not int or version != RESULT_SCHEMA_VERSION:
        raise GridShareError(
            "schema_version: expected %d, got %s"
            % (RESULT_SCHEMA_VERSION, _brief(version))
        )
    if doc.get("scenario_digest") != scenario.digest():
        raise GridShareError("scenario digest mismatch with result document")
    config = _config_from_doc(doc.get("config"))
    households = doc["game"].get("households")
    schedules = []
    for h in scenario.households:
        entry = households.get(h.id) if isinstance(households, dict) else None
        if not isinstance(entry, dict):
            raise GridShareError("game.households.%s is missing" % h.id)
        series = [number_series(entry.get(key)) for key in ("a", "e")]
        if not all(
            s is not None and len(s) == scenario.horizon and np.all(np.isfinite(s))
            for s in series
        ):
            raise GridShareError(
                "game.households.%s: a and e need %d finite numbers each"
                % (h.id, scenario.horizon)
            )
        schedules.append(Schedule(*series))
    # a schedule outside its feasible region can show a bill no feasible
    # deviation beats, so replay it before measuring any gain
    audit_community(
        scenario.households,
        schedules,
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
        config.terminal_soc_min,
    )
    return config, schedules


def traces_table(report: RunReport) -> str:
    """The traces.csv content: one row per interval, full-precision floats."""
    scenario = report.scenario
    eq = report.equilibrium
    columns = [
        ("g", scenario.tariff.generation),
        ("baseline_load", report.baseline.aggregated),
    ]
    if eq is not None:
        columns += [("equilibrium_load", eq.aggregated), ("pool", eq.pool)]
    loads = report.baseline.loads if eq is None else eq.loads
    d = scenario.net_demands()
    for m, h in enumerate(scenario.households):
        columns += [("%s_d" % h.id, d[m]), ("%s_load" % h.id, loads[m])]
        if eq is not None:
            columns += [
                ("%s_a" % h.id, eq.schedules[m].a),
                ("%s_e" % h.id, eq.schedules[m].e),
                ("%s_soc" % h.id, eq.soc[m]),  # T + 1 entries; zip stops at T
            ]
    text = [map(repr, series.tolist()) for _, series in columns]
    buf = io.StringIO()
    # a writer quotes a household id that holds a comma or a quote
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [name for name, _ in columns])
    writer.writerows(zip(map(str, range(scenario.horizon)), *text))
    return buf.getvalue()


def summary_text(report: RunReport) -> str:
    scenario = report.scenario
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
        lines += [
            "equilibrium tracking error: %.6g" % report.game_tracking_error,
            "tracking-error reduction: %.2f%%" % report.reduction_pct,
            "converged: %s after %d sweeps (max deviation gain %.3g)"
            % (eq.converged, eq.sweeps_used, eq.max_deviation_gain),
        ]
        for h, bill, base in zip(scenario.households, eq.bills, report.baseline.bills):
            lines.append("  %s: bill %.6g (baseline %.6g)" % (h.id, bill, base))
    return "\n".join(lines) + "\n"


def emit(report: RunReport, out_dir) -> dict:
    """Write result.json, traces.csv, and summary.txt (UTF-8) into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "result": out / "result.json",
        "traces": out / "traces.csv",
        "summary": out / "summary.txt",
    }
    paths["result"].write_text(
        json.dumps(result_document(report), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    paths["traces"].write_text(traces_table(report), encoding="utf-8")
    paths["summary"].write_text(summary_text(report), encoding="utf-8")
    return paths
