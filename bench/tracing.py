"""The traced run: per-layer times and counts, measured from outside ``src/``.

The benchmark calls each layer's public functions itself and records a
span around every call.  Functions that a layer reaches only through
another (``initial_state`` and ``audit_community`` inside ``solve``,
``replay_household`` inside ``audit_community``, ``daily_bill`` inside
the bill loops, ``result_document`` inside ``emit``) are wrapped at the
module attribute the caller looks up, for the length of the pass.  Spans
stay in memory and are written out with the run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import statistics
import time

import numpy as np

from gridshare import billing, cli, decisions, engine, report
from gridshare import scenario as scenario_mod
from gridshare.decisions import Schedule

import checks

#: (module, attribute, span name) reached only through other layers
NESTED = (
    (engine, "initial_state", "engine.initial_state"),
    (engine, "audit_community", "decisions.audit_community"),
    (decisions, "replay_household", "decisions.replay_household"),
    (billing, "daily_bill", "billing.daily_bill"),
    (report, "result_document", "report.result_document"),
)


class Tracer:
    """Spans (name, start, end, parent) around calls into the package."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent}
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span["end"] = time.perf_counter()

    @contextlib.contextmanager
    def patching(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in NESTED]
        try:
            for (owner, attr, name), (_, _, fn) in zip(NESTED, originals):
                setattr(owner, attr, self._wrapped(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def _wrapped(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def durations(self, name, parent=None) -> list:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (parent is None or s["parent"] == parent)
        ]


def _check_quietly(path):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", "--scenario", str(path)], standalone_mode=False)


def _loads(scenario, schedules) -> np.ndarray:
    d = scenario.net_demands()
    a = np.array([s.a for s in schedules])
    e = np.array([s.e for s in schedules])
    return np.where(d > 0.0, d + a + e, a)


def _useful_responses(scenario, history) -> tuple:
    """(bill-lowering best responses, best responses) over the sweep replay.

    Sweeps are Gauss-Seidel, so household m responded to the new schedules
    of households before it and the old ones of those after it.
    """
    useful = calls = 0
    for before, after in zip(history, history[1:]):
        for m in range(len(before)):
            mixed_before = after[:m] + before[m:]
            mixed_after = after[: m + 1] + before[m + 1 :]
            old, new = _loads(scenario, mixed_before), _loads(scenario, mixed_after)
            rest = checks.others_sum(old, m)
            drop = billing.daily_bill(old[m], rest, scenario.tariff) - billing.daily_bill(
                new[m], rest, scenario.tariff
            )
            useful += drop > 0.0
            calls += 1
    return useful, calls


def _sweep_replay(tracer, game, config) -> list:
    """Public sweeps from ``initial_state`` to the sweep fixed point."""
    a, e = engine.initial_state(game, config)
    schedules = [Schedule(a[m], e[m]) for m in range(len(a))]
    history = [schedules]
    for _ in range(config.max_sweeps):
        schedules, improved = tracer.call("engine.sweep", engine.sweep, game, schedules, config)
        history.append(schedules)
        if not improved:
            break
    return history


def traced_pass(workload, scenario_path, game, config, out_dir):
    """One pass over every layer; returns (metrics, quality, problems, spans).

    ``game`` is the workload's own day, or the probe game when the workload
    is baseline-only.
    """
    start = time.perf_counter()
    reference = engine.solve(game, config)
    untraced_solve = time.perf_counter() - start

    tracer = Tracer()
    with tracer.patching():
        scenario = tracer.call("scenario.load", scenario_mod.load_scenario, scenario_path)
        tracer.call("scenario.validate", scenario.validate)
        baseline = tracer.call("report.run_baseline", report.run_baseline, scenario)
        solve_index = len(tracer.spans)
        eq = tracer.call("engine.solve", engine.solve, game, config)
        history = _sweep_replay(tracer, game, config)
        for m in range(game.n_households):
            tracer.call("engine.best_response", engine.best_response, game, eq.schedules, m, config)
            tracer.call("engine.deviation_gain", engine.deviation_gain, game, eq.schedules, m, config)
        run_report = report.RunReport(
            scenario, config, baseline, None if workload.baseline_only else eq, 0.0
        )
        paths = tracer.call("report.emit", report.emit, run_report, out_dir)
        tracer.call("cli.check", _check_quietly, scenario_path)

    raw = paths["result"].read_bytes()
    doc = json.loads(raw)
    problems = checks.check_result(doc, scenario, config)
    if workload.baseline_only:
        game_report = report.RunReport(game, config, report.run_baseline(game), eq, 0.0)
        game_doc = json.loads(json.dumps(report.result_document(game_report)))
        problems += checks.check_result(game_doc, game, config)
    else:
        game_doc = doc
    if eq.bills != reference.bills or eq.convergence_log != reference.convergence_log:
        problems.append("traced and untraced solves differ")
    quality = checks.quality(game_doc, game)
    quality["indep_gain"] = (checks.indep_gain(game, eq.schedules, config), "cost")

    metrics = _layer_metrics(tracer, solve_index, history, game, eq, config)
    metrics["scenario.yaml_bytes"] = (scenario_path.stat().st_size, "bytes")
    metrics["report.result_bytes"] = (len(raw), "bytes")
    metrics["trace.overhead_s"] = (metrics["engine.solve_s"][0] - untraced_solve, "s")
    return metrics, quality, problems, tracer.spans


#: spans reported as total busy time, and as the median time per call
TOTALS = (
    "scenario.load",
    "scenario.validate",
    "engine.solve",
    "engine.initial_state",
    "decisions.audit_community",
    "decisions.replay_household",
    "billing.daily_bill",
    "report.run_baseline",
    "report.result_document",
    "report.emit",
    "cli.check",
)
PER_CALL = ("engine.best_response", "engine.deviation_gain")


def _layer_metrics(tracer, solve_index, history, game, eq, config) -> dict:
    metrics = {}
    for name in TOTALS + PER_CALL:
        spans = tracer.durations(name)
        if name in PER_CALL:
            metrics[name + "_s"] = (statistics.median(spans), "s/call")
        else:
            metrics[name + "_s"] = (math.fsum(spans), "s")
        metrics[name + "_calls"] = (len(spans), "count")

    sweeps = tracer.durations("engine.sweep")
    metrics["engine.sweep_s_p50"] = (float(np.percentile(sweeps, 50)), "s/call")
    metrics["engine.sweep_s_p90"] = (float(np.percentile(sweeps, 90)), "s/call")
    metrics["engine.sweep_calls"] = (len(sweeps), "count")
    metrics["engine.sweep_phase_s"] = (math.fsum(sweeps), "s")
    inside = math.fsum(
        tracer.durations("engine.initial_state", parent=solve_index)
        + tracer.durations("decisions.audit_community", parent=solve_index)
    )
    metrics["engine.cert_phase_s"] = (
        metrics["engine.solve_s"][0] - inside - metrics["engine.sweep_phase_s"][0],
        "s",
    )

    passes = [e for e in eq.convergence_log if e.get("certification")]
    adopted = [e for e in passes if e["max_bill_drop"] > 0.25 * config.epsilon]
    metrics["engine.sweeps_used"] = (eq.sweeps_used, "count")
    metrics["engine.certification_passes"] = (len(passes), "count")
    metrics["engine.cert_adopt_ratio"] = (len(adopted) / len(passes) if passes else 0.0, "ratio")
    useful, calls = _useful_responses(game, history)
    metrics["engine.br_useful_ratio"] = (useful / calls, "ratio")
    return metrics
