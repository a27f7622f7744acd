"""End-to-end day-ahead run for a small prosumer community.

Run from the repository root with ``PYTHONPATH=src python3
demos/community_day.py``, or with ``python3 demos/community_day.py`` after
``pip install -e .``.  Generates a synthetic 4-household scenario, solves
the scheduling game, and prints an ASCII comparison of the aggregated load
against the utility's generation forecast, before and after optimization.
"""

import numpy as np

from gridshare import GameConfig, run, synth_scenario

scenario = synth_scenario(4, 24, seed=7)
config = GameConfig()
report = run(scenario, config)
eq = report.equilibrium
g = scenario.tariff.generation

print("community of %d households, %d hourly intervals" % (
    scenario.n_households, scenario.horizon))
print("converged: %s after %d sweeps (max deviation gain %.2e)" % (
    eq.converged, eq.sweeps_used, eq.max_deviation_gain))
print()

scale = 40.0 / max(float(g.max()), float(report.baseline.aggregated.max()))


def bar(value, mark):
    return (mark * int(round(value * scale))).ljust(42)


print("hour  generation forecast (#) vs baseline (b) vs equilibrium (e)")
for t in range(scenario.horizon):
    print("%4d  |%s|%s|%s|" % (
        t,
        bar(g[t], "#"),
        bar(report.baseline.aggregated[t], "b"),
        bar(eq.trace.aggregated[t], "e"),
    ))

print()
base_err = report.baseline.tracking_error
eq_err = report.game_tracking_error
print("tracking error: baseline %.4f, equilibrium %.4f (%.1f%% lower)" % (
    base_err, eq_err, report.reduction_pct))
print()
print("household bills (equilibrium vs baseline):")
for h, base, bill in zip(scenario.households, report.baseline.bills, eq.bills):
    print("  %-4s %10.4f   (baseline %10.4f)" % (h.id, bill, base))
