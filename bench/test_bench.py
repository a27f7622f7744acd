"""Tests of the benchmark itself, on the tiny ``smoke`` day.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from workloads import WORKLOADS, make_scenario  # noqa: E402


def run_smoke(trace: int) -> tuple:
    """(provenance, result) of one smoke run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0].split(" ", 1)[1])
    return provenance, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {trace: run_smoke(trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(runs, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, result = runs[trace]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[section])
    for metric in spec[section]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_same_seed_same_scenario(runs):
    assert runs[0][0]["scenario_digest"] == runs[1][0]["scenario_digest"]
    smoke = WORKLOADS["smoke"]
    assert make_scenario(smoke, 7, 5).digest() == make_scenario(smoke, 7, 5).digest()
    assert make_scenario(smoke, 7, 5).digest() != make_scenario(smoke, 7, 6).digest()


def test_relabelling_keeps_the_game():
    smoke = WORKLOADS["smoke"]
    one, two = make_scenario(smoke, 7, 1), make_scenario(smoke, 7, 2)
    assert (one.net_demands() == two.net_demands()).all()
    assert [h.id for h in one.households] != [h.id for h in two.households]


def test_closed_form_draw_matches_a_dense_scan():
    rng = random.Random(0)
    for _ in range(200):
        lo = rng.uniform(0.0, 1.0)
        hi = lo + rng.uniform(0.0, 1.0)
        rest, g, p0 = rng.uniform(0.0, 3.0), rng.uniform(0.0, 4.0), rng.uniform(0.001, 0.05)
        closed = checks._best_draw_term(lo, hi, rest, g, p0)
        n = 20000
        dense = min(
            checks._interval_term(lo + (hi - lo) * k / n, rest, g, p0) for k in range(n + 1)
        )
        assert closed <= dense + 1e-15
        assert closed >= dense - 1e-7 * (1.0 + abs(dense))
