import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from gridshare import GameConfig, TariffParams, daily_bill, run, synth_scenario
from gridshare.report import (
    baseline_loads,
    emit,
    read_result,
    result_document,
    run_baseline,
    traces_table,
    tracking_error,
)

from conftest import make_scenario

CFG = GameConfig(soc_grid=24, action_grid=5, seed=3)


@pytest.fixture(scope="module")
def small_report():
    scenario = synth_scenario(2, 12, seed=5)
    return scenario, run(scenario, CFG)


def cell_by_cell_traces(report):
    """traces.csv written one cell at a time: ``str(t)``, then ``repr(float(v))``."""
    scenario, eq = report.scenario, report.equilibrium
    columns = [
        ("g", scenario.tariff.generation),
        ("baseline_load", report.baseline.aggregated),
    ]
    if eq is not None:
        columns += [("equilibrium_load", eq.aggregated), ("pool", eq.pool)]
    loads = report.baseline.loads if eq is None else eq.loads
    d = scenario.net_demands()
    for m, h in enumerate(scenario.households):
        columns += [(h.id + "_d", d[m]), (h.id + "_load", loads[m])]
        if eq is not None:
            columns += [
                (h.id + "_a", eq.schedules[m].a),
                (h.id + "_e", eq.schedules[m].e),
                (h.id + "_soc", eq.soc[m]),
            ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [name for name, _ in columns])
    for t in range(scenario.horizon):
        writer.writerow([str(t)] + [repr(float(series[t])) for _, series in columns])
    return buf.getvalue()


class TestBaseline:
    def test_baseline_equals_zero_decision_loads(self):
        scenario = synth_scenario(3, 12, seed=1)
        loads = baseline_loads(scenario)
        d = scenario.net_demands()
        for m in range(scenario.n_households):
            for t in range(scenario.horizon):
                # a = e = 0: a taker's load d + a + e is d, a giver's a is 0
                expected = d[m, t] if d[m, t] > 0.0 else 0.0
                assert loads[m, t] == pytest.approx(expected, abs=1e-12)

    def test_tracking_error_definition(self):
        agg = np.array([1.0, 3.0])
        g = np.array([0.0, 1.0])
        assert tracking_error(agg, g) == pytest.approx(1.0 + 4.0, abs=1e-12)

    def test_zero_community(self):
        scenario = make_scenario(
            demands=[[0.0, 0.0]], re_outputs=[[0.0, 0.0]], generation=[0.0, 0.0]
        )
        baseline = run_baseline(scenario)
        assert baseline.bills == [0.0]
        assert np.all(baseline.aggregated == 0.0)

    def test_no_reduction_without_a_baseline_error(self):
        # the baseline already tracks generation exactly: 0%, not 0 / 0
        scenario = make_scenario(
            demands=[[0.0, 0.0]], re_outputs=[[0.0, 0.0]], generation=[0.0, 0.0]
        )
        report = run(scenario, CFG)
        assert report.baseline.tracking_error == 0.0
        assert report.equilibrium is not None and report.reduction_pct == 0.0


class TestResultDocument:
    def test_reported_bills_recompute_exactly(self, small_report):
        scenario, report = small_report
        doc = result_document(report)
        game = doc["game"]
        ids = [h.id for h in scenario.households]
        loads = np.array([game["households"][hid]["load"] for hid in ids])
        for m, hid in enumerate(ids):
            others = np.array(
                [
                    math.fsum(loads[k, t] for k in range(len(ids)) if k != m)
                    for t in range(scenario.horizon)
                ]
            )
            recomputed = daily_bill(loads[m], others, scenario.tariff)
            assert recomputed == game["bills"][hid]

    def test_improvement_over_baseline_reported(self, small_report):
        _, report = small_report
        doc = result_document(report)
        assert doc["game"]["tracking_error"] <= doc["baseline"]["tracking_error"]
        assert doc["reduction_pct"] >= 0.0

    def test_baseline_only_omits_game_section(self):
        scenario = synth_scenario(2, 6, seed=2)
        report = run(scenario, CFG, baseline_only=True)
        doc = result_document(report)
        assert doc["game"] is None
        table = traces_table(report)
        assert "equilibrium_load" not in table.splitlines()[0]

    def test_wall_time_not_in_document(self, small_report):
        _, report = small_report
        text = json.dumps(result_document(report))
        assert "wall_time" not in text

    @pytest.mark.parametrize("day", ["small", "floor"])
    def test_document_reads_back_exactly(self, small_report, day, tmp_path):
        if day == "small":
            scenario, report = small_report
        else:
            scenario = synth_scenario(2, 6, seed=5)
            floored = GameConfig(soc_grid=24, action_grid=5, terminal_soc_min=6.0)
            report = run(scenario, floored)
        config, schedules = read_result(emit(report, tmp_path)["result"], scenario)
        assert config == report.config
        for got, want in zip(schedules, report.equilibrium.schedules, strict=True):
            assert got.a.tobytes() == want.a.tobytes()
            assert got.e.tobytes() == want.e.tobytes()


class TestEmission:
    def test_numpy_config_fields_emit_and_read_back(self, tmp_path):
        scenario = synth_scenario(2, 6, seed=5)
        config = GameConfig(
            epsilon=np.float32(1e-6),
            soc_grid=np.int64(24),
            action_grid=np.int32(5),
            seed=np.uint8(3),
            terminal_soc_min=np.float32(6.0),
        )
        report = run(scenario, config)
        read, schedules = read_result(emit(report, tmp_path)["result"], scenario)
        assert read == config
        for got, want in zip(schedules, report.equilibrium.schedules, strict=True):
            assert got.a.tobytes() == want.a.tobytes()
            assert got.e.tobytes() == want.e.tobytes()

    def test_emitting_twice_is_byte_identical(self, small_report, tmp_path):
        _, report = small_report
        p1 = emit(report, tmp_path / "one")
        p2 = emit(report, tmp_path / "two")
        assert p1["result"].read_bytes() == p2["result"].read_bytes()
        assert p1["traces"].read_bytes() == p2["traces"].read_bytes()

    def test_traces_header_and_shape(self, small_report, tmp_path):
        scenario, report = small_report
        paths = emit(report, tmp_path / "out")
        lines = paths["traces"].read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["t", "g", "baseline_load", "equilibrium_load", "pool"]
        for hid in [h.id for h in scenario.households]:
            for col in ("_d", "_load", "_a", "_e", "_soc"):
                assert hid + col in header
        assert len(lines) == 1 + scenario.horizon
        # full-precision floats round-trip
        value = lines[1].split(",")[1]
        assert float(value) == report.scenario.tariff.generation[0]

    def test_traces_quote_ids_with_commas(self, small_report):
        scenario, report = small_report
        households = [
            dataclasses.replace(h, id=hid)
            for h, hid in zip(scenario.households, ["h,1", "h\u00e9"])
        ]
        renamed = dataclasses.replace(
            report, scenario=dataclasses.replace(scenario, households=households)
        )
        rows = list(csv.reader(traces_table(renamed).splitlines()))
        assert "h,1_d" in rows[0] and "h\u00e9_soc" in rows[0]
        assert len(rows) == 1 + scenario.horizon
        assert all(len(row) == len(rows[0]) == 15 for row in rows)

    @pytest.mark.parametrize("game", [False, True], ids=["baseline-only", "solved"])
    def test_traces_match_a_cell_by_cell_table(self, game):
        scenario = synth_scenario(3, 8, seed=5)
        households = [
            dataclasses.replace(h, id=hid)
            for h, hid in zip(scenario.households, ["h,1", 'h"2', "h\u00e9"])
        ]
        scenario = dataclasses.replace(scenario, households=households)
        report = run(scenario, CFG, baseline_only=not game)
        if game:
            assert report.equilibrium.soc.shape == (3, scenario.horizon + 1)
        assert traces_table(report) == cell_by_cell_traces(report)

    def test_summary_mentions_convergence(self, small_report, tmp_path):
        _, report = small_report
        paths = emit(report, tmp_path / "out")
        text = paths["summary"].read_text()
        assert "converged" in text
        assert "tracking-error reduction" in text
