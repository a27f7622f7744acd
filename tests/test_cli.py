import csv
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from gridshare import GameConfig, cli, engine, errors
from gridshare.cli import main
from gridshare.scenario import load_scenario, save_scenario


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def no_worker_left():
    # certify measures households on forked workers; none may outlive it
    yield
    assert multiprocessing.active_children() == []


def synth_file(runner, path, households=2, intervals=12, seed=5):
    result = runner.invoke(
        main,
        [
            "synth",
            "-M",
            str(households),
            "-T",
            str(intervals),
            "--seed",
            str(seed),
            "--out",
            str(path),
        ],
    )
    assert result.exit_code == 0, result.output
    return path


SOLVE_FLAGS = ["--soc-grid", "24", "--action-grid", "5", "--seed", "3"]


def _solve_process(scen, out, *flags, env=None):
    """``gridshare solve`` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gridshare.cli", "solve", "--scenario", str(scen)]
        + ["--out", str(out), *flags],
        env=env,
        capture_output=True,
    )


class TestSynthAndCheck:
    def test_synth_writes_reproducible_file(self, runner, tmp_path):
        p1 = synth_file(runner, tmp_path / "a.yaml")
        p2 = synth_file(runner, tmp_path / "b.yaml")
        assert p1.read_bytes() == p2.read_bytes()

    def test_check_accepts_valid_file(self, runner, tmp_path):
        path = synth_file(runner, tmp_path / "scen.yaml")
        result = runner.invoke(main, ["check", "--scenario", str(path)])
        assert result.exit_code == 0
        assert "ok:" in result.output

    def test_check_lists_every_violation(self, runner, tmp_path):
        path = synth_file(runner, tmp_path / "scen.yaml")
        text = path.read_text()
        text = text.replace("eta_inv: 0.95", "eta_inv: 1.5")
        text = text.replace("p0: 0.01", "p0: -1.0")
        path.write_text(text)
        result = runner.invoke(main, ["check", "--scenario", str(path)])
        assert result.exit_code == 1
        assert "eta_inv" in result.output
        assert "p0" in result.output

    def test_mistyped_series_is_listed_once_at_any_horizon(self, runner, tmp_path):
        # numpy refuses a 10**15-entry array at once, so a stand-in that grew
        # with T fails fast here instead of touching memory
        path = synth_file(runner, tmp_path / "scen.yaml")
        doc = yaml.safe_load(path.read_text())
        doc["T"] = 10**15
        doc["households"][0]["demand"] = "x"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, ["check", "--scenario", str(path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert sum("[0].demand" in s or "[h1].demand" in s for s in lines) == 1, lines

    def test_negative_synth_seed_is_input_error(self, runner, tmp_path):
        path = tmp_path / "scen.yaml"
        result = runner.invoke(
            main, ["synth", "--seed", "-1", "--out", str(path)]
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert [s for s in result.output.splitlines() if s.startswith("error:")] == [
            "error: synth seed must be >= 0, got -1"
        ]
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags", [["-T", "100000000000"], ["-M", "100000000000"]], ids=["T", "M"]
    )
    def test_huge_synth_size_is_input_error(self, runner, tmp_path, monkeypatch, flags):
        # the size check must come before the generator touches numpy
        def no_rng(*args):
            raise AssertionError("synth_scenario allocated before its size check")

        monkeypatch.setattr("numpy.random.default_rng", no_rng)
        path = tmp_path / "scen.yaml"
        result = runner.invoke(main, ["synth", *flags, "--out", str(path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        errors = [s for s in result.output.splitlines() if s.startswith("error:")]
        assert len(errors) == 1 and "synth size M*T must be <= 10000000" in errors[0]
        assert not path.exists()

    def test_unwritable_synth_out_is_output_error(self, runner, tmp_path):
        path = tmp_path / "missing" / "scen.yaml"
        result = runner.invoke(main, ["synth", "--out", str(path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: cannot write scenario file" in result.output

    def test_missing_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["check", "--scenario", str(tmp_path / "nope.yaml")]
        )
        assert result.exit_code == 1


class TestSolveCommand:
    def test_converged_run_exits_zero_and_writes_report(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out)] + SOLVE_FLAGS,
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        assert doc["game"]["converged"] is True
        assert (out / "traces.csv").exists()
        assert (out / "summary.txt").exists()

    def test_two_solves_are_byte_identical(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["solve", "--scenario", str(scen), "--out", str(out)] + SOLVE_FLAGS,
            )
            assert result.exit_code == 0
            outs.append(out)
        assert (outs[0] / "result.json").read_bytes() == (
            outs[1] / "result.json"
        ).read_bytes()
        assert (outs[0] / "traces.csv").read_bytes() == (
            outs[1] / "traces.csv"
        ).read_bytes()

    def test_flag_defaults_are_the_config_defaults(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out), "--baseline-only"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"] == dataclasses.asdict(GameConfig())

    def test_negative_seed_is_input_error(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["solve", "--scenario", str(scen), "--out", str(out), "--seed", "-1"]
        )
        assert result.exit_code == 1, result.output
        assert "error:" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "flags",
        [["--soc-grid", "10000000000000"], ["--action-grid", "100000"]],
        ids=["soc-grid", "action-grid"],
    )
    def test_absurd_grid_is_input_error(self, runner, tmp_path, flags):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["solve", "--scenario", str(scen), "--out", str(out), *flags]
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: soc_grid" in result.output
        assert not out.exists()

    def test_unwritable_out_is_output_error(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = scen / "sub"  # below a file
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out), "--baseline-only"],
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: cannot write report" in result.output

    def test_ids_with_comma_and_accent_under_c_locale(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml", households=2, intervals=2, seed=1)
        data = yaml.safe_load(scen.read_text())
        for household, hid in zip(data["households"], ["h,1", "h\u00e9"]):
            household["id"] = hid
        scen.write_text(yaml.safe_dump(data, allow_unicode=True), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "out"
        proc = _solve_process(
            scen, out, "--soc-grid", "5", "--action-grid", "5", "--seed", "1", env=env
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        rows = list(csv.reader((out / "traces.csv").read_text(encoding="utf-8").splitlines()))
        assert {"h,1_d", "h\u00e9_d"} <= set(rows[0])
        assert len(rows) == 3
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_baseline_only(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out), "--baseline-only"],
        )
        assert result.exit_code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["game"] is None

    @pytest.mark.parametrize(
        "shape, grids",
        [((2, 2, 1), ("5", "5")), ((2, 6, 5), ("24", "5"))],
        ids=["exhaustive", "dp"],
    )
    def test_unreachable_terminal_soc_is_input_error(
        self, runner, tmp_path, shape, grids
    ):
        M, T, seed = shape
        scen = synth_file(
            runner, tmp_path / "scen.yaml", households=M, intervals=T, seed=seed
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out)]
            + ["--soc-grid", grids[0], "--action-grid", grids[1]]
            + ["--terminal-soc-min", "100"],
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error: terminal_soc_min 100 unreachable" in result.output
        assert not (out / "result.json").exists()

    def test_no_finite_cost_schedule_is_input_error(self, runner, tmp_path):
        # at p0 = 1e308 every candidate's cost would overflow to inf, so the
        # validator rejects it; run as a process, where numpy's overflow
        # warning would print rather than raise
        scen = synth_file(runner, tmp_path / "scen.yaml", households=2, intervals=6)
        data = yaml.safe_load(scen.read_text())
        data["tariff"]["p0"] = 1.0e308
        scen.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        proc = _solve_process(scen, out, "--soc-grid", "24", "--action-grid", "5")
        stderr = proc.stderr.decode()
        assert proc.returncode == 1, stderr
        assert "Traceback" not in stderr
        assert stderr == "scenario invalid:\n  - tariff.p0: must be in (0, 1e+30], got 1e+308\n"
        assert not (out / "result.json").exists()

    def test_baseline_overflow_is_input_error(self, runner, tmp_path):
        # at generation 1e154 the squared gaps of the tracking error would sum
        # past the float range, so the validator rejects it
        scen = synth_file(runner, tmp_path / "scen.yaml", households=2, intervals=6)
        data = yaml.safe_load(scen.read_text())
        data["tariff"]["generation"] = [1e154] * 6
        scen.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["solve", "--scenario", str(scen), "--out", str(out), "--baseline-only"]
        )
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output == (
            "scenario invalid:\n  - tariff.generation: entries must be <= 1e+30\n"
        )
        assert not (out / "result.json").exists()

    def test_nonconverged_exits_two_with_complete_report(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml", households=3, intervals=8, seed=0)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out), "--max-sweeps", "1"]
            + SOLVE_FLAGS,
        )
        assert result.exit_code == 2
        doc = json.loads((out / "result.json").read_text())
        assert doc["game"]["converged"] is False
        assert doc["game"]["max_deviation_gain"] > 0.0
        assert (out / "traces.csv").exists()


class TestCertifyCommand:
    def test_certify_passes_on_converged_result(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        out = tmp_path / "out"
        assert (
            runner.invoke(
                main,
                ["solve", "--scenario", str(scen), "--out", str(out)] + SOLVE_FLAGS,
            ).exit_code
            == 0
        )
        result = runner.invoke(
            main,
            [
                "certify",
                "--scenario",
                str(scen),
                "--result",
                str(out / "result.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "certified" in result.output

    def test_exact_mode_day_solves_and_certifies(self, runner, tmp_path):
        # the criterion-3 day: every candidate tree fits exact_cap, so solve
        # and certify both check it on its own grids
        scen = synth_file(runner, tmp_path / "scen.yaml", households=2, intervals=2, seed=1)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out)]
            + ["--soc-grid", "5", "--action-grid", "5", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main, ["certify", "--scenario", str(scen), "--result", str(out / "result.json")]
        )
        assert result.exit_code == 0, result.output
        assert "certified" in result.output

    def test_certify_fails_with_tight_epsilon(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml", households=3, intervals=8, seed=0)
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out), "--max-sweeps", "1"]
            + SOLVE_FLAGS,
        )
        result = runner.invoke(
            main,
            [
                "certify",
                "--scenario",
                str(scen),
                "--result",
                str(out / "result.json"),
            ],
        )
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_certify_rejects_mismatched_scenario(self, runner, tmp_path):
        scen = synth_file(runner, tmp_path / "scen.yaml")
        other = synth_file(runner, tmp_path / "other.yaml", seed=6)
        out = tmp_path / "out"
        runner.invoke(
            main,
            ["solve", "--scenario", str(scen), "--out", str(out)] + SOLVE_FLAGS,
        )
        result = runner.invoke(
            main,
            [
                "certify",
                "--scenario",
                str(other),
                "--result",
                str(out / "result.json"),
            ],
        )
        assert result.exit_code == 1
        assert "digest" in result.output


@pytest.fixture
def baseline_result(runner, tmp_path):
    """A scenario plus a well-formed result.json whose game section is
    rebuilt from the baseline run (zero decisions, which are feasible)."""
    return _baseline_result(runner, tmp_path)


def _baseline_result(runner, tmp_path, **synth):
    scen = synth_file(runner, tmp_path / "scen.yaml", **synth)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["solve", "--scenario", str(scen), "--out", str(out), "--baseline-only"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "result.json").read_text())
    horizon = len(doc["baseline"]["aggregated_load"])
    zeros = [0.0] * horizon
    doc["game"] = {
        "households": {
            hid: {"a": zeros, "e": zeros} for hid in doc["baseline"]["bills"]
        }
    }
    return scen, doc, tmp_path / "result.json"


def _certify(runner, scen, doc, path):
    path.write_text(json.dumps(doc))
    return runner.invoke(main, ["certify", "--scenario", str(scen), "--result", str(path)])


@pytest.mark.parametrize(
    "excess, code", [pytest.param(0.0, 0, id="at-eps"), pytest.param(5e-10, 2, id="above-eps")]
)
def test_certify_fails_any_gain_above_epsilon(runner, baseline_result, monkeypatch, excess, code):
    scen, doc, path = baseline_result
    eps = doc["config"]["epsilon"]
    def gains(scenario, schedules, config):
        return [eps + excess] * len(schedules)

    monkeypatch.setattr(cli, "deviation_gains", gains)
    result = _certify(runner, scen, doc, path)
    assert result.exit_code == code, result.output
    assert ("FAIL" in result.output) == (code == 2)


def test_certify_checks_the_intact_baseline_document(runner, baseline_result):
    result = _certify(runner, *baseline_result)
    assert result.exit_code == 2, result.output  # zero decisions are no equilibrium
    assert "FAIL" in result.output


def _floor_day(runner, tmp_path):
    """The 2x6 seed-5 day solved under a 6 kWh floor, as a certify input."""
    scen = synth_file(runner, tmp_path / "floor.yaml", intervals=6, seed=5)
    out = tmp_path / "floor"
    flags = ["--soc-grid", "24", "--action-grid", "5", "--terminal-soc-min", "6"]
    result = runner.invoke(main, ["solve", "--scenario", str(scen), "--out", str(out)] + flags)
    assert result.exit_code == 0, result.output
    return scen, json.loads((out / "result.json").read_text()), tmp_path / "result.json"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9: floor_path keeps one lowest SOC per interval, and "
    "s_max = 13.5 leaks below the floor, so a reachable floor is called unreachable",
)
def test_flagship_floor_just_below_s_max_is_reachable(runner, tmp_path):
    scen = synth_file(runner, tmp_path / "flagship.yaml", households=4, intervals=24, seed=7)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["solve", "--scenario", str(scen), "--out", str(out), "--terminal-soc-min", "13.49"],
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("day, code", [("floor", 0), ("fail", 2)])
def test_certify_output_does_not_depend_on_the_cpus(
    runner, tmp_path, monkeypatch, day, code
):
    scen, doc, path = (_floor_day if day == "floor" else _baseline_result)(runner, tmp_path)
    outputs = []
    for cpus in (None, {0}, {0, 1}):
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        result = _certify(runner, scen, doc, path)
        assert result.exit_code == code, result.output
        outputs.append(result.stdout_bytes)
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "workers"])
def test_error_in_a_household_search_is_one_line(
    runner, baseline_result, monkeypatch, cpus
):
    def broken(*args):
        raise errors.InfeasibleConfigError("terminal_soc_min 6 unreachable")

    # patched before the fork, so the workers inherit it
    monkeypatch.setattr(engine, "_respond", broken)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    result = _certify(runner, *baseline_result)
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output == "error: terminal_soc_min 6 unreachable\n"


def _error_classes(cls=errors.GridShareError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    # errors raised in a measuring worker reach the CLI pickled
    if cls is errors.ScenarioValidationError:
        exc = cls(["tariff: must be a mapping", "h1.id: a; b"])
    else:
        exc = cls("demand: expected 6 entries, got 5")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)


def _set_h1(**series):
    """A corruption that replaces series of h1's schedule (the day has 12 intervals)."""

    def corrupt(doc):
        doc["game"]["households"]["h1"].update(series)

    return corrupt


BAD = "error: invalid result document: "


@pytest.mark.parametrize(
    "corrupt, line",
    [
        pytest.param(
            lambda doc: doc["config"].update(bogus=1),
            BAD + "unknown config key 'bogus'",
            id="unknown-config-key",
        ),
        pytest.param(
            lambda doc: doc["config"].update(epsilon=0),
            BAD + "config.epsilon must be finite and > 0",
            id="zero-epsilon",
        ),
        pytest.param(
            lambda doc: doc["config"].update(exact_cap=20000),
            BAD + "unknown config key 'exact_cap'",
            id="v1-config-key",
        ),
        pytest.param(
            lambda doc: doc["config"].update(cold_start=False),
            BAD + "unknown config key 'cold_start'",
            id="v2-cold-start-key",
        ),
        pytest.param(
            lambda doc: doc["config"].update(soc_grid=10**13),
            BAD + "config.soc_grid 10000000000000 with action_grid 9 needs stage "
            "blocks of more than 10000000 cells",
            id="absurd-soc-grid",
        ),
        pytest.param(
            lambda doc: doc["config"].update(soc_grid=400000, action_grid=3),
            "error: check grids: soc_grid 800000 with action_grid 6 needs stage "
            "blocks of more than 10000000 cells",
            id="check-grids-too-large",
        ),
        pytest.param(
            lambda doc: doc["config"].pop("terminal_soc_min"),
            BAD + "config is missing terminal_soc_min",
            id="missing-config-key",
        ),
        pytest.param(
            lambda doc: doc.update(schema_version=99),
            BAD + "schema_version: expected 3, got 99",
            id="wrong-schema-version",
        ),
        pytest.param(
            lambda doc: doc.pop("schema_version"),
            BAD + "schema_version: expected 3, got None",
            id="missing-schema-version",
        ),
        pytest.param(
            lambda doc: doc.update(schema_version=True),
            BAD + "schema_version: expected 3, got True",
            id="bool-schema-version",
        ),
        pytest.param(
            lambda doc: doc.update(schema_version=json.loads("[" * 500 + "]" * 500)),
            BAD + "schema_version: expected 3, got " + "[" * 37 + "...",
            id="deep-schema-version",
        ),
        pytest.param(lambda doc: doc.update(game=None), BAD + "no game section", id="null-game"),
        pytest.param(
            lambda doc: doc.update(config=5),
            BAD + "config must be a mapping",
            id="config-not-mapping",
        ),
        pytest.param(
            lambda doc: doc["game"]["households"].pop("h1"),
            BAD + "game.households.h1 is missing",
            id="missing-household",
        ),
        pytest.param(
            _set_h1(a=[0.0]),
            BAD + "game.households.h1: a and e need 12 finite numbers each",
            id="short-a",
        ),
        pytest.param(
            _set_h1(e=[0.0] * 11 + [math.nan]),
            BAD + "game.households.h1: a and e need 12 finite numbers each",
            id="nan-e",
        ),
        pytest.param(
            _set_h1(a=[-100.0] * 12),
            BAD + "giver decision outside its feasible region "
            "(t=0, a=-100, e=0, d=-1.26223, soc=7.15156)",
            id="infeasible-schedule",
        ),
        # h1 takes at t = 3, and no one offers on the zero-decision day
        pytest.param(
            _set_h1(e=[0.0] * 3 + [-0.5] + [0.0] * 8),
            BAD + "pool overdrawn at t=3: draws 0.5 > 0 available",
            id="overdrawn-pool",
        ),
        pytest.param(
            lambda doc: doc["config"].update(terminal_soc_min=13.0),
            BAD + "terminal_soc_min 13 missed: h1 ends at 11.5187 kWh, h2 ends at 8.47735 kWh",
            id="missed-floor",
        ),
        # 401-digit ints, beyond any float
        pytest.param(
            lambda doc: doc["config"].update(epsilon=10**400),
            BAD + "config.epsilon must be finite and > 0",
            id="huge-epsilon",
        ),
        pytest.param(
            lambda doc: doc["config"].update(terminal_soc_min=10**400),
            BAD + "config.terminal_soc_min must be None or finite",
            id="huge-floor",
        ),
        # values of the wrong type
        pytest.param(
            lambda doc: doc["config"].update(soc_grid=24.0),
            BAD + "config.soc_grid must be an int, got 24.0",
            id="float-soc-grid",
        ),
        pytest.param(
            lambda doc: doc["config"].update(seed=True),
            BAD + "config.seed must be an int, got True",
            id="bool-seed",
        ),
        pytest.param(
            lambda doc: doc["config"].update(epsilon=None),
            BAD + "config.epsilon must be finite and > 0",
            id="null-epsilon",
        ),
    ],
)
def test_certify_rejects_bad_result_document(runner, baseline_result, corrupt, line):
    scen, doc, path = baseline_result
    corrupt(doc)
    result = _certify(runner, scen, doc, path)
    assert result.exit_code == 1, result.output
    assert result.output == line + "\n"
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_certify_rejects_charge_above_rate_limit(runner, tmp_path):
    # on this day h1 may charge rho_plus * dt = 3.3 at t = 0, and its SOC
    # has room for 8.1, so only the rate limit rules 4.95 out
    scen, doc, path = _baseline_result(
        runner, tmp_path, households=1, intervals=24, seed=7
    )
    doc["game"]["households"]["h1"]["a"] = [4.95] + [0.0] * 23
    result = _certify(runner, scen, doc, path)
    assert result.exit_code == 1, result.output
    assert "error:" in result.output
    assert "feasible region" in result.output


# a Latin-1 "é" makes an otherwise plain document invalid UTF-8
NOT_UTF8 = b"households: [caf\xe9]\n"


def _unreadable(tmp_path, kind, name):
    path = tmp_path / name
    if kind == "directory":
        path.mkdir()
    elif kind == "huge-int":  # longer than Python converts to an int
        path.write_text('{"schema_version": %s}' % ("9" * 5000))
    elif kind == "deep":  # nested past json's recursion limit and the YAML bound
        path.write_text("[" * 2000 + "]" * 2000)
    else:
        path.write_bytes(NOT_UTF8)
    return path


@pytest.mark.parametrize(
    "kind, message",
    [
        ("directory", "error: cannot read scenario file"),
        ("not-utf8", "parse error"),
        ("deep", "parse error: collections nest deeper than"),
    ],
    ids=["directory", "not-utf8", "deep"],
)
@pytest.mark.parametrize("command", ["check", "solve", "certify"])
def test_unreadable_scenario_is_input_error(runner, tmp_path, command, kind, message):
    path = _unreadable(tmp_path, kind, "scen.yaml")
    extra = {
        "check": [],
        "solve": ["--out", str(tmp_path / "out")],
        "certify": ["--result", str(tmp_path / "result.json")],
    }[command]
    result = runner.invoke(main, [command, "--scenario", str(path), *extra])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert message in result.output


def _tiny_efficiencies(doc):
    doc["eta_inv"] = doc["eta_bar"] = 1e-300
    for h in doc["households"]:
        h["battery"].update(eta_plus=1e-300, eta_minus=1e-300)


def _rho_bar_minus_two(doc):
    for h in doc["households"]:
        h["battery"]["rho_bar"] = -2.0


def _huge_p0(doc):
    doc["tariff"]["p0"] = 1e300


def _huge_battery(doc):
    for h in doc["households"]:
        h["battery"].update(s_min=1e290, s_max=3e290, rho_plus=1e290, rho_minus=-1e290)
        h["initial_soc"] = 2e290


@pytest.mark.parametrize(
    "intervals, edit, listed",
    [
        (6, _tiny_efficiencies, ["  - eta_inv: must be in", "battery: eta_plus must be in"]),
        # at a fractional dt, (1 + rho_bar) ** dt is complex
        (5, _rho_bar_minus_two, ["battery: rho_bar must be in [-1, 0)"]),
        (6, _huge_p0, ["  - tariff.p0: must be in (0, 1e+30], got 1e+300"]),
        (6, _huge_battery, ["battery: require 0 <= s_min < s_max <= 1e+30"]),
    ],
    ids=["efficiency-1e-300", "rho-bar-minus-two", "p0-1e300", "battery-1e290"],
)
def test_day_beyond_the_numeric_range_fails_check_and_solve(
    runner, tmp_path, intervals, edit, listed
):
    # check accepts exactly the days solve can price
    scen = synth_file(runner, tmp_path / "scen.yaml", intervals=intervals, seed=5)
    doc = yaml.safe_load(scen.read_text())
    edit(doc)
    scen.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    check = ["check", "--scenario", str(scen)]
    solve = ["solve", "--scenario", str(scen), "--out", str(out)]
    for args in (check, solve + ["--soc-grid", "24", "--action-grid", "5"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("scenario invalid:\n")
        for text in listed:
            assert text in result.output
    assert not (out / "result.json").exists()


def test_certify_rejects_a_day_beyond_the_numeric_range(runner, tmp_path):
    # a solved day whose demands are then set to 1e308, with the result's
    # digest set to match, so only the scenario's range stops certify
    scen = synth_file(runner, tmp_path / "scen.yaml", intervals=2, seed=1)
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["solve", "--scenario", str(scen), "--out", str(out)]
        + ["--soc-grid", "5", "--action-grid", "5", "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    scenario = load_scenario(scen)
    for h in scenario.households:
        h.demand = np.full(scenario.horizon, 1e308)
    save_scenario(scenario, scen)
    doc = json.loads((out / "result.json").read_text())
    doc["scenario_digest"] = scenario.digest()
    (out / "result.json").write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["certify", "--scenario", str(scen), "--result", str(out / "result.json")]
    )
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("scenario invalid:\n")
    assert "  - households[h1].demand: entries must be <= 1e+30" in result.output


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "huge-int", "deep"])
def test_certify_rejects_unreadable_result(runner, baseline_result, kind):
    scen, _, path = baseline_result
    path = _unreadable(path.parent, kind, "unreadable.json")
    result = runner.invoke(
        main, ["certify", "--scenario", str(scen), "--result", str(path)]
    )
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: cannot read result document: ")
    assert result.output.count("\n") == 1, result.output


def test_deep_scenario_value_is_one_listed_violation(runner, tmp_path):
    path = tmp_path / "deep.yaml"
    path.write_text("schema_version: 1\nT: " + "[" * 2000 + "]" * 2000 + "\n")
    result = runner.invoke(main, ["check", "--scenario", str(path)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert lines[0] == "scenario invalid:" and len(lines) == 2, result.output
    assert lines[1].startswith("  - parse error: collections nest deeper than")


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([], id="no-command"),
        pytest.param(["--bogus"], id="unknown-group-option"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["solve", "--scenario", "{scen}"], id="solve-missing-out"),
        pytest.param(
            ["solve", "--scenario", "{scen}", "--out", "{out}", "--soc-grid", "abc"],
            id="solve-soc-grid-not-int",
        ),
        pytest.param(
            ["solve", "--scenario", "{scen}", "--out", "{out}", "--bogus"],
            id="solve-unknown-option",
        ),
        pytest.param(["certify", "--scenario", "{scen}"], id="certify-missing-result"),
        pytest.param(
            ["certify", "--scenario", "{scen}", "--result", "{result}", "--epsilon", "1e-3"],
            id="certify-epsilon",
        ),
        pytest.param(["synth", "--out", "{out}", "--p0", "0.02"], id="synth-p0"),
    ],
)
def test_usage_error_exits_one(runner, tmp_path, args):
    # exit 2 means not converged or not certified, never a mistyped command
    scen, doc, result_path = _baseline_result(runner, tmp_path)
    result_path.write_text(json.dumps(doc))
    out = tmp_path / "fresh"
    args = [a.format(scen=scen, out=out, result=result_path) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Usage:" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]], ids=["group", "solve"])
def test_help_exits_zero(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "Usage:" in result.output
