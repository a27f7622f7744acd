import dataclasses
import json

import pytest
import yaml
from click.testing import CliRunner

from gridshare import GameConfig
from gridshare.cli import main


@pytest.fixture
def runner():
    return CliRunner()


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


def _certify(runner, scen, doc, path, *flags):
    path.write_text(json.dumps(doc))
    return runner.invoke(
        main, ["certify", "--scenario", str(scen), "--result", str(path), *flags]
    )


def test_certify_checks_the_intact_baseline_document(runner, baseline_result):
    result = _certify(runner, *baseline_result)
    assert result.exit_code == 2, result.output  # zero decisions are no equilibrium
    assert "FAIL" in result.output


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda doc: doc["config"].update(bogus=1), id="unknown-config-key"),
        pytest.param(lambda doc: doc["config"].update(epsilon=0), id="zero-epsilon"),
        pytest.param(lambda doc: doc["config"].update(exact_cap=20000), id="v1-config-key"),
        pytest.param(lambda doc: doc.update(schema_version=99), id="wrong-schema-version"),
        pytest.param(lambda doc: doc.pop("schema_version"), id="missing-schema-version"),
        pytest.param(lambda doc: doc.update(schema_version=True), id="bool-schema-version"),
        pytest.param(lambda doc: doc["game"]["households"].pop("h1"), id="missing-household"),
        pytest.param(
            lambda doc: doc["game"]["households"]["h1"].update(
                a=[-100.0] * len(doc["game"]["households"]["h1"]["a"])
            ),
            id="infeasible-schedule",
        ),
        pytest.param(
            lambda doc: doc["config"].update(terminal_soc_min=13.0), id="missed-floor"
        ),
    ],
)
def test_certify_rejects_bad_result_document(runner, baseline_result, corrupt):
    scen, doc, path = baseline_result
    corrupt(doc)
    result = _certify(runner, scen, doc, path)
    assert result.exit_code == 1, result.output
    assert "error:" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("epsilon", ["inf", "nan", "-1", "0"])
def test_certify_rejects_bad_epsilon_override(runner, baseline_result, epsilon):
    # the override gets the range check of a run's own epsilon
    result = _certify(runner, *baseline_result, "--epsilon", epsilon)
    assert result.exit_code == 1, result.output
    assert "error:" in result.output
    assert "certified" not in result.output and "FAIL" not in result.output


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
    else:
        path.write_bytes(NOT_UTF8)
    return path


@pytest.mark.parametrize(
    "kind, message",
    [("directory", "error: cannot read scenario file"), ("not-utf8", "parse error")],
    ids=["directory", "not-utf8"],
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


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_certify_rejects_unreadable_result(runner, baseline_result, kind):
    scen, _, path = baseline_result
    path = _unreadable(path.parent, kind, "unreadable.json")
    result = runner.invoke(
        main, ["certify", "--scenario", str(scen), "--result", str(path)]
    )
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "error: cannot read result document" in result.output
