"""Command-line driver.

Subcommands: ``synth`` (generate a scenario file), ``check`` (validate
only), ``solve`` (baseline + game + emission), ``certify`` (replay an
emitted result and rerun the solver's own check search on the check
grids ``engine._check_config`` picks, judged against the run's own
epsilon; in grid mode that is the search that certified the result, not
an independent check).  ``synth`` takes the day's size and seed; its shape
is fixed (see ``scenario.synth_scenario``).

Exit codes: 0 success / converged, 2 non-converged (report still written,
or certification failed), 1 input or usage error, or an output that
cannot be written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys

import click
import numpy as np

from .decisions import Schedule, audit_community
from .engine import TERMINAL_TOL, GameConfig, deviation_gain
from .errors import GridShareError, ScenarioValidationError
from .report import RESULT_SCHEMA_VERSION, emit, run
from .scenario import load_scenario, number_series, save_scenario, synth_scenario


@contextlib.contextmanager
def _usage_error_exits_1():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Group(click.Group):
    """Exits 1 on a usage error, like on any input error.

    Click's own code for one, 2, means a non-converged solve or a failed
    certificate here.  The group's own arguments are parsed in
    ``make_context``, a command's in ``invoke``.
    """

    def make_context(self, *args, **kwargs):
        with _usage_error_exits_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_error_exits_1():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Day-ahead battery and energy-sharing scheduling for prosumer communities."""


def _load(path):
    try:
        return load_scenario(path)
    except FileNotFoundError:
        click.echo("error: scenario file not found: %s" % path, err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo("error: cannot read scenario file: %s" % exc, err=True)
        sys.exit(1)
    except ScenarioValidationError as exc:
        click.echo("scenario invalid:", err=True)
        for problem in exc.problems:
            click.echo("  - %s" % problem, err=True)
        sys.exit(1)


@main.command()
@click.option("--households", "-M", default=4, show_default=True)
@click.option("--intervals", "-T", default=24, show_default=True)
@click.option("--seed", default=7, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def synth(households, intervals, seed, out):
    """Generate a reproducible synthetic scenario file."""
    try:
        scenario = synth_scenario(households, intervals, seed)
    except GridShareError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    try:
        save_scenario(scenario, out)
    except OSError as exc:
        click.echo("error: cannot write scenario file: %s" % exc, err=True)
        sys.exit(1)
    click.echo("wrote %s (M=%d, T=%d, seed=%d)" % (out, households, intervals, seed))


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
def check(scenario_path):
    """Validate a scenario file; list every violation."""
    scenario = _load(scenario_path)
    click.echo(
        "ok: %d households, T=%d, digest %s"
        % (scenario.n_households, scenario.horizon, scenario.digest()[:12])
    )


def _config_options(fn):
    """Add one ``solve`` flag per GameConfig field, same default."""
    for f in reversed(dataclasses.fields(GameConfig)):
        flag = "--" + f.name.replace("_", "-")
        if f.default is None:
            fn = click.option(flag, default=None, type=float)(fn)
        else:
            fn = click.option(flag, default=f.default, show_default=True)(fn)
    return fn


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--baseline-only", is_flag=True, default=False)
@_config_options
def solve(scenario_path, out, baseline_only, **knobs):
    """Solve baseline and game, emit result.json / traces.csv / summary.txt."""
    scenario = _load(scenario_path)
    try:
        report = run(scenario, GameConfig(**knobs), baseline_only=baseline_only)
    except GridShareError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    try:
        paths = emit(report, out)
    except OSError as exc:
        click.echo("error: cannot write report: %s" % exc, err=True)
        sys.exit(1)
    click.echo(paths["summary"].read_text(encoding="utf-8").rstrip())
    if report.equilibrium is not None and not report.equilibrium.converged:
        sys.exit(2)


def _json_value_ok(value, default) -> bool:
    """Whether a JSON value fits a GameConfig field: its type, a finite float."""
    if value is None:
        return default is None
    if isinstance(default, int):
        return type(value) is int  # a JSON bool is not an int here
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _config_from_doc(cfg) -> GameConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(GameConfig)}
    if not isinstance(cfg, dict):
        raise GridShareError("config must be a mapping")
    for name, value in cfg.items():
        if name not in defaults:
            raise GridShareError("unknown config key %r" % name)
        if not _json_value_ok(value, defaults[name]):
            raise GridShareError("config.%s: invalid value %r" % (name, value))
    missing = [name for name in defaults if name not in cfg]
    if missing:
        raise GridShareError("config is missing %s" % ", ".join(missing))
    return GameConfig(**cfg)


def _read_result(doc, scenario):
    """(config, schedules) of a result document for ``scenario``.

    Raises GridShareError naming the first malformed part, or every
    household whose replayed schedule ends below ``terminal_soc_min``.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("game"), dict):
        raise GridShareError("no game section")
    version = doc.get("schema_version")
    if type(version) is not int or version != RESULT_SCHEMA_VERSION:
        raise GridShareError(
            "schema_version: expected %d, got %r" % (RESULT_SCHEMA_VERSION, version)
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
    trace = audit_community(
        scenario.households,
        schedules,
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
    )
    floor = config.terminal_soc_min
    if floor is not None:
        short = [
            "%s ends at %.6g kWh" % (h.id, soc[-1])
            for h, soc in zip(scenario.households, trace.soc)
            if soc[-1] < floor - TERMINAL_TOL
        ]
        if short:
            raise GridShareError(
                "terminal_soc_min %g missed: %s" % (floor, ", ".join(short))
            )
    return config, schedules


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--result", "result_path", required=True, type=click.Path())
def certify(scenario_path, result_path):
    """Rerun the solver's check search on an emitted result."""
    scenario = _load(scenario_path)
    try:
        with open(result_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        click.echo("error: cannot read result document: %s" % exc, err=True)
        sys.exit(1)
    try:
        config, schedules = _read_result(doc, scenario)
    except GridShareError as exc:
        click.echo("error: invalid result document: %s" % exc, err=True)
        sys.exit(1)
    eps = config.epsilon
    try:
        gains = [
            deviation_gain(scenario, schedules, m, config)
            for m in range(scenario.n_households)
        ]
    except GridShareError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    ok = True
    for h, gain in zip(scenario.households, gains):
        status = "PASS" if gain <= eps else "FAIL"
        ok = ok and status == "PASS"
        click.echo("%s deviation_gain=%.3g (eps=%.3g) %s" % (h.id, gain, eps, status))
    if not ok:
        sys.exit(2)
    click.echo("certified: no household can gain more than %.3g" % eps)


if __name__ == "__main__":
    main()
