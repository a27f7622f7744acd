"""Command-line driver.

Subcommands: ``synth`` (generate a scenario file), ``check`` (validate
only), ``solve`` (baseline + game + emission), ``certify`` (replay an
emitted result and rerun the solver's own check search, which is the
search that certified it: exhaustive on the game's grids when every
household's candidate tree fits the exhaustive cap (20000 leaves), else on
grids 2x finer in actions but in SOC only in refinement round 0, so in
grid mode it is not an independent check).

Exit codes: 0 success / converged, 2 non-converged (report still written,
or certification failed), 1 input error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click
import numpy as np

from .decisions import Schedule, audit_community
from .engine import GameConfig, deviation_gain
from .errors import GridShareError, ScenarioValidationError
from .report import RESULT_SCHEMA_VERSION, emit, run
from .scenario import (
    SynthShape,
    load_scenario,
    number_series,
    save_scenario,
    synth_scenario,
)


@click.group()
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
@click.option("--demand-peak", default=1.4, show_default=True, help="peak demand power, kW")
@click.option("--re-peak", default=1.2, show_default=True, help="peak RE power, kW")
@click.option("--solar-fraction", default=0.5, show_default=True)
@click.option(
    "--generation-ratio",
    default=1.0,
    show_default=True,
    help="total UC generation relative to the community's positive net demand",
)
@click.option("--p0", default=0.01, show_default=True, help="base price, cost/kWh")
def synth(households, intervals, seed, out, demand_peak, re_peak, solar_fraction, generation_ratio, p0):
    """Generate a reproducible synthetic scenario file."""
    try:
        scenario = synth_scenario(
            households,
            intervals,
            seed,
            SynthShape(
                demand_peak=demand_peak,
                re_peak=re_peak,
                solar_fraction=solar_fraction,
                generation_ratio=generation_ratio,
                p0=p0,
            ),
        )
    except GridShareError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    save_scenario(scenario, out)
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
        elif isinstance(f.default, bool):
            fn = click.option(flag, is_flag=True, default=f.default)(fn)
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
    paths = emit(report, out)
    click.echo(paths["summary"].read_text().rstrip())
    if report.equilibrium is not None and not report.equilibrium.converged:
        sys.exit(2)


def _json_type_ok(value, default) -> bool:
    """Whether a JSON value has the type of a GameConfig field's default."""
    if value is None:
        return default is None
    if isinstance(default, int):  # bool or int; a bool is not an int here
        return type(value) is type(default)
    return type(value) in (int, float)


def _config_from_doc(cfg) -> GameConfig:
    defaults = {f.name: f.default for f in dataclasses.fields(GameConfig)}
    if not isinstance(cfg, dict):
        raise GridShareError("config must be a mapping")
    for name, value in cfg.items():
        if name not in defaults:
            raise GridShareError("unknown config key %r" % name)
        if not _json_type_ok(value, defaults[name]):
            raise GridShareError("config.%s: wrong type, got %r" % (name, value))
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
            if soc[-1] < floor - 1e-9
        ]
        if short:
            raise GridShareError(
                "terminal_soc_min %g missed: %s" % (floor, ", ".join(short))
            )
    return config, schedules


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--result", "result_path", required=True, type=click.Path())
@click.option("--epsilon", default=None, type=float, help="override the run's epsilon")
def certify(scenario_path, result_path, epsilon):
    """Rerun the solver's check search on an emitted result."""
    if epsilon is not None and not 0 < epsilon < math.inf:
        click.echo(
            "error: --epsilon must be finite and > 0, got %r" % epsilon, err=True
        )
        sys.exit(1)
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
    eps = epsilon if epsilon is not None else config.epsilon
    ok = True
    for m, h in enumerate(scenario.households):
        gain = deviation_gain(scenario, schedules, m, config)
        status = "PASS" if gain <= eps + 1e-9 else "FAIL"
        ok = ok and status == "PASS"
        click.echo("%s deviation_gain=%.3g (eps=%.3g) %s" % (h.id, gain, eps, status))
    if not ok:
        sys.exit(2)
    click.echo("certified: no household can gain more than %.3g" % eps)


if __name__ == "__main__":
    main()
