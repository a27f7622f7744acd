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
cannot be written.  The group prints any GridShareError as one ``error:`` line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import click

from .engine import GameConfig, deviation_gains
from .errors import GridShareError, ScenarioValidationError
from .report import emit, read_result, run
from .scenario import load_scenario, save_scenario, synth_scenario


@contextlib.contextmanager
def _input_errors_exit_1():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except GridShareError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)


class _Group(click.Group):
    """Exits 1 on a usage error or a GridShareError, like on any input error.

    Click's own code for a usage error, 2, means a non-converged solve or a
    failed certificate here.  The group's own arguments are parsed in
    ``make_context``, a command's in ``invoke``, which also runs it.
    """

    def make_context(self, *args, **kwargs):
        with _input_errors_exit_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _input_errors_exit_1():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Day-ahead battery and energy-sharing scheduling for prosumer communities."""


def _load(path):
    try:
        return load_scenario(path)
    except FileNotFoundError:
        raise GridShareError("scenario file not found: %s" % path) from None
    except OSError as exc:
        raise GridShareError("cannot read scenario file: %s" % exc) from None
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
    scenario = synth_scenario(households, intervals, seed)
    try:
        save_scenario(scenario, out)
    except OSError as exc:
        raise GridShareError("cannot write scenario file: %s" % exc) from None
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
    report = run(scenario, GameConfig(**knobs), baseline_only=baseline_only)
    try:
        paths = emit(report, out)
    except OSError as exc:
        raise GridShareError("cannot write report: %s" % exc) from None
    click.echo(paths["summary"].read_text(encoding="utf-8").rstrip())
    if report.equilibrium is not None and not report.equilibrium.converged:
        sys.exit(2)


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option("--result", "result_path", required=True, type=click.Path())
def certify(scenario_path, result_path):
    """Rerun the solver's check search on an emitted result."""
    scenario = _load(scenario_path)
    config, schedules = read_result(result_path, scenario)
    eps = config.epsilon
    gains = deviation_gains(scenario, schedules, config)
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
