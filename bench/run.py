"""gridshare benchmark: time `gridshare solve` / `certify` and check their output.

Run from the repository root:

    python3 bench/run.py --workload flagship-4x24 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the benchmark writes the workload's scenario file, then
runs the user-facing commands as child processes, one at a time (closed
loop, one client): ``solve``, then ``certify`` on the emitted result twice
(``check`` on the baseline-only workload).  It repeats that attempt
for ``--seconds`` seconds and at least twice, checks every output, and
prints the end-to-end metrics.  With ``--trace 1`` it instead drives each
module's public functions in process and prints the per-layer metrics
(see ``tracing.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the provenance and every figure with its unit.
A JSON record of the run, spans included, is written to ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUNS = ROOT / ".bench_runs"

SETUP_LAUNCHES = 9
MIN_ATTEMPTS = 2  # byte-identical reruns need a second result
#: certify and check take 2-4 s, so each solve gets two of them
VERIFY_REPEATS = 2
CHILD_TIMEOUT_S = 150
#: single-threaded numerics everywhere: the box has two cores
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if not (SRC / "gridshare" / "__init__.py").is_file():
    sys.exit("error: no gridshare sources under %s" % SRC)
sys.path.insert(0, str(SRC))
os.environ.update(THREAD_ENV)  # before numpy is first imported

import numpy  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gridshare import GameConfig, save_scenario  # noqa: E402
from gridshare.errors import GridShareError  # noqa: E402


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True, help="run seed: relabels households")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scenario-seed", type=int, default=None, help="day to solve (default 7)"
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([path] if path else []))
    return env


def run_child(argv, log_path) -> tuple:
    """Run one child to completion; returns (wall seconds, exit code or None)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        return time.perf_counter() - start, code


def gridshare(*args) -> list:
    return [sys.executable, "-m", "gridshare.cli", *args]


def measure_setup(work) -> list:
    """Fresh interpreter until ``gridshare.cli`` is imported, after a warm-up."""
    argv = [sys.executable, "-c", "import gridshare.cli"]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        wall, code = run_child(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError(
                "importing gridshare.cli failed:\n" + (work / "setup.log").read_text()
            )
        times.append(wall)
    return times[1:]


def attempt(workload, path, out) -> tuple:
    """One solve, then VERIFY_REPEATS verify children (certify, or check).

    Returns (solve_s, verify times, result bytes or None, problems).
    """
    solve_argv = gridshare("solve", "--scenario", str(path), "--out", str(out))
    if workload.baseline_only:
        solve_argv.append("--baseline-only")
    solve_s, code = run_child(solve_argv, out.with_suffix(".solve.log"))
    problems = [] if code == 0 else ["solve exited with %s" % code]
    result = out / "result.json"
    if workload.baseline_only:
        verify_argv = gridshare("check", "--scenario", str(path))
    else:
        verify_argv = gridshare("certify", "--scenario", str(path), "--result", str(result))
    verify_s = []
    for k in range(VERIFY_REPEATS):
        wall, code = run_child(verify_argv, out.with_suffix(".verify%d.log" % k))
        verify_s.append(wall)
        if code != 0:
            problems.append("%s exited with %s" % (verify_argv[3], code))
    try:
        raw = result.read_bytes()
    except OSError as exc:
        raw = None
        problems.append("no result: %s" % exc)
    return solve_s, verify_s, raw, problems


def content_problems(raw, scenario, config) -> list:
    try:
        return checks.check_result(json.loads(raw), scenario, config)
    except (ValueError, KeyError, TypeError, GridShareError) as exc:
        return ["malformed or inconsistent result: %r" % (exc,)]


def run_untraced(args, workload, scenario, path, work, config) -> dict:
    setup = measure_setup(work)
    attempts = []
    first_raw = None
    checked = {}  # result bytes -> their content problems; reruns repeat bytes
    start = time.perf_counter()
    while len(attempts) < MIN_ATTEMPTS or time.perf_counter() - start < args.seconds:
        solve_s, verify_s, raw, problems = attempt(
            workload, path, work / ("out%d" % len(attempts))
        )
        if raw is not None:
            first_raw = first_raw or raw
            if raw != first_raw:
                problems.append("result.json differs from the first attempt's")
            if raw not in checked:
                checked[raw] = content_problems(raw, scenario, config)
            problems += checked[raw]
        attempts.append({"solve_s": solve_s, "certify_s": verify_s, "problems": problems})
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    verify_all = [t for a in attempts for t in a["certify_s"]]
    # Child times are averaged, not their median taken: this host's speed
    # switches between a fast and a slow mode for tens of seconds at a time,
    # and the mean weighs each mode by its share of the run where the median
    # of a few samples jumps between the two.
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.fmean(a["solve_s"] for a in attempts), "s"),
        "certify_s": (statistics.fmean(verify_all), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
    }
    quality = {}
    if first_raw is not None and not checked[first_raw]:
        quality = checks.quality(json.loads(first_raw), scenario)
        metrics["bill_total"] = quality.pop("bill_total")
    samples = {"setup_s": len(setup), "solve_s": len(attempts), "certify_s": len(verify_all)}
    return {"metrics": metrics, "quality": quality, "attempts": attempts, "samples": samples}


def run_traced(args, workload, scenario, path, work, config) -> dict:
    if workload.baseline_only:
        game = workloads.make_probe(args.scenario_seed, args.seed)
    else:
        game = scenario
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        out = work / ("trace%d" % len(passes))
        metrics, quality, problems, spans = tracing.traced_pass(workload, path, game, config, out)
        metrics.update(("quality." + name, value) for name, value in quality.items())
        passes.append({"metrics": metrics, "problems": problems, "spans": spans})
    metrics = {
        name: (statistics.median(p["metrics"][name][0] for p in passes), unit)
        for name, (_, unit) in passes[0]["metrics"].items()
    }
    return {
        "metrics": metrics,
        "quality": {},
        "attempts": [{"problems": p["problems"]} for p in passes],
        "samples": {"passes": len(passes)},
        "spans": [p["spans"] for p in passes],
        "engine_game": "%dx%d" % (game.n_households, game.horizon),
    }


def provenance(args, workload, scenario, config) -> dict:
    return {
        "workload": workload.name,
        "run_seed": args.seed,
        "scenario_seed": args.scenario_seed,
        "scenario_digest": scenario.digest(),
        "game_config": dataclasses.asdict(config),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
        "rerun_other_day": "python3 bench/run.py --workload %s --seed %d "
        "--seconds %g --trace %d --scenario-seed 3"
        % (workload.name, args.seed, args.seconds, args.trace),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def tree_digest(top: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    if args.scenario_seed is None:
        args.scenario_seed = workloads.DEFAULT_SCENARIO_SEED
    workload = workloads.WORKLOADS[args.workload]
    config = GameConfig()
    scenario = workloads.make_scenario(workload, args.scenario_seed, args.seed)
    work = WORK / ("%s-seed%d-%d" % (workload.name, args.seed, os.getpid()))
    work.mkdir(parents=True)
    try:
        path = work / "scenario.yaml"
        save_scenario(scenario, path)
        if args.trace:
            run = run_traced(args, workload, scenario, path, work, config)
        else:
            run = run_untraced(args, workload, scenario, path, work, config)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run["provenance"] = provenance(args, workload, scenario, config)
    RUNS.mkdir(exist_ok=True)
    record = RUNS / ("%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    record.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")

    failed = sum(1 for a in run["attempts"] if a["problems"])
    attempted = len(run["attempts"])
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    for a in run["attempts"]:
        for problem in a["problems"]:
            print("FAILED CHECK: " + problem)
    for name, (value, unit) in {**run["metrics"], **run["quality"]}.items():
        print("%-34s %.6g %s" % (name, value, unit))
    print("%-34s %.6g (%d of %d attempts; samples %s)"
          % ("failed_frac", failed / attempted, failed, attempted, run["samples"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
