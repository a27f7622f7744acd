"""Non-cooperative game solver: best responses, sweeps, and certification.

Each household's best response minimizes its daily bill with everyone
else's schedule held fixed.  The stage cost couples across time only
through the battery state-of-charge, so the inner solver is a dynamic
program over a discretized SOC grid with per-stage candidate enumeration
(region corners plus uniform samples), followed by iterated local
refinement on shrinking grids so the returned schedule is accurate well
below the convergence tolerance.  A successor SOC, which is continuous,
takes the value linearly interpolated between the two grid cells around
it.  One stage kernel lays out and prices an interval's candidates as a
(state, P, Q) block: a taker's battery actions along P and its pool draws
along Q, a giver's offers along P and its grid charges along Q.  A draw
moves the load but not the SOC, so a taker's SOC step and value lookup
run once per (state, action).  The backward pass and the rollout both
read that block.  For tiny instances the search is exhaustive: the same
DP runs on the exact SOCs the candidate tree reaches at each interval, so
every lookup lands on a cell and the bill equals a brute-force oracle's
exactly.  Equal bills are split by the rollout's rule (cost, then
|a|, |e|, SOC), not by the oracle's enumeration order.

The outer loop repeats one Gauss-Seidel pass: households respond in fixed
id order, each seeing the freshest schedules of the others, and a response
is adopted only when it lowers the bill by more than epsilon.  Passes climb
from the game's grids to the check grids: the first pass that adopts
nothing moves up, and on the check grids it certifies the state.
``max_sweeps`` bounds every pass; a state not certified (cycle or budget)
is measured by one check pass that adopts nothing.  The check grids are
the game's own in exact mode (every household's tree fits the exhaustive
cap, 20000 leaves), where the search is exact, so the clean sweep
certifies; else grids with twice the game's ``soc_grid`` and
``action_grid``.  Those are 2x finer in actions, but in SOC only in
refinement round 0 once ``soc_grid`` exceeds 20, since every later round's
local SOC grid is capped at 41 points plus 9 anchors.  So in grid mode the
certificate is the same search that polished the state, not an
independent check.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import billing
from .decisions import Schedule, audit_community
from .errors import GridShareError, InfeasibleConfigError
from .scenario import Scenario

_TERMINAL_TOL = 1e-9
_REFINE_ROUNDS = 26  # local-grid rounds after the uniform round 0
_EXACT_CAP = 20000  # max candidate-tree leaves for exhaustive mode


@dataclass(frozen=True)
class GameConfig:
    """Solver knobs; the defaults suit day-long scenarios at T = 24..96."""

    epsilon: float = 1e-6
    max_sweeps: int = 100
    soc_grid: int = 64
    action_grid: int = 9
    seed: int = 0
    cold_start: bool = False
    terminal_soc_min: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise GridShareError("epsilon must be finite and > 0")
        if self.max_sweeps < 1:
            raise GridShareError("max_sweeps must be >= 1")
        if self.soc_grid < 2:
            raise GridShareError("soc_grid must be >= 2")
        if self.action_grid < 3:
            raise GridShareError("action_grid must be >= 3")
        if self.seed < 0:
            raise GridShareError("seed must be >= 0")
        if self.terminal_soc_min is not None and not math.isfinite(
            self.terminal_soc_min
        ):
            raise GridShareError("terminal_soc_min must be None or finite")


@dataclass
class EquilibriumResult:
    """Outcome of :func:`solve`, fully re-derivable from the schedules.

    ``deviation_gains`` are the last pass's gains, measured on the grids
    :func:`deviation_gain` uses.  ``sweeps_used`` counts the passes on the
    game's own grids; ``max_sweeps`` bounds those and the check passes.
    """

    schedules: list
    bills: list
    loads: np.ndarray           # (M, T)
    aggregated: np.ndarray      # (T,)
    pool: np.ndarray            # (T,) leftover shared energy per interval
    soc: np.ndarray             # (M, T+1)
    converged: bool
    sweeps_used: int
    max_deviation_gain: float
    deviation_gains: list
    convergence_log: list
    cycle_detected: bool


# ---------------------------------------------------------------------------
# precomputed views of the problem


@dataclass
class _Problem:
    d: np.ndarray       # (M, T) net demand
    taker: np.ndarray   # (M, T) bool
    g: np.ndarray
    p0: float
    eta_inv: float
    eta_bar: float
    dt: float
    bats: list
    s0: list


def _build_problem(scenario: Scenario) -> _Problem:
    d = scenario.net_demands()
    return _Problem(
        d=d,
        taker=d > 0.0,
        g=np.asarray(scenario.tariff.generation, dtype=float),
        p0=scenario.tariff.p0,
        eta_inv=scenario.eta_inv,
        eta_bar=scenario.eta_bar,
        dt=scenario.dt,
        bats=[h.battery for h in scenario.households],
        s0=[float(h.initial_soc) for h in scenario.households],
    )


@dataclass
class _Env:
    """Everything household m's best response needs, with others frozen."""

    d: np.ndarray          # (T,)
    taker: np.ndarray      # (T,) bool
    l_others: np.ndarray   # (T,)
    pool_avail: np.ndarray # (T,) pool left for m at taker intervals
    min_offer: np.ndarray  # (T,) offer m must keep up at giver intervals
    g: np.ndarray
    p0: float
    eta_inv: float
    dt: float
    s0: float
    bat: object
    terminal_min: float | None
    # battery constants hoisted out of the inner loops
    s_min: float = field(init=False)
    s_max: float = field(init=False)
    s_tr: float = field(init=False)
    cvf: float = field(init=False)    # 1 - exp(-dt / gamma_2)
    sdf: float = field(init=False)    # (1 + rho_bar) ** dt
    phim: float = field(init=False)   # phi_minus
    c_charge: float = field(init=False)     # eta_inv * eta_plus
    c_discharge: float = field(init=False)  # eta_inv * eta_minus

    def __post_init__(self):
        bat = self.bat
        self.s_min = bat.s_min
        self.s_max = bat.s_max
        self.s_tr = bat.transition_soc
        self.cvf = 1.0 - math.exp(-self.dt / bat.gamma_2)
        self.sdf = (1.0 + bat.rho_bar) ** self.dt
        self.phim = bat.rho_minus * self.dt * self.eta_inv * bat.eta_minus
        self.c_charge = self.eta_inv * bat.eta_plus
        self.c_discharge = self.eta_inv * bat.eta_minus

    @property
    def horizon(self) -> int:
        return len(self.d)

    @cached_property
    def floor_path(self) -> list:
        """Lowest SOC per interval from which the candidates reach the floor.

        Entry t >= 1 is a SOC whose highest candidate successor is at least
        entry t + 1; the last entry is ``terminal_min``, entry 0 is None,
        and a stage no SOC gets through leaves it and the earlier entries
        None.  Four rounds of a 33-point scan put each entry within
        span / 32**4 above the true boundary.  :func:`_dp` adds the entries
        to its grids, so interpolation beside the inf cells, which reads inf
        up to the next finite cell, does not round the feasible set up.
        """
        none = np.zeros(0)
        path = [None] * (self.horizon + 1)
        path[-1] = self.terminal_min
        for t in range(self.horizon - 1, 0, -1):
            lo, hi = self.s_min, self.s_max
            for _ in range(4):
                s = np.linspace(lo, hi, 33)
                nxt = _stage(self, t, s, 2, none, none)[3]
                top = nxt.reshape(len(s), -1).max(axis=1)
                ok = np.flatnonzero(top >= path[t + 1])
                if not len(ok):
                    return path
                i = ok[0]
                lo, hi = s[max(i - 1, 0)], s[i]
            path[t] = hi
        return path


def _raw_loads(problem: _Problem, A: np.ndarray, E: np.ndarray) -> np.ndarray:
    return np.where(problem.taker, problem.d + A + E, A)


def _build_env(
    problem: _Problem,
    A: np.ndarray,
    E: np.ndarray,
    m: int,
    terminal_min: float | None,
) -> _Env:
    giver = ~problem.taker
    loads = _raw_loads(problem, A, E)
    l_others = loads.sum(axis=0) - loads[m]
    offers = np.where(giver, E, 0.0)
    draws = np.where(problem.taker, -E, 0.0)
    offers_others = offers.sum(axis=0) - offers[m]
    draws_others = draws.sum(axis=0) - draws[m]
    eta_bar = problem.eta_bar
    pool_avail = np.maximum(0.0, eta_bar * offers_others - draws_others)
    # m is a giver wherever min_offer matters, so draws_others == all draws
    min_offer = np.maximum(0.0, draws_others / eta_bar - offers_others)
    return _Env(
        d=problem.d[m],
        taker=problem.taker[m],
        l_others=l_others,
        pool_avail=pool_avail,
        min_offer=min_offer,
        g=problem.g,
        p0=problem.p0,
        eta_inv=problem.eta_inv,
        dt=problem.dt,
        s0=problem.s0[m],
        bat=problem.bats[m],
        terminal_min=terminal_min,
    )


# ---------------------------------------------------------------------------
# candidate enumeration (vectorized over SOC states)


def _phi_plus_vec(env: _Env, s: np.ndarray) -> np.ndarray:
    cv = np.maximum(0.0, (env.s_max - s) * env.cvf)
    return np.where(s < env.s_tr, env.bat.rho_plus * env.dt, cv)


# Feasible-region bounds, shared by the candidate enumeration and the
# random start.  ``s`` and ``phi_p`` (= _phi_plus_vec(env, s)) may be scalars
# or arrays; ``d`` is the interval's net demand.


def _taker_action_range(env, s, d, phi_p):
    """Battery action range [a_lo, a_hi] of a taker; it always holds 0."""
    a_lo = np.maximum(
        np.maximum(env.phim, -(s - env.s_min) * env.c_discharge), -d
    )
    a_hi = np.maximum(np.minimum(phi_p, (env.s_max - s) / env.c_charge), 0.0)
    return np.minimum(a_lo, 0.0), a_hi


def _taker_draw_floor(d, a, pool):
    """Lowest pool draw e_lo(a, pool) <= 0 for a taker taking action ``a``."""
    return np.minimum(0.0, np.maximum(-d - a, -pool))


def _giver_offer_range(env, s, d, phi_p, min_offer):
    """Offer range [e_lo, -d] of a giver that must keep up ``min_offer``."""
    e_lo = np.maximum(0.0, -d - phi_p)
    e_lo = np.maximum(e_lo, -d - (env.s_max - s) / env.bat.eta_plus)
    e_lo = np.maximum(e_lo, min_offer)
    return np.minimum(e_lo, -d), -d


def _giver_charge_cap(env, s, d, phi_p, e):
    """Largest grid charge a_cap(e) left beside the local charge of offer ``e``."""
    local = np.maximum(0.0, -d - e)
    a_cap = np.minimum(
        phi_p - local, (env.s_max - s - env.bat.eta_plus * local) / env.c_charge
    )
    return np.maximum(a_cap, 0.0)


def _transition(env, t, s, a, e):
    """Next SOC from ``s`` under (a, e); mirrors the scalar battery updates.

    Works on scalars and on arrays that broadcast against each other.
    """
    if env.taker[t]:
        nxt = np.where(
            a > 0.0,
            s + env.c_charge * a,
            np.where(a < 0.0, s + a / env.c_discharge, s * env.sdf),
        )
    else:
        local = np.maximum(0.0, -float(env.d[t]) - e)
        total = a + local
        nxt = np.where(
            total == 0.0,
            s * env.sdf,
            s + env.c_charge * a + env.bat.eta_plus * local,
        )
    return np.clip(nxt, env.s_min, env.s_max)


def _stage(env, t, s, n_act, extra_a, extra_e):
    """Interval ``t``'s candidates, priced, for every state in ``s``.

    Returns (a, e, cost, nxt): the region samples plus the clipped extras,
    each pair's stage cost and its next SOC, as arrays that broadcast to
    one (n, P, Q) block.  A taker's actions run along P and its draws along
    Q; a draw moves the load but never the SOC, so ``nxt`` is (n, P, 1).  A
    giver's offers run along P and its grid charges along Q.
    """
    d = float(env.d[t])
    s = s[:, None, None]
    phi_p = _phi_plus_vec(env, s)
    fr = np.linspace(0.0, 1.0, n_act)
    along_p, along_q = fr[None, :, None], fr[None, None, :]
    if env.taker[t]:
        a_lo, a_hi = _taker_action_range(env, s, d, phi_p)
        a = np.concatenate(
            [
                a_lo + along_p * (a_hi - a_lo),
                np.zeros((len(s), 1, 1)),
                np.clip(extra_a[None, :, None], a_lo, a_hi),
            ],
            axis=1,
        )
        e_lo = _taker_draw_floor(d, a, float(env.pool_avail[t]))
        e = np.concatenate(
            [e_lo * (1.0 - along_q), np.clip(extra_e[None, None, :], e_lo, 0.0)],
            axis=2,
        )
        loads = d + a + e
    else:
        e_lo, e_hi = _giver_offer_range(env, s, d, phi_p, float(env.min_offer[t]))
        e = np.concatenate(
            [
                e_lo + along_p * (e_hi - e_lo),
                np.clip(extra_e[None, :, None], e_lo, e_hi),
            ],
            axis=1,
        )
        a_cap = _giver_charge_cap(env, s, d, phi_p, e)
        a = np.concatenate(
            [a_cap * along_q, np.clip(extra_a[None, None, :], 0.0, a_cap)], axis=2
        )
        loads = a
    gap = loads + (float(env.l_others[t]) - float(env.g[t]))
    return a, e, loads * (gap * gap + env.p0), _transition(env, t, s, a, e)


def _bill_of(env: _Env, a: np.ndarray, e: np.ndarray) -> float:
    """Exact daily bill of a schedule against the frozen others."""
    loads = np.where(env.taker, env.d + a + e, a)
    gap = loads + env.l_others - env.g
    terms = loads * (gap * gap + env.p0)
    return math.fsum(terms.tolist())


def _soc_trajectory(env: _Env, a: np.ndarray, e: np.ndarray) -> np.ndarray:
    soc = np.zeros(env.horizon + 1)
    s = env.s0
    soc[0] = s
    for t in range(env.horizon):
        s = float(_transition(env, t, s, a[t], e[t]))
        soc[t + 1] = s
    return soc


# ---------------------------------------------------------------------------
# dynamic program over SOC grids


def _terminal_values(env: _Env, grid: np.ndarray) -> np.ndarray:
    v = np.zeros(len(grid))
    if env.terminal_min is not None:
        v[grid < env.terminal_min - _TERMINAL_TOL] = np.inf
    return v


def _dp(env, grids, n_act, extras_a, extras_e):
    """Backward pass over the SOC grids, then a rollout from the exact s0.

    Interval t's candidates are the region samples plus ``extras_a[t]`` and
    ``extras_e[t]``; a successor SOC takes the value interpolated linearly
    between its two neighbouring cells (a cell's own value on a cell).
    Next to an inf cell (below ``terminal_soc_min``) that value is inf,
    never NaN; under a floor each grid also holds its interval's
    :attr:`_Env.floor_path` entry, so the last feasible SOC is a node.

    Each stage is one (state, P, Q) block from :func:`_stage`.  A taker's
    ``nxt`` is per (state, action), so its SOC step and value lookup run
    once per action and the value is added to every draw of that action.
    The block minimum equals the minimum over each action's cheapest draw,
    bit for bit, since rounding is monotone: min_e fl(c_e + v) ==
    fl(min_e c_e + v), also when v is inf.
    """
    horizon = env.horizon
    if env.terminal_min is not None:
        grids = [
            g if f is None else np.union1d(g, [f])
            for g, f in zip(grids, env.floor_path)
        ]
    values = [None] * (horizon + 1)
    values[horizon] = _terminal_values(env, grids[horizon])

    def value_after(t, nxt):
        return np.interp(nxt, grids[t + 1], values[t + 1])

    for t in range(horizon - 1, 0, -1):
        # a stage's arrays stay bound until the next stage has built its own:
        # freed at once, they let malloc trim the heap, and regrowing it took
        # a flagship solve from 0.34M to 2.05M minor page faults
        a, e, cost, nxt = _stage(env, t, grids[t], n_act, extras_a[t], extras_e[t])
        cost += value_after(t, nxt)
        values[t] = cost.reshape(len(cost), -1).min(axis=1)

    a_out = np.zeros(horizon)
    e_out = np.zeros(horizon)
    s = env.s0
    for t in range(horizon):
        a, e, cost, nxt = _stage(env, t, np.array([s]), n_act, extras_a[t], extras_e[t])
        cost += value_after(t, nxt)
        # one state's pairs, flat: action-major for takers, offer-major for givers
        a, e, nxt, total = (
            np.broadcast_to(x, cost.shape).ravel() for x in (a, e, nxt, cost)
        )
        if not np.isfinite(total).any():
            raise InfeasibleConfigError(
                "terminal_soc_min %g unreachable from SOC %g at t=%d"
                % (env.terminal_min, s, t)
            )
        # deterministic tie-breaking: cost, then |a|, then |e|, then SOC
        best = np.lexsort((nxt, np.abs(e), np.abs(a), total))[0]
        a_out[t] = a[best]
        e_out[t] = e[best]
        s = float(nxt[best])
    return a_out, e_out


def _exhaustive(taker: np.ndarray, n_act: int, cap: int) -> bool:
    """Whether a household's exhaustive candidate tree has at most ``cap`` leaves."""
    return math.prod((n_act + 1) * n_act if t else n_act * n_act for t in taker) <= cap


def _reachable_grids(env: _Env, n_act: int) -> list:
    """Every SOC the candidate tree reaches, per interval, from the exact s0.

    Each successor is a cell of the next grid, where the interpolated
    lookup returns that cell's value exactly, so the DP on these grids is
    the exhaustive search.
    """
    none = np.zeros(0)
    grids = [np.array([env.s0])]
    for t in range(env.horizon):
        grids.append(np.unique(_stage(env, t, grids[t], n_act, none, none)[3]))
    return grids


def _uniform_grid(env: _Env, n: int) -> np.ndarray:
    return np.linspace(env.s_min, env.s_max, n)


def _local_grids(env: _Env, soc_traj: np.ndarray, n: int, sigma: float):
    # locality buys more precision than raw grid size, so cap the count
    n = min(n, 41)
    anchors = _uniform_grid(env, min(n, 9))
    grids = [None] * (env.horizon + 1)
    for t in range(1, env.horizon + 1):
        center = soc_traj[t]
        local = np.clip(
            np.linspace(center - sigma, center + sigma, n),
            env.s_min,
            env.s_max,
        )
        grids[t] = np.unique(np.concatenate([local, anchors, [center]]))
    grids[0] = np.array([env.s0])
    return grids


# ---------------------------------------------------------------------------
# best response, Gauss-Seidel passes and the outer loop


def _respond(problem, A, E, m, config):
    """Household ``m``'s best response on ``config``'s grids: (a, e, gain >= 0).

    When the candidate tree fits ``_EXACT_CAP``, one DP on the reachable SOC
    sets, which is exhaustive; else DP rounds on grids that shrink around
    the best schedule so far.  Only a lower bill replaces the incumbent.
    """
    env = _build_env(problem, A, E, m, config.terminal_soc_min)
    n_act = config.action_grid
    best_a, best_e = A[m], E[m]
    old_bill = best_bill = _bill_of(env, best_a, best_e)
    if _exhaustive(env.taker, n_act, _EXACT_CAP):
        none = np.zeros((env.horizon, 0))
        a, e = _dp(env, _reachable_grids(env, n_act), n_act, none, none)
        bill = _bill_of(env, a, e)
        if bill < best_bill:
            best_a, best_e, best_bill = a, e, bill
    else:
        span = env.s_max - env.s_min
        stale = 0
        for k in range(_REFINE_ROUNDS + 1):
            if k == 0:
                grids = [_uniform_grid(env, config.soc_grid)] * (env.horizon + 1)
                offsets = np.zeros(1)
            else:
                sigma = span * 0.5**k
                traj = _soc_trajectory(env, best_a, best_e)
                grids = _local_grids(env, traj, config.soc_grid, sigma)
                offsets = sigma * np.linspace(-1.0, 1.0, 7)
            extras_a = best_a[:, None] + offsets
            extras_e = best_e[:, None] + offsets
            a, e = _dp(env, grids, n_act, extras_a, extras_e)
            bill = _bill_of(env, a, e)
            if bill < best_bill - 1e-15:
                gain = best_bill - bill
                best_a, best_e, best_bill = a, e, bill
                stale = 0 if gain > config.epsilon * 1e-3 else stale + 1
            else:
                stale += 1
            if k >= 6 and stale >= 3:
                break
    assert best_bill <= old_bill + 1e-12, "best response worsened a bill"
    return best_a, best_e, max(0.0, old_bill - best_bill)


def _pass(problem, A, E, config, adopt=True):
    """One Gauss-Seidel pass in id order; returns every household's gain.

    A response is adopted when it lowers the bill by more than
    ``config.epsilon``; ``adopt=False`` only measures.
    """
    gains = []
    for m in range(A.shape[0]):
        a, e, gain = _respond(problem, A, E, m, config)
        if adopt and gain > config.epsilon:
            A[m] = a
            E[m] = e
        gains.append(gain)
    return gains


def _matrices(schedules):
    return np.array([s.a for s in schedules]), np.array([s.e for s in schedules])


def _check_config(problem: _Problem, config: GameConfig) -> GameConfig:
    """The config whose grids check a state of the game played on ``config``.

    The game's own grids when every household's candidate tree fits
    ``_EXACT_CAP``, since that search is exact; else twice the game's
    ``soc_grid`` and ``action_grid``.  That is 2x finer in actions, but in
    SOC only in refinement round 0 once ``soc_grid`` exceeds 20, since
    :func:`_local_grids` caps every later round at 41 points plus 9 anchors.
    """
    n_act = config.action_grid
    if all(_exhaustive(t, n_act, _EXACT_CAP) for t in problem.taker):
        return config
    return replace(config, soc_grid=config.soc_grid * 2, action_grid=n_act * 2)


def best_response(
    scenario: Scenario,
    schedules: list,
    m: int,
    config: GameConfig,
) -> Schedule:
    """Bill-minimizing schedule for household ``m`` with others held fixed."""
    A, E = _matrices(schedules)
    a, e, _ = _respond(_build_problem(scenario), A, E, m, config)
    return Schedule(a, e)


def deviation_gain(
    scenario: Scenario,
    schedules: list,
    m: int,
    config: GameConfig,
) -> float:
    """Best unilateral improvement for ``m``, found on the check grids.

    Those are the grids :func:`solve` certifies on: the game's own in exact
    mode (every tree fits the exhaustive cap, 20000 leaves), otherwise 2x
    finer in actions but in SOC only in refinement round 0 (see
    :func:`_check_config`).  Non-negative by construction: the current
    schedule seeds the search.
    """
    problem = _build_problem(scenario)
    A, E = _matrices(schedules)
    return _respond(problem, A, E, m, _check_config(problem, config))[2]


def sweep(scenario: Scenario, schedules: list, config: GameConfig):
    """One Gauss-Seidel pass over all households in fixed id order.

    A response is adopted only when it lowers the bill by more than
    epsilon.  Returns (new_schedules, improved); improved is True iff some
    response was adopted.
    """
    A, E = _matrices(schedules)
    gains = _pass(_build_problem(scenario), A, E, config)
    return [Schedule(a, e) for a, e in zip(A, E)], max(gains) > config.epsilon


def initial_state(scenario: Scenario, config: GameConfig):
    """Seeded feasible starting schedules.

    Random mode samples each decision uniformly inside its feasibility
    region, walking households in id order so pool draws never exceed the
    offers committed so far.  Cold start uses the all-zero / share-all
    point instead.  Under ``terminal_soc_min`` a decision whose SOC would
    fall below the floor path charges as hard as its region allows, so a
    reachable floor is met and no response compares against a start that
    misses it.
    """
    problem = _build_problem(scenario)
    rng = np.random.default_rng(config.seed)
    n, horizon = problem.d.shape
    A = np.zeros((n, horizon))
    E = np.zeros((n, horizon))
    pool_remaining = np.zeros(horizon)
    for m in range(n):
        env = _build_env(problem, A, E, m, config.terminal_soc_min)
        floor = [None] * (horizon + 1)
        if env.terminal_min is not None:
            floor = env.floor_path
        s = env.s0
        for t in range(horizon):
            d = float(env.d[t])
            phi_p = float(_phi_plus_vec(env, s))
            if env.taker[t]:
                if config.cold_start:
                    a, e = 0.0, 0.0
                else:
                    a = rng.uniform(*_taker_action_range(env, s, d, phi_p))
                    e_lo = _taker_draw_floor(d, a, pool_remaining[t])
                    e = rng.uniform(e_lo, 0.0)
            else:
                e_lo, e_hi = _giver_offer_range(env, s, d, phi_p, 0.0)
                if config.cold_start:
                    a, e = 0.0, -d
                else:
                    e = rng.uniform(e_lo, e_hi)
                    a = rng.uniform(0.0, _giver_charge_cap(env, s, d, phi_p, e))
            low = floor[t + 1]
            if low is not None and _transition(env, t, s, a, e) < low:
                # the sample strands the floor: charge as hard as the region allows
                if env.taker[t]:
                    a, e = float(_taker_action_range(env, s, d, phi_p)[1]), 0.0
                else:
                    e = e_lo
                    a = float(_giver_charge_cap(env, s, d, phi_p, e))
            # a taker's e <= 0 draws the pool down; a giver's offer fills it
            pool_remaining[t] += e if env.taker[t] else problem.eta_bar * e
            A[m, t] = a
            E[m, t] = e
            s = float(_transition(env, t, s, a, e))
    return A, E


def _state_hash(A, E) -> str:
    h = hashlib.sha256()
    h.update(np.round(A, 12).tobytes())
    h.update(np.round(E, 12).tobytes())
    return h.hexdigest()


def solve(scenario: Scenario, config: GameConfig) -> EquilibriumResult:
    """Iterated best response from a seeded start, with certification.

    Deterministic for a fixed (scenario, config).  Non-convergence (a cycle,
    or ``max_sweeps`` passes without a certificate) is reported, not raised:
    the result carries converged=False plus the deviation gains of the
    final state, measured on the check grids.
    """
    problem = _build_problem(scenario)
    A, E = initial_state(scenario, config)
    seen = {_state_hash(A, E)}
    log = []
    check = _check_config(problem, config)
    rung = config  # then ``check``, which is ``config`` in exact mode
    certified = cycle = False
    sweeps_used = 0
    for _ in range(config.max_sweeps):
        gains = _pass(problem, A, E, rung)
        entry = {"sweep": len(log) + 1, "max_bill_drop": max(gains)}
        if rung is config:
            sweeps_used += 1
        else:
            entry["certification"] = True
        log.append(entry)
        if max(gains) > config.epsilon:
            h = _state_hash(A, E)
            if h in seen:
                cycle = True
                break
            seen.add(h)
        elif rung is check:
            certified = True
            break
        else:
            rung = check
    if not certified:
        # any other state is measured once, without adopting
        gains = _pass(problem, A, E, check, adopt=False)
        log.append(
            {"sweep": len(log) + 1, "max_bill_drop": max(gains), "certification": True}
        )
    schedules = [Schedule(a, e) for a, e in zip(A, E)]
    trace = audit_community(
        scenario.households,
        schedules,
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
    )
    bills = billing.community_bills(trace.loads, scenario.tariff)
    return EquilibriumResult(
        schedules=schedules,
        bills=bills,
        loads=trace.loads,
        aggregated=trace.aggregated,
        pool=trace.pool_leftover,
        soc=trace.soc,
        converged=certified,
        sweeps_used=sweeps_used,
        max_deviation_gain=max(gains),
        deviation_gains=gains,
        convergence_log=log,
        cycle_detected=cycle,
    )
