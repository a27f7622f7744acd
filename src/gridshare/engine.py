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
run once per (state, action); where the pool is empty every draw equals
its floor, so the draw axis is that one column, and a run of such
intervals is priced in one kernel call, one interval per state.  Each axis
samples its range exactly from end to end, so a one-interval block of more
than one state leaves out the extras that clip onto an end (see
:func:`_stage`).  The backward pass keeps the block's row at the
incumbent's SOC, a node of every refinement grid; a rollout step from that
node reads the row, and any other step prices its one state.  The rollout
breaks ties only among the pairs at the least cost.  For tiny instances the
search is exhaustive: its one round runs the same DP on the exact SOCs the
candidate tree reaches at each interval, so every lookup lands on a cell
and the bill equals a brute-force oracle's exactly.  Equal bills are split
by the rollout's rule (cost, then |a|, |e|, SOC), not by the oracle's
enumeration order.  The floor's one enforcer is the response's inf price
for an incumbent ending below ``terminal_soc_min``; it also repairs a start
that misses the floor.

The outer loop repeats one Gauss-Seidel pass: households respond in fixed
id order, each seeing the freshest schedules of the others, and a response
is adopted only when it lowers the bill by more than epsilon.  Passes climb
from the game's grids to the check grids: the first pass that adopts
nothing moves up, and on the check grids it certifies the state.
``max_sweeps`` bounds every pass; a state not certified (cycle or budget)
is measured by :func:`deviation_gains`, which adopts nothing and runs its
M independent searches on the usable CPUs.  The check grids are
the ones :func:`_check_config` picks: in exact mode the game's own, where
the search is exact for the candidate lattice, not for the continuous game,
so the clean sweep certifies; in grid mode finer ones, where the certificate
is the same search that polished the state, not an independent check.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import billing
from .battery import FEAS_TOL
from .decisions import Schedule, audit_community
from .errors import GridShareError, InfeasibleConfigError
from .scenario import Scenario, _brief, finite_number

_REFINE_ROUNDS = 26  # local-grid rounds after the uniform round 0
_EXACT_CAP = 20000  # max candidate-tree leaves for exhaustive mode
_MAX_BLOCK = 10**7  # max cells of one (state, P, Q) stage block
_LOCAL_POINTS = 41  # cap on the local SOC points of a refinement round
_ANCHORS = 9  # uniform SOC points added to every local grid
_OFFSETS = 7  # extra actions around the incumbent in a refinement round


@dataclass(frozen=True)
class GameConfig:
    """Solver knobs; the defaults suit day-long scenarios at T = 24..96."""

    epsilon: float = 1e-6
    max_sweeps: int = 100
    soc_grid: int = 64
    action_grid: int = 9
    seed: int = 0
    terminal_soc_min: float | None = None

    def __post_init__(self):
        # Integral int fields, Real float fields, no bools; stored as plain int, float
        epsilon = finite_number(self.epsilon)
        if epsilon is None or epsilon <= 0:
            raise GridShareError("epsilon must be finite and > 0")
        object.__setattr__(self, "epsilon", epsilon)
        ints = (("max_sweeps", 1), ("soc_grid", 2), ("action_grid", 3), ("seed", 0))
        for name, low in ints:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise GridShareError(
                    "%s must be an int, got %s" % (name, _brief(value))
                )
            if value < low:
                raise GridShareError("%s must be >= %d" % (name, low))
            object.__setattr__(self, name, int(value))
        # the largest block a grid-mode _respond builds is a taker's, (states,
        # n_act + 1 + extras, n_act + extras): round 0 has soc_grid states and
        # 1 extra, a later round at most min(soc_grid, _LOCAL_POINTS) +
        # _ANCHORS + 1 (the center) states and _OFFSETS extras, and a floor
        # adds a state; exhaustive blocks stay under _EXACT_CAP
        n, k = self.soc_grid, self.action_grid
        local_states = min(n, _LOCAL_POINTS) + _ANCHORS + 2
        cells = max(
            (n + 1) * (k + 2) * (k + 1),
            local_states * (k + 1 + _OFFSETS) * (k + _OFFSETS),
        )
        if cells > _MAX_BLOCK:
            raise GridShareError(
                "soc_grid %s with action_grid %s needs stage blocks of more than "
                "%d cells" % (_brief(n), _brief(k), _MAX_BLOCK)
            )
        floor = finite_number(self.terminal_soc_min)
        if floor is None and self.terminal_soc_min is not None:
            raise GridShareError("terminal_soc_min must be None or finite")
        object.__setattr__(self, "terminal_soc_min", floor)


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
# one household's view of the day


class _Env:
    """Everything household m's best response needs, with others frozen."""

    def __init__(self, scenario: Scenario, A, E, m: int, terminal_min):
        d = scenario.net_demands()
        taker = d > 0.0
        loads = _loads(taker, d, A, E)
        offers = np.where(taker, 0.0, E)
        draws = np.where(taker, -E, 0.0)
        offers_others = offers.sum(axis=0) - offers[m]
        draws_others = draws.sum(axis=0) - draws[m]
        self.d = d[m]
        self.taker = taker[m]
        self.l_others = loads.sum(axis=0) - loads[m]
        # the pool left for m at taker intervals, and the offer m must keep up
        # at giver intervals, where draws_others == all draws
        eta_bar = scenario.eta_bar
        self.pool_avail = np.maximum(0.0, eta_bar * offers_others - draws_others)
        self.min_offer = np.maximum(0.0, draws_others / eta_bar - offers_others)
        self.g = np.asarray(scenario.tariff.generation, dtype=float)
        self.p0 = scenario.tariff.p0
        self.dt = dt = scenario.dt
        self.s0 = float(scenario.households[m].initial_soc)
        self.bat = bat = scenario.households[m].battery
        self.terminal_min = terminal_min
        # battery constants hoisted out of the inner loops
        eta_inv = scenario.eta_inv
        self.s_min = bat.s_min
        self.s_max = bat.s_max
        self.s_tr = bat.transition_soc
        self.cvf = 1.0 - math.exp(-dt / bat.gamma_2)
        self.sdf = (1.0 + bat.rho_bar) ** dt
        self.phim = bat.rho_minus * dt * eta_inv * bat.eta_minus
        self.c_charge = eta_inv * bat.eta_plus
        self.c_discharge = eta_inv * bat.eta_minus

    @property
    def horizon(self) -> int:
        return len(self.d)

    @cached_property
    def floor_path(self) -> list:
        """Lowest SOC per interval from which the candidates reach the floor.

        All None without a floor.  Else entry t >= 1 is a SOC whose highest
        candidate successor is at least entry t + 1, the last entry is
        ``terminal_min``, entry 0 is None, and a stage no SOC gets through
        leaves it and the earlier entries None.  Four rounds of a 33-point
        scan put each entry within span / 32**4 above the true boundary.
        :func:`_dp` adds the entries to its grids, so interpolation beside the
        inf cells, inf up to the next finite cell, cannot round the set up.
        """
        none = np.zeros(0)
        path = [None] * (self.horizon + 1)
        if self.terminal_min is None:
            return path
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


def _first(t):
    """``t`` if it is one interval, else the first of an array of intervals."""
    return t.flat[0] if isinstance(t, np.ndarray) else t


def _transition(env, t, s, a, e):
    """Next SOC from ``s`` under (a, e); mirrors the scalar battery updates.

    Works on scalars and on arrays that broadcast against each other; a
    giver's ``a`` must have the broadcast shape, since its step is built in
    place on ``c_charge * a``.  ``t`` is one interval, or an array of
    intervals of one role that broadcasts against ``s``.
    """
    if env.taker[_first(t)]:
        nxt = np.where(
            a > 0.0,
            s + env.c_charge * a,
            np.where(a < 0.0, s + a / env.c_discharge, s * env.sdf),
        )
    else:
        local = np.maximum(0.0, -env.d[t] - e)
        nxt = np.asarray(env.c_charge * a)  # 0-d for scalars, so out= works
        np.add(s, nxt, out=nxt)
        nxt += env.bat.eta_plus * local
        np.copyto(nxt, s * env.sdf, where=a + local == 0.0)
    # np.clip(nxt, s_min, s_max) bit for bit: with scalar bounds np.clip keeps
    # nxt on a tie of signed zeros, and so does this operand order
    np.maximum(env.s_min, nxt, out=nxt)
    return np.minimum(env.s_max, nxt, out=nxt)


@lru_cache(maxsize=None)
def _fractions(n_act):
    """``n_act`` uniform fractions 0..1 of a range, and 1 minus each.

    Built once per ``n_act`` and shared by every stage, so read-only.
    """
    fr = np.linspace(0.0, 1.0, n_act)
    back = 1.0 - fr
    fr.flags.writeable = back.flags.writeable = False
    return fr, back


def _clip(x, lo, hi, out=None):
    """``x`` clipped into [lo, hi] as ``np.minimum(np.maximum(x, lo), hi)``.

    On a tie of signed zeros this takes the bound's sign (np.clip's depends
    on the array layout); the extra then repeats, at the same cost, a sample
    that the rollout's tie rule keeps, so no schedule sees the sign.
    """
    return np.minimum(np.maximum(x, lo), hi, out=out)


def _p_axis(lo, hi, fr, extra, zero):
    """(n, P, 1) P axis: ``lo + fr * (hi - lo)``, a 0 if ``zero``, then ``extra``.

    The last sample is ``hi`` itself, not ``lo + 1 * (hi - lo)``, so the
    samples span [lo, hi] exactly; each extra is clipped into it.
    ``extra`` is (k,), shared by every state, or (n, k), one row per state;
    so is :func:`_q_axis`'s.  Which extras are left out: see :func:`_stage`.
    """
    if extra.ndim == 1 and len(lo) > 1:
        extra = extra[(extra > np.asarray(lo).min()) & (extra < np.asarray(hi).max())]
    zeros = [np.zeros((len(lo), 1, 1))] if zero else []
    samples = lo + fr[:, None] * (hi - lo)
    samples[:, -1:] = hi
    return np.concatenate([samples, *zeros, _clip(extra[..., None], lo, hi)], axis=1)


def _q_axis(scale, samples, extra, lo, hi):
    """(n, P, Q) Q axis: ``scale * samples``, then ``extra`` clipped to [lo, hi].

    ``samples`` run from one end of [lo, hi] to the other: a draw's
    ``e_lo * (1 - fr)`` from ``e_lo`` to a signed zero, a charge's
    ``a_cap * fr`` from a zero to ``a_cap``.  Which extras are left out: see
    :func:`_stage`.
    """
    if extra.ndim == 1 and len(scale) > 1:
        extra = extra[(extra > np.asarray(lo).min()) & (extra < np.asarray(hi).max())]
    out = np.empty(scale.shape[:2] + (len(samples) + extra.shape[-1],))
    np.multiply(scale, samples, out=out[:, :, : len(samples)])
    _clip(extra[..., None, :], lo, hi, out=out[:, :, len(samples) :])
    return out


def _stage(env, t, s, n_act, extra_a, extra_e):
    """Interval ``t``'s candidates, priced, for every state in ``s``.

    Returns (a, e, cost, nxt): the region samples plus the clipped extras,
    each pair's stage cost and its next SOC, as arrays that broadcast to
    one (n, P, Q) block.  A taker's actions, 0 among them, run along P
    (:func:`_p_axis`) and its draws along Q (:func:`_q_axis`); a draw moves
    the load but never the SOC, so ``nxt`` is (n, P, 1).  When the pool
    left at ``t`` is empty, every draw of an action equals its floor
    ``e_lo``, a signed zero, so the draw axis is that one column and the
    block is (n, P, 1).  A giver's offers run along P and its charges along Q.

    ``t`` may also be an array of one interval per state, all of one
    layout: one role and, for takers, a pool empty at all of them or at
    none.  The extras are then one row per state, (n, k), and each row is
    priced bit for bit as a call for its own interval prices it, with every
    extra laid out.

    The extras rule.  Every axis samples each row's range [lo, hi] exactly
    from end to end, so its first and last samples hold ``lo`` and ``hi``.
    A call for one interval and more than one state lays out only the shared
    extras with ``lo.min() < x < hi.max()``: any other extra clips, in every
    row, onto an end that an end sample already holds.  A left-out column
    equals that earlier twin in value, row by row, and so does everything
    priced from it: draw floor, charge cap, load, cost and next SOC.  The
    block minimum is the same, and the rollout's stable tie rule picks the
    earlier twin, so every schedule keeps its bits.  One state, or one extra
    row per state, lays out every extra: there the filter cost more time
    than it saved.
    """
    if isinstance(t, np.ndarray):
        t = t[:, None, None]  # each interval's numbers become (n, 1, 1) columns
    first = _first(t)
    d = env.d[t]
    s = s[:, None, None]
    phi_p = _phi_plus_vec(env, s)
    fr, back = _fractions(n_act)
    if env.taker[first]:
        a = _p_axis(*_taker_action_range(env, s, d, phi_p), fr, extra_a, True)
        e_lo = _taker_draw_floor(d, a, env.pool_avail[t])
        if env.pool_avail[first] > 0.0:
            e = _q_axis(e_lo, back, extra_e, e_lo, 0.0)
        else:
            e = e_lo
        loads = d + a + e
    else:
        e_range = _giver_offer_range(env, s, d, phi_p, env.min_offer[t])
        e = _p_axis(*e_range, fr, extra_e, False)
        a_cap = _giver_charge_cap(env, s, d, phi_p, e)
        a = loads = _q_axis(a_cap, fr, extra_a, 0.0, a_cap)
    # loads * price in place, for speed; finite within the scenario's bounds.  The
    # gap is loads + (l_others - g), not billing.unit_price's (loads + l_others) - g,
    # so a bill may differ in the last bit: _respond judges by billing.daily_bill
    cost = loads + (env.l_others[t] - env.g[t])
    cost *= cost
    cost += env.p0
    cost *= loads
    return a, e, cost, _transition(env, t, s, a, e)


def _loads(taker, d, a, e):
    """Grid loads under decisions (a, e): d + a + e for a taker, a for a giver."""
    return np.where(taker, d + a + e, a)


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
        v[grid < env.terminal_min - FEAS_TOL] = np.inf
    return v


def _runs(env, grids, n_act, k_a, k_e):
    """The backward pass's intervals, T - 1 down to 1, grouped per stage call.

    A group is one interval, or a run of consecutive empty-pool taker
    intervals, whose blocks are one draw column, as long as the run's block
    holds no more cells than the pass's largest one-interval block with
    every extra laid out.  A one-interval block may leave extras out, but a
    run lays out all of them, so that bound keeps a run within the peak
    memory of a pass that lays out every extra.  ``k_a`` and ``k_e`` count
    each interval's extras.
    """
    one_col = env.taker & ~(env.pool_avail > 0.0)
    # P * Q cells per state, as _stage lays out each interval's block
    per_state = np.where(
        env.taker,
        (n_act + 1 + k_a) * np.where(one_col, 1, n_act + k_e),
        (n_act + k_e) * (n_act + k_a),
    )
    cells = [0] + [len(g) * int(c) for g, c in zip(grids[1:-1], per_state[1:])]
    cap = max(cells)
    runs = []
    for t in range(env.horizon - 1, 0, -1):
        if runs and one_col[t] and one_col[t + 1] and held + cells[t] <= cap:
            runs[-1].append(t)
            held += cells[t]
        else:
            runs.append([t])
            held = cells[t]
    return runs


def _dp(env, grids, n_act, extras_a, extras_e, path=None):
    """Backward pass over the SOC grids, then a rollout from the exact s0.

    Returns the rolled-out (a, e) and its SOC path, bit for bit the one
    :func:`_soc_trajectory` replays.

    Interval t's candidates are the region samples plus ``extras_a[t]`` and
    ``extras_e[t]``, each distinct one once (see :func:`_stage`); a
    successor SOC takes the value interpolated linearly between its two
    neighbouring cells (a cell's own value on a cell).
    A validated scenario's costs are finite (see ``battery.MAX_MAGNITUDE``),
    so only a cell below ``terminal_soc_min`` is inf.  Next to one that value
    is inf, never NaN; under a floor each grid also holds its interval's
    :attr:`_Env.floor_path` entry, so the last feasible SOC is a node.

    Each stage is one (state, P, Q) block from :func:`_stage`.  A taker's
    ``nxt`` is per (state, action), so its SOC step and value lookup run
    once per action and the value is added to every draw of that action.
    The block minimum equals the minimum over each action's cheapest draw,
    bit for bit, since rounding is monotone: min_e fl(c_e + v) ==
    fl(min_e c_e + v), also when v is inf.  A run of empty-pool taker
    intervals (see :func:`_runs`) is priced in one call, with one interval
    per state, then looked up and reduced interval by interval.

    ``path`` is the incumbent's SOC path, or None.  Where ``path[t]`` is a
    node of grid t, as every center of :func:`_local_grids` is, the
    backward pass keeps a copy of that node's row of the block: a, e, cost
    plus value, and nxt.  A rollout step from that node, bit for bit, reads
    the kept row instead of pricing its one state again.
    """
    horizon = env.horizon
    grids = [
        g if f is None else np.union1d(g, [f]) for g, f in zip(grids, env.floor_path)
    ]
    values = [None] * (horizon + 1)
    values[horizon] = _terminal_values(env, grids[horizon])
    kept = [None] * horizon  # (node, a, e, total, nxt) of the row at path[t]
    for run in _runs(env, grids, n_act, extras_a.shape[1], extras_e.shape[1]):
        sizes = [len(grids[t]) for t in run]
        if len(run) == 1:
            rows, states = run[0], grids[run[0]]
        else:
            rows = np.repeat(run, sizes)
            states = np.concatenate([grids[t] for t in run])
        extras = extras_a[rows], extras_e[rows]
        a, e, cost, nxt = _stage(env, rows, states, n_act, *extras)
        end = 0
        for t, n in zip(run, sizes):
            start, end = end, end + n
            total = cost[start:end]
            total += np.interp(nxt[start:end], grids[t + 1], values[t + 1])
            values[t] = total.reshape(n, -1).min(axis=1)
            if path is not None:
                i = np.searchsorted(grids[t], path[t])
                if i < n and grids[t][i] == path[t]:
                    row = (x[start + i].copy() for x in (a, e, cost, nxt))
                    kept[t] = (float(grids[t][i]), *row)

    a_out = np.zeros(horizon)
    e_out = np.zeros(horizon)
    soc_out = np.zeros(horizon + 1)
    s = soc_out[0] = env.s0
    for t in range(horizon):
        row = kept[t]
        if row and row[0] == s and math.copysign(1, s) == math.copysign(1, row[0]):
            a, e, total, nxt = row[1:]
        else:
            block = _stage(env, t, np.array([s]), n_act, extras_a[t], extras_e[t])
            a, e, total, nxt = (x[0] for x in block)
            total += np.interp(nxt, grids[t + 1], values[t + 1])
        least = total.min()
        if least == np.inf:  # every candidate strands the floor
            raise InfeasibleConfigError(
                "terminal_soc_min %g unreachable from SOC %g at t=%d"
                % (env.terminal_min, s, t)
            )
        # deterministic tie-breaking over the pairs at the least cost: |a|, |e|,
        # SOC, sorted only when more than one pair attains it; pair (p, q) of a
        # block reads column q % 1 = 0 of a (P, 1) array
        p, q = np.divmod(np.flatnonzero(total == least), total.shape[1])
        a, e, nxt = (x[p, q % x.shape[1]] for x in (a, e, nxt))
        best = np.lexsort((nxt, np.abs(e), np.abs(a)))[0] if len(p) > 1 else 0
        a_out[t] = a[best]
        e_out[t] = e[best]
        s = soc_out[t + 1] = float(nxt[best])
    return a_out, e_out, soc_out


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
    """A refinement round's SOC grids around ``soc_traj``; entry 0 is None.

    Grid t holds ``n`` points within ``sigma`` of ``soc_traj[t]``, clipped,
    plus uniform anchors and the center.  One ``np.linspace`` call lays out
    every interval's points, each row as the scalar call would, and one
    row-wise sort dedupes every grid, as ``np.unique`` on each row would.
    """
    # locality buys more precision than raw grid size, so cap the count
    n = min(n, _LOCAL_POINTS)
    anchors = _uniform_grid(env, min(n, _ANCHORS))
    centers = soc_traj[1:]
    local = np.linspace(centers - sigma, centers + sigma, n, axis=1)
    np.clip(local, env.s_min, env.s_max, out=local)
    shared = np.broadcast_to(anchors, (len(centers), len(anchors)))
    points = np.concatenate([local, shared, centers[:, None]], axis=1)
    # np.unique row by row: the same sort on each row, then the first of
    # each run of equal points
    points.sort(axis=1)
    fresh = np.ones(points.shape, dtype=bool)
    np.not_equal(points[:, 1:], points[:, :-1], out=fresh[:, 1:])
    return [None] + [row[keep] for row, keep in zip(points, fresh)]


# ---------------------------------------------------------------------------
# best response, Gauss-Seidel passes and the outer loop


def _respond(scenario, A, E, m, config):
    """Household ``m``'s best response on ``config``'s grids: (a, e, gain >= 0).

    DP rounds, each with the best schedule so far as extra candidates: when
    the candidate tree fits ``_EXACT_CAP``, one round on the reachable SOC
    sets, which is exhaustive; else a uniform round 0, then rounds on grids
    that shrink around the best schedule.  Only a lower bill replaces the
    incumbent.  An incumbent that ends below ``terminal_soc_min`` is priced
    at inf, so any response that meets the floor replaces it and the gain
    is inf; that is how a start that misses the floor is repaired.
    """
    env = _Env(scenario, A, E, m, config.terminal_soc_min)

    def bill(a, e):
        loads = _loads(env.taker, env.d, a, e)
        return billing.daily_bill(loads, env.l_others, scenario.tariff)

    n_act = config.action_grid
    best_a, best_e = A[m], E[m]
    best_soc = _soc_trajectory(env, best_a, best_e)
    floor_cost = _terminal_values(env, best_soc[-1:])[0]
    old_bill = best_bill = bill(best_a, best_e) + float(floor_cost)
    exact = _exhaustive(env.taker, n_act, _EXACT_CAP)
    span = env.s_max - env.s_min
    stale = 0
    for k in range(1 if exact else _REFINE_ROUNDS + 1):
        if exact:
            grids, offsets = _reachable_grids(env, n_act), np.zeros(0)
        elif k == 0:
            grids = [_uniform_grid(env, config.soc_grid)] * (env.horizon + 1)
            offsets = np.zeros(1)
        else:
            sigma = span * 0.5**k
            grids = _local_grids(env, best_soc, config.soc_grid, sigma)
            offsets = sigma * np.linspace(-1.0, 1.0, _OFFSETS)
        extras = best_a[:, None] + offsets, best_e[:, None] + offsets
        a, e, soc = _dp(env, grids, n_act, *extras, best_soc)
        new_bill = bill(a, e)
        if new_bill < best_bill:
            gain = best_bill - new_bill
            best_a, best_e, best_soc, best_bill = a, e, soc, new_bill
            stale = 0 if gain > config.epsilon * 1e-3 else stale + 1
        else:
            stale += 1
        if k >= 6 and stale >= 3:
            break
    assert best_bill <= old_bill, "best response worsened a bill"
    return best_a, best_e, old_bill - best_bill


def _pass(scenario, A, E, config):
    """One Gauss-Seidel pass in id order; returns every household's gain.

    A response is adopted when it lowers the bill by more than
    ``config.epsilon``.
    """
    gains = []
    for m in range(A.shape[0]):
        a, e, gain = _respond(scenario, A, E, m, config)
        if gain > config.epsilon:
            A[m] = a
            E[m] = e
        gains.append(gain)
    return gains


def _matrices(schedules):
    return np.array([s.a for s in schedules]), np.array([s.e for s in schedules])


def _check_config(scenario: Scenario, config: GameConfig) -> GameConfig:
    """The config whose grids check a state of the game played on ``config``.

    The game's own grids when every household's candidate tree fits
    ``_EXACT_CAP``, since that search is exact for the candidate lattice,
    not for the continuous game; else twice the game's ``soc_grid`` and
    ``action_grid``.  That is 2x finer in actions, but in SOC only in
    refinement round 0 once ``soc_grid`` exceeds 20, since :func:`_local_grids`
    caps every later round at ``_LOCAL_POINTS`` points plus ``_ANCHORS`` anchors.
    Those grids meet GameConfig's stage-block bound or raise GridShareError.
    """
    n_act = config.action_grid
    takers = scenario.net_demands() > 0.0
    if all(_exhaustive(t, n_act, _EXACT_CAP) for t in takers):
        return config
    try:
        return replace(config, soc_grid=config.soc_grid * 2, action_grid=n_act * 2)
    except GridShareError as exc:
        raise GridShareError("check grids: %s" % exc) from None


def best_response(
    scenario: Scenario,
    schedules: list,
    m: int,
    config: GameConfig,
) -> Schedule:
    """Bill-minimizing schedule for household ``m`` with others held fixed."""
    A, E = _matrices(schedules)
    a, e, _ = _respond(scenario, A, E, m, config)
    return Schedule(a, e)


def deviation_gain(
    scenario: Scenario,
    schedules: list,
    m: int,
    config: GameConfig,
) -> float:
    """Best unilateral improvement for ``m``, found on the check grids.

    Those are the grids :func:`solve` certifies on (see
    :func:`_check_config`).  Non-negative by construction: the current
    schedule seeds the search.  It is inf when that schedule ends below
    ``terminal_soc_min``, since any response that meets the floor beats it.
    """
    A, E = _matrices(schedules)
    return _respond(scenario, A, E, m, _check_config(scenario, config))[2]


_FROZEN = None  # (scenario, A, E, check config) in a measuring worker


def _freeze(*state):
    global _FROZEN
    _FROZEN = state


def _frozen_gain(m):
    scenario, A, E, config = _FROZEN
    return _respond(scenario, A, E, m, config)[2]


def deviation_gains(scenario: Scenario, schedules: list, config: GameConfig) -> list:
    """Every household's :func:`deviation_gain` against one state, in id order.

    The searches are independent, so they run on min(M, usable CPUs)
    processes forked from this one.  The workers inherit the state, so only
    household ids and gains cross the pipes, and the executor forks them all
    before it starts its own thread.  With one CPU, or where fork is not
    available, the searches run here.  Either way the gains are the ones
    :func:`deviation_gain` returns, bit for bit.  A worker that dies ends
    the call in ``BrokenProcessPool``, not in a wait.
    """
    A, E = _matrices(schedules)
    check = _check_config(scenario, config)
    ids = range(len(schedules))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(ids), cpus)
    if workers > 1:
        # imported here: importing the CLI must not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            frozen = (scenario, A, E, check)
            with ProcessPoolExecutor(workers, context, _freeze, frozen) as pool:
                return list(pool.map(_frozen_gain, ids))
    return [_respond(scenario, A, E, m, check)[2] for m in ids]


def sweep(scenario: Scenario, schedules: list, config: GameConfig):
    """One Gauss-Seidel pass over all households in fixed id order.

    A response is adopted only when it lowers the bill by more than
    epsilon.  Returns (new_schedules, improved); improved is True iff some
    response was adopted.
    """
    A, E = _matrices(schedules)
    gains = _pass(scenario, A, E, config)
    return [Schedule(a, e) for a, e in zip(A, E)], max(gains) > config.epsilon


def initial_state(scenario: Scenario, config: GameConfig):
    """Seeded feasible starting schedules.

    Samples each decision uniformly inside its feasibility region, walking
    households in id order, each taker drawing on its view's pool.  A
    household whose sampled day ends below ``terminal_soc_min`` starts from
    its best response instead, which meets a reachable floor, so no later
    response compares against a start that misses it.
    """
    rng = np.random.default_rng(config.seed)
    n, horizon = scenario.n_households, scenario.horizon
    A = np.zeros((n, horizon))
    E = np.zeros((n, horizon))
    for m in range(n):
        env = _Env(scenario, A, E, m, config.terminal_soc_min)
        s = env.s0
        for t in range(horizon):
            d = float(env.d[t])
            phi_p = float(_phi_plus_vec(env, s))
            if env.taker[t]:
                a = rng.uniform(*_taker_action_range(env, s, d, phi_p))
                e = rng.uniform(_taker_draw_floor(d, a, env.pool_avail[t]), 0.0)
            else:
                e = rng.uniform(*_giver_offer_range(env, s, d, phi_p, 0.0))
                a = rng.uniform(0.0, _giver_charge_cap(env, s, d, phi_p, e))
            A[m, t] = a
            E[m, t] = e
            s = float(_transition(env, t, s, a, e))
        if np.isinf(_terminal_values(env, np.array([s]))[0]):  # misses the floor
            A[m], E[m], _ = _respond(scenario, A, E, m, config)
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
    A, E = initial_state(scenario, config)
    seen = {_state_hash(A, E)}
    log = []
    check = _check_config(scenario, config)
    rung = config  # then ``check``, which is ``config`` in exact mode
    certified = cycle = False
    sweeps_used = 0
    for _ in range(config.max_sweeps):
        gains = _pass(scenario, A, E, rung)
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
    schedules = [Schedule(a, e) for a, e in zip(A, E)]
    if not certified:
        # any other state is measured once, without adopting
        gains = deviation_gains(scenario, schedules, config)
        log.append(
            {"sweep": len(log) + 1, "max_bill_drop": max(gains), "certification": True}
        )
    trace = audit_community(
        scenario.households,
        schedules,
        scenario.eta_inv,
        scenario.eta_bar,
        scenario.dt,
        config.terminal_soc_min,
    )
    return EquilibriumResult(
        schedules=schedules,
        bills=billing.community_bills(trace.loads, trace.aggregated, scenario.tariff),
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
