"""Per-interval decision spaces for prosumer households.

A household's net demand (appliance demand minus inverter-corrected local
renewable output) fixes its role for the interval: net consumers are
*takers*, net producers are *givers*.  Takers decide how to use the
battery and how much to draw from the community pool; givers decide how
much excess to offer to the pool, with the unshared remainder charged into
their battery locally.  This module provides the feasible regions for
both roles and an independent re-checker that replays a full community
state (roles, loads, SOC paths and the terminal floor, the pool after line
losses) and validates every invariant; it shares no code with ``engine``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .battery import (
    FEAS_TOL,
    BatteryParams,
    phi_minus,
    phi_plus,
    soc_next_giver,
    soc_next_taker,
)
from .billing import aggregate
from .errors import InfeasibleDecisionError, LengthMismatchError


def net_demand(d_bar, w, eta_inv: float):
    """Net demand: appliance demand minus inverter-corrected RE output.

    Works elementwise on arrays as well as on scalars.
    """
    return d_bar - eta_inv * w


@dataclass
class HouseholdProfile:
    """One prosumer: forecasts, battery, and starting state-of-charge."""

    id: str
    demand: np.ndarray
    re_output: np.ndarray
    battery: BatteryParams
    initial_soc: float

    def __post_init__(self):
        # None stands for a field the scenario parser could not read and
        # listed; Scenario.validate skips it
        if self.demand is not None:
            self.demand = np.asarray(self.demand, dtype=float)
        if self.re_output is not None:
            self.re_output = np.asarray(self.re_output, dtype=float)


@dataclass
class Schedule:
    """A full day of decisions for one household."""

    a: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.e = np.asarray(self.e, dtype=float)
        if self.a.shape != self.e.shape:
            raise LengthMismatchError(
                "a and e series differ: %s vs %s" % (self.a.shape, self.e.shape)
            )

    def __len__(self):
        return len(self.a)


@dataclass(frozen=True)
class TakerBounds:
    """Feasible region for a net-consuming interval.

    ``a`` lives in [a_min, a_max]; given ``a``, the pool draw ``e`` lives
    in [e_min(a), 0].  The zero decision is always inside the region.
    """

    a_min: float
    a_max: float
    d: float
    pool: float

    def e_min(self, a: float) -> float:
        return min(0.0, max(-self.d - a, -self.pool))

    def contains(self, a: float, e: float) -> bool:
        if not (self.a_min - FEAS_TOL <= a <= self.a_max + FEAS_TOL):
            return False
        return self.e_min(a) - FEAS_TOL <= e <= FEAS_TOL


@dataclass(frozen=True)
class GiverBounds:
    """Feasible region for a net-producing interval.

    The offer ``e`` lives in [e_min, e_max] with e_max = -d; the unshared
    remainder -d - e is charged locally, and the grid charge ``a`` lives in
    [0, a_max(e)].  Sharing everything with a = 0 is always feasible.
    """

    e_min: float
    e_max: float
    d: float
    phi: float           # charging headroom phi_plus(s) at the current SOC
    soc_headroom: float  # s_max - s
    eta_inv: float
    eta_plus: float

    def local_charge(self, e: float) -> float:
        return max(0.0, -self.d - e)

    def a_max(self, e: float) -> float:
        local = self.local_charge(e)
        cap_rate = self.phi - local
        cap_soc = (self.soc_headroom - self.eta_plus * local) / (
            self.eta_inv * self.eta_plus
        )
        return max(0.0, min(cap_rate, cap_soc))

    def contains(self, a: float, e: float) -> bool:
        if not (self.e_min - FEAS_TOL <= e <= self.e_max + FEAS_TOL):
            return False
        return -FEAS_TOL <= a <= self.a_max(e) + FEAS_TOL


def taker_bounds(
    s: float,
    d: float,
    pool_available: float,
    bat: BatteryParams,
    eta_inv: float,
    dt: float,
) -> TakerBounds:
    """Feasible (a, e) region for a taker at SOC ``s`` with net demand ``d``.

    The battery action is bounded below by the discharge rate limit, the
    minimum-SOC floor, and the load-nonnegativity requirement a >= -d, and
    above by the CC/CV rate limit and the exact no-overflow cap.
    """
    if d <= 0.0:
        raise InfeasibleDecisionError("taker_bounds requires d > 0, got %g" % d)
    pool_available = max(0.0, pool_available)
    a_min = max(
        phi_minus(bat, eta_inv, dt),
        -(s - bat.s_min) * eta_inv * bat.eta_minus,
        -d,
    )
    a_max = min(phi_plus(s, bat, dt), (bat.s_max - s) / (eta_inv * bat.eta_plus))
    a_min = min(a_min, 0.0)
    a_max = max(a_max, 0.0)
    return TakerBounds(a_min=a_min, a_max=a_max, d=d, pool=pool_available)


def giver_bounds(
    s: float,
    d: float,
    bat: BatteryParams,
    eta_inv: float,
    dt: float,
) -> GiverBounds:
    """Feasible (a, e) region for a giver at SOC ``s`` with net demand ``d``.

    The offer is bounded below by what the battery cannot absorb locally
    (charging rate and SOC headroom); the pool plays no part here.
    """
    if d > 0.0:
        raise InfeasibleDecisionError("giver_bounds requires d <= 0, got %g" % d)
    phi = phi_plus(s, bat, dt)
    headroom = bat.s_max - s
    e_max = -d
    e_min = max(0.0, -d - phi, -d - headroom / bat.eta_plus)
    e_min = min(e_min, e_max)
    return GiverBounds(
        e_min=e_min,
        e_max=e_max,
        d=d,
        phi=phi,
        soc_headroom=headroom,
        eta_inv=eta_inv,
        eta_plus=bat.eta_plus,
    )


# ---------------------------------------------------------------------------
# independent replay / re-checking


def replay_household(
    profile: HouseholdProfile,
    schedule: Schedule,
    eta_inv: float,
    dt: float,
):
    """Re-simulate one household's schedule from scratch.

    Returns ``(loads, soc, taker)``: the (T,) loads, the (T+1,)
    interval-boundary SOC path and the (T,) bool taker mask.  Positive net
    demand makes a taker; zero or negative makes a giver.
    Raises InfeasibleActionError / InfeasibleDecisionError if the schedule
    violates SOC bounds or leaves its role's feasible region (rate limits,
    SOC headroom, load >= 0) at the replayed SOC.  The pool is unbounded
    here: pool-level feasibility is checked by :func:`audit_community`.
    Raises LengthMismatchError if the schedule is not the household's length.
    """
    d = net_demand(profile.demand, profile.re_output, eta_inv)
    horizon = len(d)
    if len(schedule) != horizon:
        raise LengthMismatchError(
            "schedule of %s has %d intervals, the day %d"
            % (profile.id, len(schedule), horizon)
        )
    bat = profile.battery
    taker = d > 0.0
    loads = np.zeros(horizon)
    soc = np.zeros(horizon + 1)
    s = float(profile.initial_soc)
    soc[0] = s
    for t in range(horizon):
        a = float(schedule.a[t])
        e = float(schedule.e[t])
        d_t = float(d[t])
        role = "taker" if taker[t] else "giver"
        if taker[t]:
            region = taker_bounds(s, d_t, math.inf, bat, eta_inv, dt)
            l = d_t + a + e
        else:
            region = giver_bounds(s, d_t, bat, eta_inv, dt)
            l = a
        if not region.contains(a, e):
            raise InfeasibleDecisionError(
                "%s decision outside its feasible region (t=%d, a=%g, e=%g, "
                "d=%g, soc=%g)" % (role, t, a, e, d_t, s)
            )
        if l < -FEAS_TOL:
            raise InfeasibleDecisionError(
                "negative load %g from role=%s d=%g a=%g e=%g" % (l, role, d_t, a, e)
            )
        loads[t] = max(l, 0.0)
        if taker[t]:
            s = soc_next_taker(s, a, bat, eta_inv, dt)
        else:
            s = soc_next_giver(s, a, region.local_charge(e), bat, eta_inv, dt)
        soc[t + 1] = s
    return loads, soc, taker


@dataclass
class CommunityTrace:
    """Replay of the whole community, with pool accounting."""

    loads: np.ndarray          # (M, T)
    soc: np.ndarray            # (M, T+1)
    aggregated: np.ndarray     # (T,)
    pool_leftover: np.ndarray  # (T,) eta_bar * offers - draws, >= 0


def audit_community(
    profiles,
    schedules,
    eta_inv: float,
    eta_bar: float,
    dt: float,
    terminal_min: float | None = None,
) -> CommunityTrace:
    """Replay every household, verify the aggregate pool balance, and list
    every household whose final SOC ends below ``terminal_min``, if given.
    The floor is compared exactly, as the engine prices it, with no slack.

    This is ``solve``'s own audit and ``certify``'s reader, and it shares
    no state with the search.  Raises LengthMismatchError unless there is
    one schedule per household.
    """
    n = len(profiles)
    if len(schedules) != n:
        raise LengthMismatchError(
            "schedule count %d differs from household count %d" % (len(schedules), n)
        )
    replays = [replay_household(p, s, eta_inv, dt) for p, s in zip(profiles, schedules)]
    loads, soc, taker = (np.array(rows) for rows in zip(*replays))
    e = np.array([schedule.e for schedule in schedules])
    built = eta_bar * aggregate(np.where(taker, 0.0, e))
    drawn = aggregate(np.where(taker, -e, 0.0))
    overdrawn = np.flatnonzero(drawn > built + FEAS_TOL)
    if overdrawn.size:
        t = overdrawn[0]
        raise InfeasibleDecisionError(
            "pool overdrawn at t=%d: draws %g > %g available" % (t, drawn[t], built[t])
        )
    leftover = np.where(built > drawn, built - drawn, 0.0)  # never -0.0, as max(0.0, x)
    floor = -math.inf if terminal_min is None else terminal_min
    short = [
        "%s ends at %.6g kWh" % (p.id, final)
        for p, final in zip(profiles, soc[:, -1])
        if final < floor
    ]
    if short:
        raise InfeasibleDecisionError(
            "terminal_soc_min %g missed: %s" % (terminal_min, ", ".join(short))
        )
    return CommunityTrace(loads, soc, aggregate(loads), leftover)
