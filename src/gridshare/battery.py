"""Lithium-ion battery physics: charge/discharge limits and SOC transitions.

Charging follows the two-stage CC/CV pattern of lithium-ion cells: below
the transition state-of-charge the battery accepts energy at the constant
current rate; above it the admissible increment saturates exponentially
toward the maximum capacity.  Discharging is rate limited and stops at the
minimum state-of-charge.  An idle battery self-discharges.

All energies are in kWh, rates in kWh per hour, times in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleActionError, InvalidBatteryParamsError

# A valid scenario's energies, rates and base price are at most MAX_MAGNITUDE
# and its efficiencies at least MIN_EFFICIENCY.  A load is then at most about
# 25 * 1e30 (net demand plus rho_plus * dt, dt <= 24 h), so a stage cost is at
# most about 1.7e94 * M**2, and a DP value or a bill adds at most T of those.
MAX_MAGNITUDE = 1e30
MIN_EFFICIENCY = 1e-6

#: slack of every replay check and of the engine's floor pricing, so the
#: two judge a final SOC alike
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class BatteryParams:
    """Physical description of one household battery."""

    s_min: float
    s_max: float
    rho_plus: float   # CC-stage charging rate, > 0
    rho_minus: float  # discharging rate, < 0
    rho_bar: float    # hourly self-discharge rate in [-1, 0): (1 + rho_bar)**dt is real
    eta_plus: float   # charging efficiency, in [MIN_EFFICIENCY, 1]
    eta_minus: float  # discharging efficiency, in [MIN_EFFICIENCY, 1]
    gamma_2: float    # CV-stage exponential time constant, > 0

    def __post_init__(self):
        problems = []
        if not (0.0 <= self.s_min < self.s_max <= MAX_MAGNITUDE):
            problems.append("require 0 <= s_min < s_max <= %g" % MAX_MAGNITUDE)
        if not 0.0 < self.rho_plus <= MAX_MAGNITUDE:
            problems.append("rho_plus must be > 0 and <= %g" % MAX_MAGNITUDE)
        if not -MAX_MAGNITUDE <= self.rho_minus < 0.0:
            problems.append("rho_minus must be < 0 and >= %g" % -MAX_MAGNITUDE)
        if not -1.0 <= self.rho_bar < 0.0:
            problems.append("rho_bar must be in [-1, 0)")
        for name in ("eta_plus", "eta_minus"):
            if not MIN_EFFICIENCY <= getattr(self, name) <= 1.0:
                problems.append("%s must be in [%g, 1]" % (name, MIN_EFFICIENCY))
        if not self.gamma_2 > 0.0:
            problems.append("gamma_2 must be > 0")
        if not problems:
            s_tr = self.s_max - self.rho_plus * self.gamma_2
            if not (self.s_min <= s_tr < self.s_max):
                problems.append(
                    "transition SOC s_max - rho_plus*gamma_2 = %g falls "
                    "outside [s_min, s_max)" % s_tr
                )
        if problems:
            raise InvalidBatteryParamsError("; ".join(problems))

    @property
    def transition_soc(self) -> float:
        """SOC at which CC charging hands over to the CV stage.

        Defined by matching the CC slope to the initial CV slope, so the
        charging curve is smooth at the hand-over point.
        """
        return self.s_max - self.rho_plus * self.gamma_2


def residential_battery() -> BatteryParams:
    """Default parameter set used by the synthetic scenario generator."""
    return BatteryParams(
        s_min=0.5,
        s_max=13.5,
        rho_plus=3.3,
        rho_minus=-3.3,
        rho_bar=-0.001,
        eta_plus=0.95,
        eta_minus=0.95,
        gamma_2=1.0,
    )


def _check_soc(s: float, bat: BatteryParams):
    if not (bat.s_min - FEAS_TOL <= s <= bat.s_max + FEAS_TOL):
        raise InfeasibleActionError(
            "SOC %g outside [%g, %g]" % (s, bat.s_min, bat.s_max)
        )


def _bounded(s: float, bat: BatteryParams) -> float:
    _check_soc(s, bat)
    return min(max(s, bat.s_min), bat.s_max)


def phi_plus(s: float, bat: BatteryParams, dt: float) -> float:
    """Maximum grid-side charging decision within one interval of length dt.

    CC stage (s below the transition SOC): rho_plus * dt.
    CV stage: exponential saturation toward s_max, i.e.
    (s_max - s) * (1 - exp(-dt / gamma_2)).  Zero at s = s_max.
    """
    _check_soc(s, bat)
    if s < bat.transition_soc:
        return bat.rho_plus * dt
    return max(0.0, (bat.s_max - s) * (1.0 - math.exp(-dt / bat.gamma_2)))


def phi_minus(bat: BatteryParams, eta_inv: float, dt: float) -> float:
    """Most-negative usable-energy decision within one interval.

    The minimum-SOC floor is enforced separately by the feasibility layer.
    """
    return bat.rho_minus * dt * eta_inv * bat.eta_minus


def self_discharge(s: float, bat: BatteryParams, dt: float) -> float:
    """SOC after an idle interval of length dt.

    Floored at s_min: the reserve floor is a discharge-policy limit, so an
    idle battery sitting at it cannot become infeasible by leaking.
    """
    return max(bat.s_min, s * (1.0 + bat.rho_bar) ** dt)


def soc_next_taker(
    s: float, a: float, bat: BatteryParams, eta_inv: float, dt: float
) -> float:
    """SOC after one interval for a net-consuming household.

    Charging (a > 0) passes through the inverter and the battery's
    charging efficiency; discharging (a < 0) divides by both discharge
    efficiencies; an idle battery self-discharges.
    """
    if a > 0.0:
        nxt = s + eta_inv * bat.eta_plus * a
    elif a < 0.0:
        nxt = s + a / (eta_inv * bat.eta_minus)
    else:
        nxt = self_discharge(s, bat, dt)
    return _bounded(nxt, bat)


def soc_next_giver(
    s: float,
    a: float,
    local_charge: float,
    bat: BatteryParams,
    eta_inv: float,
    dt: float,
) -> float:
    """SOC after one interval for a net-producing household.

    ``local_charge`` is the unshared excess production routed into the
    battery; it skips the inverter, so only eta_plus applies.  Grid
    charging ``a`` pays both efficiencies.  If nothing is charged at all
    the battery self-discharges.
    """
    if a < -FEAS_TOL:
        raise InfeasibleActionError("giver grid charge must be >= 0, got %g" % a)
    if local_charge < -FEAS_TOL:
        raise InfeasibleActionError(
            "local charge must be >= 0, got %g" % local_charge
        )
    a = max(a, 0.0)
    local_charge = max(local_charge, 0.0)
    if a + local_charge == 0.0:
        nxt = self_discharge(s, bat, dt)
    else:
        nxt = s + eta_inv * bat.eta_plus * a + bat.eta_plus * local_charge
    return _bounded(nxt, bat)
