"""Day-ahead demand-side management for prosumer communities.

Computes Nash-equilibrium battery and energy-sharing schedules for a
community of prosumer households under a quadratic load-tracking tariff,
and reports schedules, bills, and load-tracking quality.
"""

from .battery import (
    BatteryParams,
    phi_minus,
    phi_plus,
    residential_battery,
    soc_next_giver,
    soc_next_taker,
)
from .billing import TariffParams, daily_bill, daily_bill_decomposed, unit_price
from .decisions import (
    HouseholdProfile,
    Schedule,
    audit_community,
    giver_bounds,
    net_demand,
    replay_household,
    taker_bounds,
)
from .engine import (
    EquilibriumResult,
    GameConfig,
    best_response,
    deviation_gain,
    initial_state,
    solve,
    sweep,
)
from .report import RunReport, emit, run, run_baseline, tracking_error
from .scenario import Scenario, load_scenario, save_scenario, synth_scenario

__version__ = "0.1.0"
