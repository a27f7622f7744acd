"""A walk through the battery model: CC/CV charging, discharging, idling.

Run from the repository root with ``PYTHONPATH=src python3
demos/battery_model_tour.py``, or with ``python3 demos/battery_model_tour.py``
after ``pip install -e .``.  Prints the charging limit across the SOC range,
then follows one battery through a charge / discharge / idle day so the
three update branches are visible side by side.  No plotting dependencies;
pipe the table into your tool of choice.
"""

import numpy as np

from gridshare import phi_minus, phi_plus, soc_next_taker
from gridshare.battery import residential_battery

bat = residential_battery()
eta_inv = 0.95
dt = 1.0

print("battery: s in [%.1f, %.1f] kWh, CC/CV hand-over at %.2f kWh" % (
    bat.s_min, bat.s_max, bat.transition_soc))
print("discharge limit phi_minus = %.4f kWh per interval" % phi_minus(bat, eta_inv, dt))
print()

print("charging limit vs state of charge")
print("%8s %12s %s" % ("soc", "phi_plus", "stage"))
for s in np.linspace(bat.s_min, bat.s_max, 14):
    stage = "CC" if s < bat.transition_soc else "CV"
    print("%8.2f %12.4f  %s" % (s, phi_plus(s, bat, dt), stage))
print()

print("one day at the battery terminal (taker branches)")
s = 5.0
actions = [1.0, 1.0, 0.0, 0.0, -0.9, -0.9, 0.0, 1.5]
print("%4s %8s %8s %8s" % ("t", "action", "soc", "branch"))
for t, a in enumerate(actions):
    branch = "charge" if a > 0 else ("discharge" if a < 0 else "idle")
    s = soc_next_taker(s, a, bat, eta_inv, dt)
    print("%4d %8.2f %8.4f  %s" % (t, a, s, branch))

print()
print("note the asymmetry: charging stores eta_inv*eta_plus per unit bought,")
print("discharging spends 1/(eta_inv*eta_minus) per usable unit delivered.")
