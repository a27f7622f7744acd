"""Scenario model, validation, YAML (de)serialization, and synthetic generation.

A scenario bundles the community (household profiles), the utility tariff
(base price and forecast generation curve), the system efficiencies, and
the day's discretization into T intervals of dt = 24 / T hours.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, fields

import numpy as np
import yaml

from .battery import BatteryParams, residential_battery
from .billing import TariffParams
from .decisions import HouseholdProfile, net_demand
from .errors import InvalidBatteryParamsError, ScenarioValidationError

SCHEMA_VERSION = 1


@dataclass
class Scenario:
    """A full day-ahead problem instance for one prosumer community."""

    households: list
    tariff: TariffParams
    eta_inv: float
    eta_bar: float
    horizon: int

    @property
    def dt(self) -> float:
        """Interval length in hours."""
        return 24.0 / self.horizon

    @property
    def n_households(self) -> int:
        return len(self.households)

    def validate(self) -> list:
        """Return all invariant violations as human-readable strings.

        A None field is one the parser could not read and already listed,
        so it is skipped along with every check that depends on it.
        """
        problems = []
        horizon = self.horizon if _is_count(self.horizon) else None
        if horizon is None:
            problems.append(
                "T: must be a positive integer, got %s" % _brief(self.horizon)
            )
        for name, eta in (("eta_inv", self.eta_inv), ("eta_bar", self.eta_bar)):
            if eta is not None and not 0.0 < eta <= 1.0:
                problems.append("%s: must be in (0, 1], got %g" % (name, eta))
        tariff = self.tariff
        if tariff is not None:
            if tariff.p0 is not None and not 0.0 < tariff.p0 < math.inf:
                problems.append("tariff.p0: must be finite and > 0, got %g" % tariff.p0)
            _check_series(tariff.generation, "tariff.generation", horizon, problems)
        if self.households == []:
            problems.append("households: at least one household is required")
        seen = set()
        for h in self.households or ():
            if h is None:
                continue
            path = "households[%s]" % h.id
            if h.id in seen:
                problems.append("%s: duplicate id" % path)
            seen.add(h.id)
            _check_series(h.demand, path + ".demand", horizon, problems)
            _check_series(h.re_output, path + ".re_output", horizon, problems)
            bat, soc = h.battery, h.initial_soc
            if None not in (bat, soc) and not bat.s_min <= soc <= bat.s_max:
                problems.append(
                    "%s.initial_soc: %g outside [%g, %g]"
                    % (path, soc, bat.s_min, bat.s_max)
                )
        return problems

    def check(self):
        """Raise ScenarioValidationError listing every violation."""
        problems = self.validate()
        if problems:
            raise ScenarioValidationError(problems)
        return self

    def net_demands(self) -> np.ndarray:
        """Net demand matrix, shape (M, T)."""
        return np.array(
            [
                net_demand(h.demand, h.re_output, self.eta_inv)
                for h in self.households
            ]
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "T": self.horizon,
            "eta_inv": self.eta_inv,
            "eta_bar": self.eta_bar,
            "tariff": {
                "p0": self.tariff.p0,
                "generation": [float(x) for x in self.tariff.generation],
            },
            "households": [
                {
                    "id": h.id,
                    "demand": [float(x) for x in h.demand],
                    "re_output": [float(x) for x in h.re_output],
                    "initial_soc": float(h.initial_soc),
                    "battery": asdict(h.battery),
                }
                for h in self.households
            ],
        }

    def digest(self) -> str:
        """Stable content hash of the scenario (canonical JSON, sha256)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _is_count(value) -> bool:
    """A positive int; YAML booleans are ints to Python but not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def number_series(value):
    """``value`` as a 1-D float array, or None if it is not a list of numbers.

    Booleans, strings, nested lists and mappings are rejected; non-finite
    entries pass here and are left to :meth:`Scenario.validate`.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        return None
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        return None
    return array.astype(float, copy=False)


def _check_series(series, path, horizon, problems):
    """List a series' violations; its length is checked if ``horizon`` is known."""
    if series is None:
        return
    if horizon is not None and len(series) != horizon:
        problems.append(
            "%s: expected %d entries, got %d" % (path, horizon, len(series))
        )
    if not np.all(np.isfinite(series)):
        problems.append("%s: entries must be finite" % path)
    elif np.any(series < 0):
        problems.append("%s: entries must be >= 0" % path)


def _number(value, path, problems):
    """``value`` as a finite float; else list a violation and return None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    problems.append("%s: must be a finite number, got %s" % (path, _brief(value)))
    return None


def _series(value, path, problems):
    """``value`` as a float array; else list a violation and return None.

    Its range is left to :meth:`Scenario.validate`, which skips a None.
    """
    array = number_series(value)
    if array is None:
        problems.append("%s: must be a list of numbers, got %s" % (path, _brief(value)))
    return array


def _mapping(value, path, problems):
    """``value`` if it is a mapping; else list a violation and return None."""
    if isinstance(value, dict):
        return value
    problems.append("%s: must be a mapping, got %s" % (path, _brief(value)))
    return None


def _tariff_from_dict(data, problems: list):
    if _mapping(data, "tariff", problems) is None:
        return None
    return TariffParams(
        p0=_number(data.get("p0"), "tariff.p0", problems),
        generation=_series(data.get("generation"), "tariff.generation", problems),
    )


def _battery_from_dict(data, path: str, problems: list):
    if _mapping(data, path, problems) is None:
        return None
    keys = [f.name for f in fields(BatteryParams)]
    missing = [k for k in keys if k not in data]
    if missing:
        problems.append("%s: missing fields %s" % (path, ", ".join(missing)))
        return None
    values = {k: _number(data[k], "%s.%s" % (path, k), problems) for k in keys}
    if None in values.values():
        return None
    try:
        return BatteryParams(**values)
    except InvalidBatteryParamsError as exc:
        problems.append("%s: %s" % (path, exc))
        return None


def _household_from_dict(hdata, i: int, problems: list):
    if _mapping(hdata, "households[%d]" % i, problems) is None:
        return None
    hid = hdata.get("id", i)
    if not isinstance(hid, (str, int, float)):
        problems.append(
            "households[%d].id: must be a string or a number, got %s" % (i, _brief(hid))
        )
        hid = i
    path = "households[%s]" % hid
    return HouseholdProfile(
        id=str(hid),
        demand=_series(hdata.get("demand"), path + ".demand", problems),
        re_output=_series(hdata.get("re_output"), path + ".re_output", problems),
        battery=_battery_from_dict(hdata.get("battery"), path + ".battery", problems),
        initial_soc=_number(hdata.get("initial_soc"), path + ".initial_soc", problems),
    )


def scenario_from_dict(data: dict) -> Scenario:
    """Build and fully validate a Scenario from a plain dict.

    Collects every violation before raising, so a bad file is reported in
    one pass.  A field that is missing, has the wrong type or sits inside a
    non-mapping is listed once and set to None, and :meth:`Scenario.validate`
    skips it and the checks that depend on it.  A household without an
    ``id`` takes its index; an id that is not a string or number is listed.
    """
    if not isinstance(data, dict):
        raise ScenarioValidationError(["document root must be a mapping"])
    problems = []
    version = data.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        problems.append(
            "schema_version: expected %d, got %s" % (SCHEMA_VERSION, _brief(version))
        )
    tariff = _tariff_from_dict(data.get("tariff"), problems)
    entries = data.get("households")
    households = None
    if isinstance(entries, list):
        households = [
            _household_from_dict(hdata, i, problems) for i, hdata in enumerate(entries)
        ]
    else:
        problems.append("households: must be a list, got %s" % _brief(entries))
    scenario = Scenario(
        households=households,
        tariff=tariff,
        eta_inv=_number(data.get("eta_inv"), "eta_inv", problems),
        eta_bar=_number(data.get("eta_bar"), "eta_bar", problems),
        horizon=data.get("T"),
    )
    problems.extend(scenario.validate())
    if problems:
        raise ScenarioValidationError(problems)
    return scenario


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Plain scalars that YAML 1.1 resolves to float and int, and on which
# float() and int() give the constructor's value: the float resolver runs
# first, and sign * float(digits) equals float(text) bit for bit.
_PLAIN_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?").fullmatch
_PLAIN_INT = re.compile(r"-?(?:0|[1-9][0-9]*)").fullmatch


class _NeedsFullLoad(Exception):
    """The document holds something only ``yaml.load`` builds faithfully."""


def _scalar(loader, event):
    """A scalar's value as PyYAML's resolver and safe constructor give it."""
    tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    construct = loader.yaml_constructors.get(tag)
    if construct is None:  # merge key, value key, ...
        raise _NeedsFullLoad
    return construct(loader, yaml.ScalarNode(tag, event.value, style=event.style))


def _compose(loader):
    """The stream's document built from its parser events.

    Raises _NeedsFullLoad on an anchor, an alias, an explicit tag, a
    collection as a mapping key or a second document; parser and
    constructor errors propagate.
    """
    get_event = loader.get_event
    get_event()  # StreamStartEvent
    if isinstance(get_event(), yaml.StreamEndEvent):
        return None
    # items of the innermost open collection; a mapping's alternate key, value
    items = []
    is_mapping = False
    outer = []  # (items, is_mapping) of the collections around it
    while True:
        event = get_event()
        kind = event.__class__
        if kind is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _NeedsFullLoad
            value = event.value
            if event.implicit[0] and _PLAIN_FLOAT(value):
                items.append(float(value))
            elif event.implicit[0] and _PLAIN_INT(value):
                items.append(int(value))
            else:
                items.append(_scalar(loader, event))
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if (
                event.anchor is not None
                or event.tag is not None
                or (is_mapping and len(items) % 2 == 0)
            ):
                raise _NeedsFullLoad
            outer.append((items, is_mapping))
            items, is_mapping = [], kind is yaml.MappingStartEvent
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            value = dict(zip(items[::2], items[1::2])) if is_mapping else items
            items, is_mapping = outer.pop()
            items.append(value)
        elif kind is yaml.DocumentEndEvent:
            break
        elif kind is yaml.AliasEvent:
            raise _NeedsFullLoad
    if not isinstance(get_event(), yaml.StreamEndEvent):
        raise _NeedsFullLoad
    return items[0]


def _read_yaml(fh):
    """``yaml.load(fh)`` under YAML 1.1 safe-load rules, built from parser events.

    A document the event builder cannot take, or one it fails on, goes
    whole to ``yaml.load``, so its value or its exception is that call's.
    A pipe cannot be read twice, so it goes to ``yaml.load`` at once.
    """
    if fh.seekable():
        loader = _LOADER(fh)
        try:
            return _compose(loader)
        except (_NeedsFullLoad, yaml.YAMLError, ValueError):
            fh.seek(0)
        finally:
            loader.dispose()
    return yaml.load(fh, Loader=_LOADER)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML document."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = _read_yaml(fh)
        # ValueError covers UnicodeDecodeError and the constructors' own: a
        # date that does not exist, an int longer than Python converts
        except (yaml.YAMLError, ValueError) as exc:
            raise ScenarioValidationError(["parse error: %s" % exc])
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path):
    """Write a scenario as a YAML document (deterministic layout)."""
    with open(path, "w") as fh:
        fh.write(
            "# gridshare scenario (energies in kWh, times in hours, "
            "costs in abstract units)\n"
        )
        yaml.safe_dump(scenario.to_dict(), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# synthetic scenarios


# largest n_households * horizon that synth_scenario generates; checked
# before anything is allocated
_SYNTH_MAX_CELLS = 10**7


def _gauss(hours, center, width):
    return np.exp(-0.5 * ((hours - center) / width) ** 2)


def synth_scenario(n_households: int, horizon: int, seed: int) -> Scenario:
    """Generate a reproducible community scenario.

    Demand power is a 0.25 kW base plus morning (8 h) and evening (19 h)
    peaks of about 1.4 kW.  Renewable output peaks near 1.2 kW: a
    solar-like midday hump for about half the households, a wind-like
    smoothed-noise series for the rest.  The utility generation curve has
    a midday hump scaled so its total equals the community's positive net
    demand, and the base price p0 is 0.01 cost units per kWh.
    """
    problems = []
    if n_households < 1 or horizon < 2:
        problems.append("synth requires at least 1 household and 2 intervals")
    if seed < 0:
        problems.append("synth seed must be >= 0, got %d" % seed)
    if n_households * horizon > _SYNTH_MAX_CELLS:
        problems.append(
            "synth size M*T must be <= %d, got %d*%d"
            % (_SYNTH_MAX_CELLS, n_households, horizon)
        )
    if problems:
        raise ScenarioValidationError(problems)
    rng = np.random.default_rng(seed)
    dt = 24.0 / horizon
    hours = (np.arange(horizon) + 0.5) * dt
    households = []
    for i in range(n_households):
        morning = rng.uniform(0.7, 1.3) * 1.4
        evening = rng.uniform(0.8, 1.4) * 1.4
        demand_power = (
            0.25
            + morning * _gauss(hours, 8.0, 1.8)
            + evening * _gauss(hours, 19.0, 2.4)
        )
        demand_power *= rng.uniform(0.95, 1.05, size=horizon)
        is_solar = rng.uniform() < 0.5
        amp = rng.uniform(0.8, 1.2) * 1.2
        if is_solar:
            sun = np.clip(np.sin(np.pi * (hours - 6.0) / 12.0), 0.0, None)
            re_power = amp * sun**2
        else:
            noise = rng.uniform(0.0, 1.0, size=horizon)
            # cheap smoothing so the wind series is noisy but not jagged
            kernel = np.array([0.25, 0.5, 0.25])
            padded = np.concatenate([noise[-1:], noise, noise[:1]])
            re_power = amp * (0.3 + 0.7 * np.convolve(padded, kernel, "valid"))
        battery = residential_battery()
        soc0 = battery.s_min + rng.uniform(0.25, 0.55) * (
            battery.s_max - battery.s_min
        )
        households.append(
            HouseholdProfile(
                id="h%d" % (i + 1),
                demand=np.maximum(demand_power * dt, 0.0),
                re_output=np.maximum(re_power * dt, 0.0),
                battery=battery,
                initial_soc=float(soc0),
            )
        )
    eta_inv = 0.95
    total_positive = 0.0
    for h in households:
        d = net_demand(h.demand, h.re_output, eta_inv)
        total_positive += float(np.sum(np.maximum(d, 0.0)))
    gen_shape = 0.15 + _gauss(hours, 13.0, 3.5)
    generation = gen_shape * (total_positive / float(np.sum(gen_shape)))
    scenario = Scenario(
        households=households,
        tariff=TariffParams(p0=0.01, generation=generation),
        eta_inv=eta_inv,
        eta_bar=0.9,
        horizon=horizon,
    )
    return scenario.check()
