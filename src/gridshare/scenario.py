"""Scenario model, validation, YAML (de)serialization, and synthetic generation.

A scenario bundles the community (household profiles), the utility tariff
(base price and forecast generation curve), the system efficiencies, and
the day's discretization into T intervals of dt = 24 / T hours.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass, fields

import numpy as np
import yaml

from .battery import MAX_MAGNITUDE, MIN_EFFICIENCY, BatteryParams, residential_battery
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
        horizon = _read(self.horizon, "T", problems, _count, "a positive integer")
        for name, eta in (("eta_inv", self.eta_inv), ("eta_bar", self.eta_bar)):
            if eta is not None and not MIN_EFFICIENCY <= eta <= 1.0:
                problems.append(
                    "%s: must be in [%g, 1], got %g" % (name, MIN_EFFICIENCY, eta)
                )
        tariff = self.tariff
        if tariff is not None:
            if tariff.p0 is not None and not 0.0 < tariff.p0 <= MAX_MAGNITUDE:
                problems.append(
                    "tariff.p0: must be in (0, %g], got %g" % (MAX_MAGNITUDE, tariff.p0)
                )
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
            if h.id in ("baseline", "equilibrium"):  # traces.csv's community loads
                problems.append("%s.id: reserved for the column %s_load" % (path, h.id))
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
                "generation": self.tariff.generation.tolist(),
            },
            "households": [
                {
                    "id": h.id,
                    "demand": h.demand.tolist(),
                    "re_output": h.re_output.tolist(),
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


def _count(value):
    """``value`` if it is a positive int, else None; a YAML boolean is no count."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
        return value
    return None


def _brief(value) -> str:
    """``repr(value)`` cut to 40 characters; never fails, even on a deep list."""
    try:
        text = repr(value)
    except ValueError:  # an int longer than Python converts to text
        return "an int of %d bits" % value.bit_length()
    except RecursionError:  # containers nested past the recursion limit
        return "a deeply nested %s" % type(value).__name__
    return text if len(text) <= 40 else text[:37] + "..."


def finite_number(value):
    """``value`` as a float if it is a finite real number, not a bool; else None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            return None
        if math.isfinite(number):
            return number
    return None


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
    if not np.isfinite(series).all():
        problems.append("%s: entries must be finite" % path)
    elif (series < 0).any():
        problems.append("%s: entries must be >= 0" % path)
    elif (series > MAX_MAGNITUDE).any():
        problems.append("%s: entries must be <= %g" % (path, MAX_MAGNITUDE))


def _read(value, path, problems, convert, kind):
    """``convert(value)``; if that is None, list ``value`` as not ``kind``."""
    result = convert(value)
    if result is None:
        problems.append("%s: must be %s, got %s" % (path, kind, _brief(value)))
    return result


def _number(value, path, problems):
    return _read(value, path, problems, finite_number, "a finite number")


def _series(value, path, problems):
    return _read(value, path, problems, number_series, "a list of numbers")


def _mapping(value, path, problems):
    return _read(value, path, problems, _instance(dict), "a mapping")


def _instance(cls):
    """A converter that keeps an instance of ``cls`` and turns the rest to None."""
    return lambda value: value if isinstance(value, cls) else None


def _as_id(value):
    """A string or number id as its text; None for any other value, a bool too."""
    readable = isinstance(value, (str, int, float)) and not isinstance(value, bool)
    return str(value) if readable else None


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
    hid = _read(hid, "households[%d].id" % i, problems, _as_id, "a string or a number")
    hid = str(i) if hid is None else hid
    path = "households[%s]" % hid
    return HouseholdProfile(
        id=hid,
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
    if type(version) is not int or version != SCHEMA_VERSION:
        problems.append(
            "schema_version: expected %d, got %s" % (SCHEMA_VERSION, _brief(version))
        )
    tariff = _tariff_from_dict(data.get("tariff"), problems)
    entries = data.get("households")
    entries = _read(entries, "households", problems, _instance(list), "a list")
    scenario = Scenario(
        households=None if entries is None else [
            _household_from_dict(hdata, i, problems) for i, hdata in enumerate(entries)
        ],
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
# first, and sign * float(digits) equals float(text) bit for bit.  An int
# keeps to 18 digits, far inside int()'s digit limit.
_FLOAT = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"
_PLAIN_FLOAT = re.compile(_FLOAT).fullmatch
_PLAIN_INT = re.compile(r"-?(?:0|[1-9][0-9]{0,17})").fullmatch
_WORD = re.compile(r"[A-Za-z_][\w.+-]*", re.ASCII).fullmatch

# The block layout save_scenario writes, read a line at a time: a run of
# float items at one indentation, or one comment at column 0, or one
# `key:`, `key: scalar`, `- scalar` or `- key: ...` line, whose groups are
# the indentation, the dash, the key, the key's scalar and the item's.
_FLOAT_RUN = r"( *)- %s\n(?:\1- %s\n)*" % (_FLOAT, _FLOAT)
_LINE = r"#[ -~]*\n|( *)(- )?(?:([\w.+-]+):(?: ([\w.+-]+))?|([\w.+-]+))\n"

# deepest nesting of collections read; the schema needs 4 levels, and
# yaml.load's C composer recurses once per level, down to a stack overflow
_MAX_DEPTH = 256


class _TooDeep(Exception):
    """Collections nest deeper than ``_MAX_DEPTH`` levels: a parse error."""


class _Declined(Exception):
    """The text is not in the block layout :func:`_read_block` reads."""


def _word(text):
    """``text`` if it is an ASCII word that YAML 1.1 resolves to str."""
    resolvers = _LOADER.yaml_implicit_resolvers
    if _WORD(text) and not any(
        regexp.match(text)
        for _, regexp in resolvers.get(text[0], []) + resolvers.get(None, [])
    ):
        return text
    raise _Declined


def _plain(text):
    """A plain scalar's value: a float, an int or a word that resolves to str."""
    if _PLAIN_FLOAT(text):
        return float(text)
    if _PLAIN_INT(text):
        return int(text)
    return _word(text)


def _read_block(text):
    """The document of ``text``, read a line at a time; raises _Declined.

    Every line must be one of :data:`_LINE`'s, without tabs, trailing
    spaces, quotes, flow collections, anchors, tags or continuation lines,
    and the document must nest as YAML's block collections do: a `key:`
    line's value is a collection indented deeper or a sequence at the
    key's own column, else None.  Nesting past ``_MAX_DEPTH`` declines too.
    """
    # compiled at the first read, not at import, which every child pays
    float_run = re.compile(_FLOAT_RUN).match
    next_line = re.compile(_LINE, re.ASCII).match
    holder = {}  # the document is its one value
    stack = [(-1, holder)]  # open collections with their columns, innermost last
    key = ""  # key of the last `key:` line, while its value may open below it
    pos = 0
    while pos < len(text):
        run = float_run(text, pos)
        line = run or next_line(text, pos)
        if line is None:
            raise _Declined
        pos = line.end()
        if run:
            column, dash, name = len(run[1]), True, None
            items = list(map(float, run[0].split()[1::2]))
        elif line[1] is None:  # a comment
            continue
        else:
            column, dash, name, value = len(line[1]), bool(line[2]), line[3], line[4]
            if name is None:
                if not dash:  # a continuation line or a scalar document
                    raise _Declined
                items = [_plain(line[5])]
        if key is not None:
            outer_column, outer = stack[-1]
            if column > outer_column or (dash and column == outer_column):
                outer[key] = [] if dash else {}
                stack.append((column, outer[key]))
            key = None
        while stack[-1][0] > column:
            stack.pop()
        if not dash and stack[-1][0] == column and type(stack[-1][1]) is list:
            stack.pop()  # a key ends the sequence at its own column
        outer_column, outer = stack[-1]
        if outer_column != column or (type(outer) is list) != dash:
            raise _Declined
        if dash and name is not None:  # `- key: ...` opens a mapping two columns in
            outer.append({})
            outer = outer[-1]
            stack.append((column + 2, outer))
        if len(stack) > _MAX_DEPTH + 1:
            raise _Declined
        if name is None:
            outer.extend(items)
        elif value is None:
            outer[_word(name)] = None  # until a collection opens below it
            key = name
        else:
            outer[_word(name)] = _plain(value)
    if not holder:
        raise _Declined
    return holder[""]


def _check_depth(stream):
    """Walk the stream's parser events; raise _TooDeep past ``_MAX_DEPTH``.

    A parser error, or the ValueError of a directive's over-long number,
    ends the walk quietly: ``yaml.load`` meets it too.
    """
    depth = 0
    try:
        for event in yaml.parse(stream, Loader=_LOADER):
            kind = event.__class__
            if kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                depth += 1
                if depth > _MAX_DEPTH:
                    mark = event.start_mark
                    raise _TooDeep(
                        "collections nest deeper than %d levels (line %d, column %d)"
                        % (_MAX_DEPTH, mark.line + 1, mark.column + 1)
                    )
            elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                depth -= 1
    except (yaml.YAMLError, ValueError):
        pass


def _read_yaml(fh):
    """``yaml.load(fh)`` under YAML 1.1 safe-load rules, nesting bounded.

    Text in the block layout that :func:`save_scenario` writes is read a
    line at a time (:func:`_read_block`).  Any other text is walked once
    to bound its nesting at ``_MAX_DEPTH`` (``yaml.load`` recurses once
    per level) and then read by ``yaml.load``, so its value or its
    exception is that call's.  Text that does not decode raises the one
    read's UnicodeDecodeError, which names the byte's offset in the file.
    """
    text = fh.read()
    try:
        return _read_block(text)
    except _Declined:
        stream = io.StringIO(text)
        stream.name = getattr(fh, "name", "<file>")  # parser errors name the file
    _check_depth(stream)
    stream.seek(0)
    return yaml.load(stream, Loader=_LOADER)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario YAML document."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = _read_yaml(fh)
        # ValueError covers UnicodeDecodeError and the constructors' own: a
        # date that does not exist, an int longer than Python converts
        except (yaml.YAMLError, ValueError, _TooDeep) as exc:
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
