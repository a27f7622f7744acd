import io
import math
import os
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import Scenario, load_scenario, save_scenario, synth_scenario
from gridshare import scenario as scenario_mod
from gridshare.errors import ScenarioValidationError
from gridshare.scenario import SCHEMA_VERSION, scenario_from_dict


def minimal_doc(horizon=2):
    return {
        "schema_version": SCHEMA_VERSION,
        "T": horizon,
        "eta_inv": 0.95,
        "eta_bar": 0.9,
        "tariff": {"p0": 0.01, "generation": [1.0] * horizon},
        "households": [
            {
                "id": "h1",
                "demand": [1.0] * horizon,
                "re_output": [0.0] * horizon,
                "initial_soc": 7.0,
                "battery": {
                    "s_min": 0.5,
                    "s_max": 13.5,
                    "rho_plus": 3.3,
                    "rho_minus": -3.3,
                    "rho_bar": -0.001,
                    "eta_plus": 0.95,
                    "eta_minus": 0.95,
                    "gamma_2": 1.0,
                },
            }
        ],
    }


class TestLoading:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "scen.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(minimal_doc(), fh)
        scenario = load_scenario(path)
        assert scenario.n_households == 1
        assert scenario.horizon == 2
        assert scenario.dt == 12.0

    def test_interval_count_mismatch_names_both_lengths(self):
        doc = minimal_doc(horizon=4)
        doc["households"][0]["demand"] = [1.0, 1.0]  # 2 entries, T=4
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(doc)
        joined = " ".join(exc.value.problems)
        assert "demand" in joined and "4" in joined and "2" in joined

    def test_initial_soc_above_capacity_rejected(self):
        doc = minimal_doc()
        doc["households"][0]["initial_soc"] = 14.0
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(doc)
        assert any("initial_soc" in p for p in exc.value.problems)

    def test_all_violations_reported_at_once(self):
        doc = minimal_doc()
        doc["eta_inv"] = 1.5
        doc["tariff"]["p0"] = -1.0
        doc["households"][0]["initial_soc"] = 14.0
        doc["households"][0]["demand"] = [-1.0, 1.0]
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(doc)
        assert len(exc.value.problems) >= 4

    def test_wrong_schema_version_rejected(self):
        doc = minimal_doc()
        doc["schema_version"] = 99
        with pytest.raises(ScenarioValidationError) as exc:
            scenario_from_dict(doc)
        assert any("schema_version" in p for p in exc.value.problems)

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("households: [unclosed\n")
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(path)
        # the text yaml.load gives, with the stream name and position
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(yaml.YAMLError) as parsed:
                yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert exc.value.problems == ["parse error: %s" % parsed.value]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("id: h1", "id: 2020-02-30"),
            pytest.param(
                "initial_soc: 7.0",
                "initial_soc: " + "1" * 5000,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int digit limit in this Python",
                ),
            ),
        ],
        ids=["no-such-date", "int-over-digit-limit"],
    )
    def test_constructor_error_reported(self, tmp_path, old, new):
        # a scalar the safe constructor rejects with a ValueError
        path = tmp_path / "bad.yaml"
        text = yaml.safe_dump(minimal_doc())
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(path)
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(ValueError) as parsed:
                yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert exc.value.problems == ["parse error: %s" % parsed.value]


_DROP = object()  # an edit value that deletes the key


def _edited(*edits):
    """minimal_doc() with each (path, value) edit applied; a path is a key tuple."""
    doc = minimal_doc()
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return doc


def _with(path, value):
    """minimal_doc() with the entry at ``path`` set to ``value``."""
    return _edited((path, value))


def _one(path, value, field, case_id):
    return pytest.param([(path, value)], [field + ":"], id=case_id)


H1 = ("households", 0)
MALFORMED = [
    _one(H1 + ("demand",), [1.0, math.nan], "households[h1].demand", "nan-demand"),
    _one(H1 + ("demand",), [math.inf, 1.0], "households[h1].demand", "inf-demand"),
    _one(H1 + ("re_output",), [math.nan, 0.0], "households[h1].re_output", "nan-re"),
    _one(H1 + ("re_output",), [0.0, -math.inf], "households[h1].re_output", "inf-re"),
    _one(("tariff", "generation"), [math.nan, 1.0], "tariff.generation", "nan-gen"),
    _one(("tariff", "generation"), [1.0, math.inf], "tariff.generation", "inf-gen"),
    _one(("eta_inv",), "abc", "eta_inv", "text-eta-inv"),
    _one(H1 + ("demand",), "x", "households[h1].demand", "text-demand"),
    _one(("tariff", "generation"), {"a": 1.0}, "tariff.generation", "mapping-gen"),
    _one(H1, 5, "households[0]", "household-not-mapping"),
    _one(("T",), True, "T", "bool-horizon"),
    _one(("tariff",), 5, "tariff", "tariff-not-mapping"),
    _one(("households",), {"a": 1}, "households", "households-not-list"),
    _one(H1 + ("id",), None, "households[0].id", "null-id"),
    _one(H1 + ("id",), [1, 2], "households[0].id", "list-id"),
    _one(H1 + ("id",), {"a": 1}, "households[0].id", "mapping-id"),
    # a missing key is listed as unreadable, not range-checked as a stand-in
    pytest.param(
        [(("eta_inv",), _DROP)], ["eta_inv: must be a finite number"], id="missing-eta-inv"
    ),
    # the invalid battery is listed; initial_soc has no bounds to be checked against
    pytest.param(
        [
            (H1 + ("battery", "rho_plus"), -1.0),
            (H1 + ("battery", "s_max"), 20.0),
            (H1 + ("initial_soc",), 15.0),
        ],
        ["households[h1].battery:"],
        id="invalid-battery",
    ),
    # two corrupt fields of one household, both named by its id
    pytest.param(
        [(H1 + ("demand",), "x"), (H1 + ("re_output",), [-1.0, 0.0])],
        ["households[h1].demand:", "households[h1].re_output:"],
        id="demand-and-re",
    ),
]


@pytest.mark.parametrize("edits, prefixes", MALFORMED)
def test_malformed_field_is_listed(edits, prefixes):
    """Each unreadable or out-of-range field yields exactly one problem."""
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(_edited(*edits))
    problems = exc.value.problems
    assert len(problems) == len(prefixes), problems
    for prefix in prefixes:
        assert sum(p.startswith(prefix) for p in problems) == 1, problems


@pytest.mark.parametrize("hid, text", [("h1", "h1"), (7, "7"), (2.5, "2.5")])
def test_string_and_number_ids_are_read_as_text(hid, text):
    assert scenario_from_dict(_with(H1 + ("id",), hid)).households[0].id == text


FIELD_NAMES = [
    "schema_version", "T", "eta_inv", "eta_bar", "tariff", "p0", "generation",
    "households", "id", "demand", "re_output", "initial_soc", "battery",
    "s_min", "s_max", "rho_plus", "rho_minus", "rho_bar", "eta_plus",
    "eta_minus", "gamma_2",
]
LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
DOC_PATHS = [
    ("T",), ("eta_inv",), ("eta_bar",), ("tariff",), ("tariff", "p0"),
    ("tariff", "generation"), ("households",), ("households", 0),
    ("households", 0, "demand"), ("households", 0, "initial_soc"),
    ("households", 0, "battery"), ("households", 0, "battery", "s_max"),
]


@settings(max_examples=300, deadline=None)
@given(
    doc=NESTED
    | st.builds(_with, st.sampled_from(DOC_PATHS), NESTED)
)
def test_any_document_is_a_scenario_or_a_listed_violation(doc):
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioValidationError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        assert isinstance(scenario, Scenario)


LOADERS = [
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="CSafeLoader",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="no libyaml"),
    ),
    pytest.param(yaml.SafeLoader, id="SafeLoader"),
]


def _same(a, b) -> bool:
    """Equal with equal types; floats by their bits, mappings in key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return _same(list(a.items()), list(b.items()))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _outcome(read, open_stream):
    """("value", document) or ("error", exception type, message)."""
    with open_stream() as fh:
        try:
            return "value", read(fh)
        except Exception as exc:  # any exception is compared
            return "error", type(exc), str(exc)


def assert_reads_like_yaml_load(loader, open_stream):
    """load_scenario's reader gives yaml.load's value or exception under ``loader``."""
    with mock.patch.object(scenario_mod, "_LOADER", loader):
        ours = _outcome(scenario_mod._read_yaml, open_stream)
    theirs = _outcome(lambda fh: yaml.load(fh, Loader=loader), open_stream)
    assert _same(ours, theirs), (ours, theirs)


def _text(text):
    return lambda: io.StringIO(text)


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    """Path of the seed-7 synthetic file of a given shape, written once."""
    paths = {}

    def path(households, horizon):
        if (households, horizon) not in paths:
            target = tmp_path_factory.mktemp("synth") / "day.yaml"
            save_scenario(synth_scenario(households, horizon, seed=7), target)
            paths[households, horizon] = target
        return paths[households, horizon]

    return path


# YAML 1.1 plain scalars around the float and int shapes read without the
# resolver, and other implicit types
SCALARS = [
    "-0.0", "0.0", "1.0e+300", "2.5e-400", "007.5", "1.5E+3", "1.0e5", "1.",
    ".5", "1e5", "010", "0", "-0", "-7", "1_000", "+5", "+1.5", ".inf", "-.inf",
    ".nan", "0x1F", "0b101", "1:30", "190:20:30.15", "yes", "on", "No", "~",
    "null", "", "'1.5'", '"2"', "'yes'", "2024-01-02", "2024-01-02 10:00:00",
    "h1", "=", "<<",
]


@pytest.mark.parametrize("loader", LOADERS)
class TestReadsLikeYamlLoad:
    @pytest.mark.parametrize("shape", [(4, 24), (256, 96)], ids=["4x24", "256x96"])
    def test_synth_files(self, loader, shape, synth_path):
        path = synth_path(*shape)
        assert_reads_like_yaml_load(loader, lambda: open(path, encoding="utf-8"))

    @pytest.mark.parametrize("scalar", SCALARS)
    def test_scalars(self, loader, scalar):
        # as a value, an item, a key, the root and in flow collections
        layouts = ["v: {0}\n", "- {0}\n", "{0}: v\n", "{0}\n", "[{0}, {{k: {0}}}]\n"]
        for layout in layouts:
            assert_reads_like_yaml_load(loader, _text(layout.format(scalar)))

    @pytest.mark.parametrize(
        "text",
        [
            "a: &x 1\nb: *x\n",
            "a: &x [1, 2]\nb: *x\n",
            "a: &x 1\nb: &x 2\n",
            "a: &x [1]\nb: &x {c: 2}\n",
            "base: &b {x: 1}\nd:\n  <<: *b\n  y: 2\n",
            "a: !!float 1\nb: !!str 5\n",
            "a: ! 5\n",
            "a: 1\n---\nb: 2\n",
            "? [1, 2]\n: 3\n",
            "? {a: 1}\n: 3\n",
            "",
            "# only a comment\n",
            "--- \na: 1\n...\n",
            "%YAML 1.1\n---\na: 1\n",
            "a: 1\na: 2\nb: 3\n",
            ".nan: 1\n.nan: 2\n",
            "1: a\n1.0: b\ntrue: c\n",
            "d: 2020-02-30\n",
            "d: 2020-02-30\ne: *nope\n",
            "d: 2020-02-30\ne: [\n",
            "a: *nope\n",
            "households: [unclosed\n",
            "[" * 200 + "]" * 200 + "\n",
        ],
        ids=[
            "alias", "collection-alias", "duplicate-anchor",
            "duplicate-collection-anchor", "merge", "tags", "non-specific-tag",
            "two-documents", "list-key", "map-key", "empty", "comment", "markers",
            "directive", "duplicate-key", "nan-keys", "equal-keys", "bad-date",
            "bad-date-then-alias", "bad-date-then-unclosed",
            "undefined-alias", "unclosed", "deep",
        ],
    )
    def test_documents(self, loader, text):
        assert_reads_like_yaml_load(loader, _text(text))

    def test_undecodable_file(self, loader, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"a: 1\nb: caf\xe9\n")
        assert_reads_like_yaml_load(loader, lambda: open(path, encoding="utf-8"))

    @settings(max_examples=150, deadline=None)
    @given(
        text=st.recursive(
            st.sampled_from(SCALARS)
            | st.floats().map(repr)
            | st.integers(-(10**20), 10**20).map(str),
            lambda inner: st.lists(inner, max_size=4).map(
                lambda items: "[%s]" % ", ".join(items)
            )
            | st.lists(st.tuples(inner, inner), max_size=4).map(
                lambda pairs: "{%s}" % ", ".join("%s: %s" % p for p in pairs)
            ),
            max_leaves=20,
        )
        | NESTED.map(yaml.safe_dump)
    )
    def test_any_document(self, loader, text):
        assert_reads_like_yaml_load(loader, _text(text))


def test_plain_scenario_is_built_without_yaml_load(tmp_path, monkeypatch):
    path = tmp_path / "day.yaml"
    scenario = synth_scenario(3, 6, seed=2)
    save_scenario(scenario, path)
    monkeypatch.setattr(yaml, "load", None)  # any call fails
    assert load_scenario(path).digest() == scenario.digest()


def _shared_battery_files(tmp_path):
    """(anchored, expanded) files of one day whose households share a battery."""
    doc = synth_scenario(2, 6, seed=5).to_dict()
    battery = doc["households"][0]["battery"]
    anchored, expanded = tmp_path / "anchored.yaml", tmp_path / "expanded.yaml"
    doc["households"][1]["battery"] = dict(battery)
    expanded.write_text(yaml.safe_dump(doc))
    doc["households"][1]["battery"] = battery  # dumped as an anchor and an alias
    anchored.write_text(yaml.safe_dump(doc))
    assert "*id001" in anchored.read_text()
    return anchored, expanded


def test_anchored_scenario_matches_its_expansion(tmp_path):
    anchored, expanded = _shared_battery_files(tmp_path)
    assert load_scenario(anchored).digest() == load_scenario(expanded).digest()


def test_pipe_is_read_once(tmp_path):
    # the anchor needs yaml.load, and a pipe cannot be read a second time
    anchored, expanded = _shared_battery_files(tmp_path)
    fifo = tmp_path / "day.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=(anchored.read_text(),), daemon=True
    )
    writer.start()
    try:
        scenario = load_scenario(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert scenario.digest() == load_scenario(expanded).digest()


class TestRoundTrip:
    def test_save_load_preserves_digest(self, tmp_path):
        scenario = synth_scenario(3, 12, seed=4)
        path = tmp_path / "scen.yaml"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert loaded.digest() == scenario.digest()

    def test_saved_files_are_deterministic(self, tmp_path):
        scenario = synth_scenario(2, 6, seed=9)
        p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(scenario, p1)
        save_scenario(scenario, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSynth:
    def test_same_seed_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(synth_scenario(4, 24, seed=7), p1)
        save_scenario(synth_scenario(4, 24, seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reference_day_digest_is_stable(self):
        # pins the canonical document, battery key order included
        assert synth_scenario(4, 24, seed=7).digest() == (
            "ad2990876cae22a6c2712cc78bc9b18e4b9838dfd38e10ad3731cc146dafd32d"
        )

    def test_different_seed_differs(self):
        assert (
            synth_scenario(4, 24, seed=7).digest()
            != synth_scenario(4, 24, seed=8).digest()
        )

    def test_generation_matches_positive_net_demand(self):
        scenario = synth_scenario(5, 24, seed=3)
        d = scenario.net_demands()
        positive = float(np.sum(np.maximum(d, 0.0)))
        total_g = float(np.sum(scenario.tariff.generation))
        assert total_g == pytest.approx(positive, rel=1e-9)

    def test_demand_shape_has_morning_and_evening_peaks(self):
        scenario = synth_scenario(4, 24, seed=7)
        demand = np.sum([h.demand for h in scenario.households], axis=0)
        hours = (np.arange(24) + 0.5) * 1.0
        morning = demand[(hours > 6) & (hours < 10)].max()
        evening = demand[(hours > 17) & (hours < 21)].max()
        night = demand[(hours > 1) & (hours < 5)].max()
        assert morning > night and evening > night

    def test_bad_sizes_rejected(self):
        with pytest.raises(ScenarioValidationError):
            synth_scenario(0, 24, seed=0)
        with pytest.raises(ScenarioValidationError):
            synth_scenario(2, 1, seed=0)
