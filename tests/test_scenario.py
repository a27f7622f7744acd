import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import Scenario, load_scenario, save_scenario, synth_scenario
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
        assert any("parse error" in p for p in exc.value.problems)


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
