import dataclasses
import hashlib
import io
import math
import os
import random
import re
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
from gridshare.battery import MAX_MAGNITUDE, MIN_EFFICIENCY
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

    def test_check_raises_every_violation_of_a_built_scenario(self):
        scenario = synth_scenario(2, 4, seed=1)
        assert scenario.check() is scenario
        bad = dataclasses.replace(scenario, eta_inv=1.5, eta_bar=0.0)
        with pytest.raises(ScenarioValidationError) as exc:
            bad.check()
        assert exc.value.problems == bad.validate()
        assert [p.split(":")[0] for p in exc.value.problems] == ["eta_inv", "eta_bar"]

    def test_wrong_schema_version_rejected(self):
        # the version is the integer 1: not a float, bool or string equal to it
        shown = [(99, "99"), (1.0, "1.0"), (True, "True"), ("1", "'1'"), (None, "None")]
        for version, text in shown:
            doc = minimal_doc()
            doc["schema_version"] = version
            with pytest.raises(ScenarioValidationError) as exc:
                scenario_from_dict(doc)
            assert exc.value.problems == ["schema_version: expected 1, got " + text]

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
    # YAML reads an unquoted no, yes, on or off as a bool
    _one(H1 + ("id",), False, "households[0].id", "bool-id"),
    _one(("households",), minimal_doc()["households"] * 2, "households[h1]", "duplicate-id"),
    # traces.csv names the community's loads baseline_load and equilibrium_load
    pytest.param(
        [(H1 + ("id",), "baseline")], ["households[baseline].id: reserved"], id="baseline-id"
    ),
    pytest.param(
        [(H1 + ("id",), "equilibrium")],
        ["households[equilibrium].id: reserved"],
        id="equilibrium-id",
    ),
    _one(H1 + ("demand",), [[1, 2], [3]], "households[h1].demand", "ragged-demand"),
    # the numeric range: each bound is listed once, under its field
    _one(("tariff", "p0"), 2e30, "tariff.p0", "p0-above-range"),
    _one(("eta_inv",), 1e-7, "eta_inv", "eta-inv-below-range"),
    _one(("eta_bar",), 1e-7, "eta_bar", "eta-bar-below-range"),
    _one(H1 + ("demand",), [2e30, 1.0], "households[h1].demand", "demand-above-range"),
    _one(H1 + ("re_output",), [0.0, 2e30], "households[h1].re_output", "re-above-range"),
    _one(("tariff", "generation"), [1.0, 2e30], "tariff.generation", "gen-above-range"),
    _one(H1 + ("battery", "s_max"), 2e30, "households[h1].battery", "s-max-above-range"),
    _one(H1 + ("battery", "rho_bar"), -2.0, "households[h1].battery", "rho-bar-below-range"),
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


@pytest.mark.parametrize(
    "path, value, problem",
    [
        (("eta_inv",), "abc", "eta_inv: must be a finite number, got 'abc'"),
        (
            ("tariff", "generation"),
            {"a": 1.0},
            "tariff.generation: must be a list of numbers, got {'a': 1.0}",
        ),
        (("tariff",), 5, "tariff: must be a mapping, got 5"),
        (("households",), {"a": 1}, "households: must be a list, got {'a': 1}"),
        (H1 + ("id",), [1, 2], "households[0].id: must be a string or a number, got [1, 2]"),
        (("T",), True, "T: must be a positive integer, got True"),
    ],
    ids=["number", "series", "mapping", "list", "id", "count"],
)
def test_type_violation_text(path, value, problem):
    """Each type rule lists its field, its kind and the value it got, in full."""
    with pytest.raises(ScenarioValidationError) as exc:
        scenario_from_dict(_with(path, value))
    assert exc.value.problems == [problem]


@pytest.mark.parametrize(
    "edits",
    [
        [(("tariff", "p0"), MAX_MAGNITUDE)],
        [(("eta_inv",), MIN_EFFICIENCY), (("eta_bar",), MIN_EFFICIENCY)],
        [(H1 + ("demand",), [MAX_MAGNITUDE, 0.0]), (H1 + ("re_output",), [0.0, MAX_MAGNITUDE])],
        [(("tariff", "generation"), [MAX_MAGNITUDE] * 2)],
    ],
    ids=["p0", "efficiencies", "household-series", "generation"],
)
def test_values_at_the_range_bounds_are_accepted(edits):
    scenario_from_dict(_edited(*edits))


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


class _IndentedDumper(yaml.SafeDumper):
    """Indents a mapping's sequences under their key."""

    def increase_indent(self, flow=False, indentless=False):
        return super().increase_indent(flow, False)


def _replaced(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)

    return edit


# edits of the 2x4 synth file around the block layout's grammar
SYNTH_VARIANTS = [
    lambda text: text.replace("\n", "\r\n"),
    _replaced("\n  p0:", "\n\tp0:"),
    _replaced("eta_bar: 0.9\n", "eta_bar:\t0.9\n"),
    _replaced("eta_bar: 0.9\n", "eta_bar: 0.9 \n"),
    _replaced("tariff:\n", "tariff: \n"),
    _replaced("eta_bar: 0.9\n", "eta_bar: 0.9 # c\n"),
    _replaced("\n  p0:", "\n  # c\n  p0:"),
    _replaced("\n", "\n# caf\u00e9\n"),
    _replaced("\n", "\n# bell\x07\n"),
    _replaced("\n", "\n# next line\x85extra: 1\n"),
    lambda text: text.replace("\nT:", "\n\nT:") + "\n\n",
    lambda text: text.rstrip("\n"),
    lambda text: "---\n" + text + "...\n",
    lambda text: "\ufeff" + text,
    lambda text: text + "true: 1\n",
    lambda text: text + "1: a\n",
    lambda text: text + "null: a\n",
    lambda text: text + "T:\n",
    _replaced("id: h1\n", "id: 'h1'\n"),
    _replaced("id: h1\n", 'id: "h1"\n'),
    _replaced("id: h1\n", "id: yes\n"),
    _replaced("id: h1\n", "id: 0x1F\n"),
    _replaced("id: h1\n", "id: h1 h2\n"),
    _replaced("id: h1\n", "id: h1\n  continued\n"),
    lambda text: yaml.dump(
        yaml.safe_load(text), Dumper=_IndentedDumper, sort_keys=False
    ),
    lambda text: re.sub(r"(?m)^(?=[^#\n])", "  ", text),
    _replaced("- id: h1\n", "- id:\n    a: 1\n    b:\n    - 2\n  c: 3\n"),
    _replaced("- id: h1\n", "- id: h1\n   deeper: 1\n"),
    _replaced("- id: h1\n", "- id: h1\n  - 1.5\n"),
    _replaced("  gamma_2: 1.0\n- id: h2", "  gamma_2:\n- id: h2"),
    _replaced("  p0: 0.01\n", "  p0:\n"),
    lambda text: text + "T: 5\ntariff: 3\neta_inv:\n- 1.0\n",
    _replaced("  generation:\n", "  generation:\n  - 1\n  - -0\n  - -0.0\n"),
]
SYNTH_VARIANT_IDS = [
    "crlf", "tab-indent", "tab-value", "trailing-space", "trailing-space-key",
    "inline-comment", "indented-comment", "non-ascii-comment",
    "non-printable-comment", "line-break-in-comment", "blank-lines",
    "no-final-newline", "markers", "bom", "bool-key", "int-key", "null-key",
    "valueless-key-at-end", "single-quoted-id", "double-quoted-id", "bool-id",
    "hex-id", "spaced-id", "continuation", "indented-sequences", "indented-root",
    "dash-key-with-deeper-keys", "deeper-key-under-dash", "dash-under-scalar-key",
    "valueless-key-before-dedent", "valueless-key-before-key", "duplicate-keys",
    "ints-and-signed-zeros",
]
# whole lines and line fragments around the grammar's edges
LINE_FRAGMENTS = [
    "", " ", "#", "# c", "-", "- ", "- 1.5", "  - 1.5", "- -1.5e-07", "- 1", "a:",
    "a: 1", "  a: 1", "- a: 1", "- a:", "true: 1", "1: a", "~: a", "a: ~", "- yes",
    "- h1-0a3f2c", "---", "...", "a: [1]", "a: {b: 1}", "&x", "*x", "!!str",
    "- 2020-01-02", "- .inf", "- 1_000", "- 1.5E+3", "\t", "\r", " # c",
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

    def test_undecodable_byte_past_the_first_chunk(self, loader, tmp_path, synth_path):
        # yaml.load decodes a file a chunk at a time and names the position
        # in its chunk; the reader decodes the text in one read, so a file
        # and a pipe of the same bytes both name the offset in the file
        at = 70000  # past 64 KiB
        data = synth_path(256, 96).read_bytes()
        assert len(data) > at
        data = data[:at] + b"\xff" + data[at:]
        path = tmp_path / "late.yaml"
        path.write_bytes(data)
        with mock.patch.object(scenario_mod, "_LOADER", loader):
            problems = [_parse_problems(path), _piped_problems(tmp_path, data)]
        line = (
            "parse error: 'utf-8' codec can't decode byte 0xff in position %d: "
            "invalid start byte" % at
        )
        assert problems == [[line], [line]]

    @pytest.mark.parametrize("variant", SYNTH_VARIANTS, ids=SYNTH_VARIANT_IDS)
    def test_synth_file_variants(self, loader, variant, synth_path, tmp_path):
        text = variant(synth_path(2, 4).read_text())
        path = tmp_path / "variant.yaml"
        path.write_bytes(text.encode())  # read back with universal newlines
        assert_reads_like_yaml_load(loader, lambda: open(path, encoding="utf-8"))
        assert_reads_like_yaml_load(loader, _text(text))

    @settings(max_examples=200, deadline=None)
    @given(
        index=st.integers(0, 60),
        edit=st.sampled_from(["replace", "insert", "prefix", "suffix"]),
        fragment=st.sampled_from(LINE_FRAGMENTS)
        | st.text(" -:#\t\r'\"[]{}&*!|>%,?.0123456789eE+_ahnoTy~\x85", max_size=8),
    )
    def test_synth_file_with_one_line_changed(
        self, loader, synth_path, index, edit, fragment
    ):
        lines = synth_path(2, 4).read_text().splitlines(keepends=True)
        index %= len(lines)
        line = lines[index]
        lines[index] = {
            "replace": fragment + "\n",
            "insert": fragment + "\n" + line,
            "prefix": fragment + line,
            "suffix": line[:-1] + fragment + "\n",
        }[edit]
        assert_reads_like_yaml_load(loader, _text("".join(lines)))

    @settings(max_examples=150, deadline=None)
    @given(
        text=st.recursive(
            # a tag or an anchor sends the document to yaml.load mid-walk
            st.sampled_from(SCALARS + ["!!str 5", "&a 1"])
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


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize(
    "text",
    ["a: &x [1, 2]\nb: *x\n", "d: 2020-02-30\ne: [1, 2, 3]\n", "a: 1\n---\nb: 2\n"],
    ids=["alias", "bad-date", "two-documents"],
)
def test_a_document_for_yaml_load_is_walked_once(loader, text):
    walkers, events, loads = set(), [], []

    class Counting(loader):
        loading = False

        def get_event(self):
            if not self.loading:  # yaml.load's own reading is not the walk
                walkers.add(self)
                events.append(1)
            return super().get_event()

        def get_single_data(self):
            self.loading = True
            loads.append(1)
            return super().get_single_data()

    assert_reads_like_yaml_load(Counting, _text(text))
    assert len(events) == len(list(yaml.parse(text, Loader=loader)))
    assert len(walkers) == 1
    assert len(loads) == 2  # one from the reader, one from the comparison


def test_plain_scenario_is_built_without_yaml_load(tmp_path, monkeypatch):
    events = []

    class Counting(scenario_mod._LOADER):
        def get_event(self):
            events.append(1)
            return super().get_event()

    monkeypatch.setattr(scenario_mod, "_LOADER", Counting)
    monkeypatch.setattr(yaml, "load", None)  # any call fails
    # the benchmark's ingest size, with ids in its relabelled form
    rng = random.Random(1)
    for shape in [(3, 6), (256, 96)]:
        scenario = synth_scenario(*shape, seed=2)
        scenario.households = [
            dataclasses.replace(h, id="h%d-%06x" % (m + 1, rng.getrandbits(24)))
            for m, h in enumerate(scenario.households)
        ]
        path = tmp_path / "day.yaml"
        save_scenario(scenario, path)
        assert load_scenario(path).digest() == scenario.digest()
    assert events == []


def _parse_problems(path):
    """The problems load_scenario lists for a file it cannot parse."""
    with pytest.raises(ScenarioValidationError) as caught:
        load_scenario(path)
    return caught.value.problems


def _piped_problems(tmp_path, data):
    """_parse_problems of a fifo that another thread writes ``data`` into."""
    fifo = tmp_path / "piped.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return _parse_problems(fifo)
    finally:
        writer.join(timeout=10)


def test_undecodable_pipe_is_one_parse_error(tmp_path):
    # the error names the byte's position in the text
    assert _piped_problems(tmp_path, b"a: 1\nb: caf\xe9\n") == [
        "parse error: 'utf-8' codec can't decode byte 0xe9 in position 11: "
        "invalid continuation byte"
    ]


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

    def test_ingest_day_digest_and_file_are_stable(self, tmp_path):
        # the benchmark's 256x96 ingest day at full size: its canonical
        # document and its saved bytes
        scenario = synth_scenario(256, 96, seed=7)
        assert scenario.digest() == (
            "e74dcaff4adda73a395cb01c180165cc19335ae55189d38cb3ee75461750afa0"
        )
        path = tmp_path / "ingest.yaml"
        save_scenario(scenario, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "850f299c13789fbe96ea48c06b115ffa71c18f00675215f81ac3760ee7e27fe6"
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


def _deep_list(levels):
    return "[" * levels + "]" * levels


# yaml.load's C composer recurses once per level and overflows the stack
# near 25 000 levels, so no document deeper than the bound may reach it
DEEPER = [
    _deep_list(scenario_mod._MAX_DEPTH + 1),
    "&a " + _deep_list(25_000),
    "[" * 30_000,
    "schema_version: 1\nT: " + _deep_list(2000),
    "d: 2020-02-30\ne: " + _deep_list(25_000),
    "a: *nope\nb: " + _deep_list(25_000),
    # the walk stops building at each of these and still bounds the nesting after
    "a: " + "1" * 5000 + "\nb: " + _deep_list(25_000),
    "a: 1\n---\n" + _deep_list(25_000),
    "a: !!str 5\nb: " + _deep_list(25_000),
    "? [1]\n: 2\nb: " + _deep_list(25_000),
    "<<: {}\nb: " + _deep_list(25_000),
    # block mappings, one key a line, each a column deeper than the last
    "\n".join(" " * i + "k:" for i in range(scenario_mod._MAX_DEPTH + 1)),
]
DEEPER_IDS = [
    "one-past", "anchored", "unclosed", "deep-T", "bad-date-then-deep", "alias-then-deep",
    "long-int-then-deep", "deep-second-document", "tag-then-deep",
    "collection-key-then-deep", "merge-then-deep", "block-one-past",
]
TOO_DEEP = "parse error: collections nest deeper than %d levels" % scenario_mod._MAX_DEPTH


class TestNestingBound:
    @pytest.mark.parametrize("loader", LOADERS)
    def test_the_bound_reads_like_yaml_load(self, loader):
        text = _deep_list(scenario_mod._MAX_DEPTH) + "\n"
        assert_reads_like_yaml_load(loader, _text(text))
        # mappings nest too deep for _same; their == holds no floats to tell apart
        block = "".join(" " * i + "k:\n" for i in range(scenario_mod._MAX_DEPTH))
        with mock.patch.object(scenario_mod, "_LOADER", loader):
            ours = scenario_mod._read_yaml(io.StringIO(block))
        assert ours == yaml.load(block, Loader=loader)

    @pytest.mark.parametrize("text", DEEPER, ids=DEEPER_IDS)
    def test_deeper_is_one_parse_error(self, tmp_path, text):
        path = tmp_path / "deep.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ScenarioValidationError) as caught:
            load_scenario(path)
        [problem] = caught.value.problems
        line = text.count("\n") + 1
        assert problem.startswith("%s (line %d, column " % (TOO_DEEP, line)), problem

    @pytest.mark.parametrize(
        "text", DEEPER[1:3] + DEEPER[6:7], ids=DEEPER_IDS[1:3] + DEEPER_IDS[6:7]
    )
    def test_deeper_from_a_pipe_is_one_parse_error(self, tmp_path, text):
        fifo = tmp_path / "deep.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            with pytest.raises(ScenarioValidationError) as caught:
                load_scenario(fifo)
        finally:
            writer.join(timeout=10)
        [problem] = caught.value.problems
        assert problem.startswith(TOO_DEEP), problem


def test_brief_shows_a_value_nested_past_the_recursion_limit():
    value = []
    for _ in range(sys.getrecursionlimit() + 100):
        value = [value]
    assert scenario_mod._brief(value) == "a deeply nested list"
