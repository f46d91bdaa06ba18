"""End-to-end checks of the command-line interface.

Exercises the documented contract: deterministic JSON/CSV output, exact
``p/q`` rationals, and the exit-code mapping (0 success, 1 domain error,
2 truncation-incomplete).
"""

import csv
import io
import json
from fractions import Fraction
from math import comb

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles

from bratteli.cli import _by_key_repr, _fr, _vkey, cli, main
from bratteli.core import build_diagram, vertex_from_text, vertex_window
from bratteli.linalg import stochastic_rows


def run(*args):
    return CliRunner().invoke(cli, list(args))


def run_json(*args):
    result = run(*args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# the three documented examples
# ---------------------------------------------------------------------------

def test_heights_example_matches_the_binomial_closed_form():
    data = run_json("heights", "--family", "binfty", "--level", "4",
                    "--window", "10")
    assert data["heights"] == {str(i): str(comb(i + 2, 3)) for i in range(1, 11)}
    assert data["closed_form_agrees"] is True
    assert data["level"] == 4


def test_extension_example_reports_a_finite_sixth():
    data = run_json("extension", "--case", "mu-a-pascal-edge",
                    "--a", "1/2", "--k", "2")
    assert data["verdict"] == "Finite"
    assert data["value"] == "1/6"


def test_invariance_example_is_an_all_pass_report():
    data = run_json("invariance", "--measure", "pascal-mu",
                    "--d", "1/3,2/3", "--levels", "6")
    assert data["invariant"] is True
    assert data["failures"] == []
    assert data["checks"] == 21  # levels 0..5 of the two-coordinate triangle


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_domain_errors_exit_one():
    assert run("heights", "--family", "binfty", "--level", "4").exit_code == 1
    assert run("heights", "--family", "nosuch", "--level", "4").exit_code == 1
    assert run("measure", "--measure", "pascal-mu", "--d", "1/3,1/3",
               "--level", "2").exit_code == 1
    assert run("extension", "--case", "mu-a-pascal-edge").exit_code == 1


def test_truncation_incomplete_exits_two():
    # a slow march cannot reach a one-in-a-million tolerance in 10 steps
    result = run("limits", "--family", "pascal-n", "--level", "1",
                 "--rule", "pascal-ray", "--d", "1/2,1/2", "--m-max", "10")
    assert result.exit_code == 2
    # stepping a path whose known edges are all maximal needs more prefix
    result = run("vershik", "--family", "binfty", "--order", "left-to-right",
                 "--path", '{"start": 1, "edges": [[2,2,1]]}')
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ("--family", "pascal-n", "--level", "0", "--vertex", "[[1,1]]"),
    ("--family", "odometer-io", "--a", "2", "--level", "0", "--vertex", "-3"),
    ("--family", "binfty", "--level", "0", "--vertex", "1"),
    ("--family", "binfty", "--level", "1", "--vertex", "0"),
    ("--family", "pascal-n", "--level", "1", "--vertex", '[["x",1]]'),
    ("--family", "pascal-n", "--level", "1", "--vertex", "[1]"),
    ("--family", "pascal-n", "--level", "2", "--vertex", '["12"]'),
], ids=["pascal-level-0", "odometer-negative", "binfty-no-level-0", "binfty-vertex-0",
        "pascal-non-integer-key", "pascal-key-not-pairs", "pascal-pair-written-as-text"])
def test_heights_of_a_non_vertex_is_a_domain_error(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(["heights", *args])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("heights", "--family", "pascal-n", "--level", "1", "--vertex", "[[1.9, 1]]"),
    ("heights", "--family", "pascal-n", "--level", "2", "--vertex", "[[1, 2.0]]"),
    ("heights", "--family", "pascal-n", "--level", "1", "--vertex", "[[true, 1]]"),
    ("vershik", "--family", "pascal-n", "--order", "natural", "--path",
     '{"start": 0, "edges": [[[], [[2, 1]], 1], [[[2, 1]], [[1, 1], [2, 1.0]], 1]]}'),
], ids=["float-coordinate", "integral-float-multiplicity", "boolean-coordinate", "pascal-path-vertex"])
def test_a_vertex_entry_that_is_not_an_integer_is_refused(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a vertex entry must be an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("path", [
    '{"start": 1, "edges": [[1,2,1],[3,3,1]]}',
    '{"start": 1, "edges": [[1,2,2]]}',
    '{"start": 1, "edges": [[1,2,1]], "tail": {"kind": "vertical", "vertex": 3}}',
    '{"start":1,"edges":[[1,2,1]],"tail":{"kind":"vertical"}}',
    '[1,2]',
    '{"edges": [[1,2,1]]}',
    '{"start": 1, "edges": [[1,2]]}',
    '{"start": "x"}',
    '{"start": 1, "edges": [[1,2,"x"]]}',
    '{"start": 1, "edges": [[1,2,1]], "tail": {"kind": "diagonal", "vertex": "x"}}',
    '{"start": 1, "edges": [[1,2,1]], "tail": {"kind": "concentrating", "coordinate": "x"}}',
    '{"start": 1, "edges": [[1,[["x",1]],1]]}',
    '{"start": 1, "edges": [[1,[1],1]]}',
    '{"start": 1, "edges": [[1,2,1]], "tail": {"kind": [1]}}',
    '{"start": 1, "edges": [[1,2,1.9]]}',
    '{"start": 1, "edges": [[true,2,1]]}',
], ids=["edges-do-not-compose", "slot-out-of-range", "tail-not-at-prefix-end",
        "tail-without-vertex", "not-an-object", "no-start", "two-field-edge",
        "non-integer-start", "non-integer-slot", "non-integer-diagonal-vertex",
        "non-integer-coordinate", "non-integer-key-vertex", "key-vertex-not-pairs",
        "tail-kind-not-a-string", "float-slot", "boolean-vertex"])
@pytest.mark.parametrize("command", [
    ("orbit", "--steps", "3"),
    ("vershik",),
], ids=lambda command: command[0])
def test_an_invalid_path_is_a_domain_error(command, path, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, "--family", "binfty", "--order", "left-to-right",
              "--path", path])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def assert_domain_error(argv, capsys):
    """``main(argv)`` exits 1 with an ``error:`` line and no traceback."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("descriptor", [
    '[1]',
    '{"positions": [0], "values": [null]}',
    '{"side": "max", "positions": [0], "values": ["x"]}',
    '{"side": "max", "positions": 5, "values": [1]}',
    '{"side": "max", "positions": [0], "values": [1], "position_tail": [1]}',
    '{"side": "max", "positions": [0], "values": [1], "position_tail": [1, 1], "value_tail": "x"}',
    '{"side": "max", "positions": [2.7], "values": [null]}',
], ids=["not-an-object", "no-side", "non-integer-value", "positions-not-a-list",
        "short-position-tail", "non-integer-value-tail", "float-position"])
def test_a_malformed_descriptor_is_a_domain_error(descriptor, capsys):
    assert_domain_error(["classify", "--descriptor", descriptor], capsys)


_MISSPELT_PATH = '{"start":1,"edgse":[[1,2,1]],"tail":{"kind":"vertical","vertex":1,"slto":"last"}}'


@pytest.mark.parametrize("argv, key", [
    (["vershik", "--family", "binfty", "--path", _MISSPELT_PATH], "edgse"),
    (["vershik", "--family", "binfty", "--path",
      '{"start":1,"edges":[[1,2,1]],"tail":{"kind":"vertical","vertex":2,"slto":"last"}}'], "slto"),
    (["orbit", "--family", "binfty", "--steps", "3", "--path",
      '{"start":1,"edges":[[1,2,1]],"tail":{"kind":"diagonal","vertex":2,"slot":"last"}}'], "slot"),
    (["classify", "--family", "binfty", "--path",
      '{"start":1,"edges":[[1,2,1]],"tail":{"kind":"unspecified","vertex":2}}'], "vertex"),
    (["classify", "--family", "binfty", "--path", '{"start":1,"edges":[[1,2,1]],"tial":{}}'], "tial"),
    (["classify", "--descriptor", '{"side":"max","positions":[0],"values":[null],"value_tial":1}'],
     "value_tial"),
], ids=["path-key", "vertical-tail-key", "field-of-another-tail-kind", "unspecified-tail-key",
        "misspelt-tail", "descriptor-key"])
def test_an_unknown_key_in_a_path_or_descriptor_is_refused_by_name(argv, key, capsys):
    # the first path was read as an empty prefix with a first-slot tail: "the path is maximal"
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key %r in " % key)
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, key, where", [
    ({"family": "binfty", "truncaton": {"bound": 2}}, "truncaton", "a diagram spec"),
    ({"family": "binfty", "truncation": {"bond": 2}}, "bond", "a spec's truncation"),
    ({"family": "binfty", "params": {"k": 2}}, "k", "the params of family binfty"),
    ({"family": "pascal-k", "params": {"k": 2, "coords": 3}}, "coords", "the params of family pascal-k"),
    ({"family": "odometer-io", "params": {"a": 2, "column": {"1": 3}}}, "column",
     "the params of family odometer-io"),
    ({"family": "custom", "params": {"levels": {"0": [1]}, "rows": {}, "base": 0}}, "base",
     "the params of family custom"),
    ({"family": "binfty", "sub": {"kind": "vertex", "rule": "staircase", "k": 2, "vertex": 3}}, "vertex",
     "a subdiagram of kind vertex, rule staircase"),
    ({"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1], "retained": {},
                                  "levels": {}}}, "levels", "a subdiagram of kind edge, rule explicit"),
], ids=["spec-key", "truncation-key", "params-of-a-family-without-params", "pascal-k-params-key",
        "odometer-params-key", "custom-params-key", "staircase-sub-key", "explicit-edge-sub-key"])
def test_an_unknown_key_in_a_spec_file_is_refused_by_name(spec, key, where, tmp_path, capsys):
    # the first spec was read as an untruncated binfty diagram, and printed every height
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as info:
        main(["heights", "--spec", str(path), "--level", "4", "--window", "3"])
    assert info.value.code == 1
    assert capsys.readouterr().err.startswith("error: unknown key %r in %s (allowed: " % (key, where))


def test_a_truncation_bound_cuts_the_subdiagram_the_spec_describes(tmp_path):
    # the bound was stored on the ambient binfty diagram, so the staircase printed four heights
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "binfty", "truncation": {"bound": 2},
                                "sub": {"kind": "vertex", "rule": "staircase", "k": 2}}))
    data = run_json("heights", "--spec", str(path), "--level", "4")
    assert data["heights"] == {"2": "1", "3": "3"}


# vertex 1 at level 2 keeps no source: its height would be 0, and stochastic rows divide by it
KEPT_VERTEX_WITHOUT_SOURCE = {"family": "binfty", "sub": {"kind": "vertex", "rule": "explicit",
                                                          "levels": {"1": [2], "2": [1], "3": [1]}}}


@pytest.mark.parametrize("spec", [
    {"family": "pascal-k", "params": {"k": "x"}},
    {"family": "custom", "params": {"levels": {"0": [1], "1": [1]}}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "staircase"}},
    {"family": "binfty", "sub": [1]},
    {"family": "pascal-n", "params": [1]},
    {"family": "custom", "params": {"levels": [[1], [1]], "rows": {}}},
    {"family": "custom", "params": {"levels": {"0": [1], "1": [1]},
                                    "rows": {"1": {"[1": {"1": 1}}}}},
    {"family": "custom", "params": {"levels": {"0": 5}, "rows": {}}},
    {"family": "binfty", "truncation": [1]},
    {"family": "binfty", "truncation": {"bound": "x"}},
    {"family": "custom", "params": {"levels": {"0": [1], "1": [1]},
                                    "rows": {"1": {"1": {"2": 1}}}}},
    {"family": "binfty", "sub": "staircase:2"},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "explicit", "levels": [1, 2]}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "explicit", "levels": {"1": 3}}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1], "retained": [1]}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1], "retained": {"2": 5}}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1],
                                 "retained": {"2": {"1": 5}}}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1],
                                 "retained": {"2": {"1": [1, 2]}}}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": 1, "retained": {}}},
    {"family": "odometer-io", "params": {"a": 2, "columns": [1, 2]}},
    {"family": "odometer-io", "params": {"a": [2, "x"]}},
    {"family": "pascal-k", "params": {"k": 2.9}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "staircase", "k": 2.5}},
    KEPT_VERTEX_WITHOUT_SOURCE,
    {"family": []},
    {"family": "binfty", "sub": {"kind": ["vertex"], "rule": "staircase", "k": 2}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": {}, "k": 2}},
], ids=["pascal-k-non-integer-k", "custom-without-rows", "staircase-sub-without-k",
        "sub-not-an-object", "params-not-an-object", "custom-levels-a-list",
        "custom-malformed-row-key", "custom-level-not-a-list", "truncation-not-an-object",
        "truncation-bound-not-an-integer", "custom-row-source-not-a-vertex",
        "sub-not-json", "explicit-levels-a-list", "explicit-level-not-a-list",
        "retained-a-list", "retained-level-rows-an-integer", "retained-sources-an-integer",
        "retained-sources-a-list", "seed-an-integer", "odometer-columns-a-list",
        "odometer-entry-not-an-integer", "pascal-k-float-k", "staircase-sub-float-k",
        "kept-vertex-without-source", "family-a-list", "sub-kind-a-list", "sub-rule-an-object"])
def test_a_malformed_spec_file_is_a_domain_error(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert_domain_error(["heights", "--spec", str(path), "--level", "1"], capsys)


@pytest.mark.parametrize("spec", [
    {"family": "pascal-n", "truncation": {"bound": "x"}},
    # a multiplicity counts edges: below 1 there is no Bratteli diagram
    {"family": "custom", "params": {"levels": {"0": [1, 2], "1": [1, 2]},
                                    "rows": {"1": {"1": {"1": -1}, "2": {"1": -2, "2": 4}}}}},
    {"family": "custom", "params": {"levels": {"0": [1, 2], "1": [1, 2, 3]},
                                    "rows": {"1": {"1": {"1": 0}, "2": {"1": -1}, "3": {"1": 1, "2": 1}}}}},
    {"family": "custom", "params": {"levels": {"0": [1, 2], "1": [1, 2]},
                                    "rows": {"1": {"1": {"1": 1}, "2": {}}}}},
    KEPT_VERTEX_WITHOUT_SOURCE,
], ids=["truncation-bound-not-an-integer", "negative-multiplicity", "zero-multiplicity", "empty-row",
        "kept-vertex-without-source"])
def test_a_malformed_spec_file_is_a_domain_error_for_stochastic(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert_domain_error(["stochastic", "--spec", str(path), "--level", "2"], capsys)


def test_continuity_refuses_a_kept_vertex_without_a_kept_source(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(KEPT_VERTEX_WITHOUT_SOURCE))
    assert_domain_error(["continuity", "--spec", str(path), "--level", "3"], capsys)


# valid specs, one per family and per subdiagram kind and rule
_SPEC_TEMPLATES = [
    {"family": "pascal-n", "truncation": {"bound": 3}},
    {"family": "pascal-k", "params": {"k": 2}},
    {"family": "bounded-finite", "params": {"k": 1}},
    {"family": "bounded-generalized", "params": {"k": 1}, "truncation": {"bound": 3}},
    {"family": "odometer-io", "params": {"a": [2, 3], "columns": {"1": [2, 3]}}},
    {"family": "custom", "params": {"base_level": 0, "levels": {"0": [1], "1": [1, [[1, 1]]]},
                                    "rows": {"1": {"1": {"1": 1}, "[[1, 1]]": {"1": 2}}}}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "staircase", "k": 2}},
    {"family": "odometer-io", "params": {"a": "pow2"},
     "sub": {"kind": "vertex", "rule": "constant", "vertex": 1}},
    {"family": "binfty", "sub": {"kind": "vertex", "rule": "explicit", "levels": {"1": [1, 2]}}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "pascal", "k": 2}},
    {"family": "binfty", "sub": {"kind": "edge", "rule": "explicit", "seed": [1],
                                 "retained": {"2": {"1": {"1": 1}}}}},
]

# small integers only, so that no example builds a huge level
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-3, 40)
    | st.sampled_from(["", "x", "1", "pow2", "[1", "[[1, 1]]", "staircase:2", "vertex",
                       "edge", "explicit", "constant", "pascal", "binfty"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["0", "1", "2", "k", "a", "x", "[[1, 1]]", "kind", "rule", "bound"]),
        inner, max_size=3),
    max_leaves=6)


def _field_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _field_paths(value, prefix + (key,))


def _with_field(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _with_field(obj[path[0]], path[1:], value)
    return out


@st.composite
def _fuzzed_specs(draw):
    spec = draw(st.sampled_from(_SPEC_TEMPLATES))
    for _ in range(draw(st.integers(1, 2))):
        spec = _with_field(spec, draw(st.sampled_from(list(_field_paths(spec)))), draw(_JSON))
    return spec


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_fuzzed_specs())
def test_any_spec_file_exits_with_a_documented_code(spec, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as info:
        main(["heights", "--spec", str(path), "--level", "1", "--window", "2"])
    assert info.value.code in (0, 1, 2)


def test_an_explicit_edge_subdiagram_can_come_from_a_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "binfty", "sub": {
        "kind": "edge", "rule": "explicit", "seed": [1],
        "retained": {"2": {"1": {"1": 1}, "2": {"1": 1}}}}}))
    data = run_json("heights", "--spec", str(path), "--level", "2")
    assert data["heights"] == {"1": "1", "2": "1"}


def test_an_explicit_edge_spec_asked_far_past_its_rows_names_the_first_missing_level(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "binfty", "sub": {
        "kind": "edge", "rule": "explicit", "seed": [1],
        "retained": {"2": {"1": {"1": 1}, "2": {"1": 1}}}}}))
    for _ in range(2):  # refused alike on every call
        with pytest.raises(SystemExit) as info:
            main(["heights", "--spec", str(path), "--level", "5000"])
        assert info.value.code == 2
        assert capsys.readouterr().err == (
            "truncation-incomplete: no retained rows declared at level 3 (missing: [[3, null]])\n")


# (a command line, the text option fuzzed on it, a valid JSON value to mutate or None)
_PATH = {"start": 1, "edges": [[1, 2, 1]], "tail": {"kind": "vertical", "vertex": 2}}
_TEXT_OPTIONS = [
    (["heights", "--family", "pascal-n", "--level", "2"], "--vertex", [[1, 1], [2, 1]]),
    (["stochastic", "--family", "pascal-n", "--level", "2"], "--vertex", [[1, 2]]),
    (["product", "--family", "pascal-n", "--level", "1", "--m", "1"], "--vertex", [[1, 1], [2, 1]]),
    (["limits", "--family", "pascal-n", "--level", "1", "--rule", "constant", "--m-max", "3"],
     "--vertex", [[1, 2]]),
    (["measure", "--measure", "pascal-mu", "--d", "1/2,1/2", "--level", "2"], "--vertex", [[1, 2]]),
    (["vershik", "--family", "binfty"], "--path", _PATH),
    (["classify", "--family", "binfty"], "--path", _PATH),
    (["orbit", "--family", "binfty", "--steps", "3"], "--path", _PATH),
    (["classify"], "--descriptor",
     {"side": "max", "positions": [1], "values": [1], "position_tail": [3, 2], "value_tail": 1}),
    (["heights", "--family", "binfty", "--level", "2", "--window", "2"], "--sub", None),
    (["heights", "--family", "odometer-io", "--level", "2", "--window", "2"], "--a", [2, 3]),
    (["measure", "--measure", "pascal-mu", "--level", "2", "--window", "2"], "--d", None),
    (["limits", "--family", "pascal-n", "--level", "1", "--rule", "pascal-ray", "--m-max", "3"],
     "--d", None),
    (["sample", "--depth", "3", "--count", "4", "--seed", "1"], "--d", None),
    (["measure", "--measure", "binfty-mu", "--level", "2", "--window", "2"], "--a", None),
    (["monotone", "--terms", "4", "--orders", "2"], "--a", None),
    (["extension", "--case", "odometer-column", "--n-max", "4"], "--a", [2, 3]),
    (["extension", "--case", "nu-a-staircase", "--n-max", "4"], "--a", None),
]

# short text: no number above 99999, so that no example builds a huge row
_TEXT = (st.text(alphabet="0123456789-/.,:[]{}\" ", max_size=5)
         | st.sampled_from(["pow2", "staircase:2", "pascal-edge:1", "constant:1", "true", "null",
                            "1/2,1/2", "2,3", "[[1,1]]", "1e3", "nan"])
         | _JSON.map(json.dumps))


@st.composite
def _fuzzed_options(draw):
    argv, option, template = draw(st.sampled_from(_TEXT_OPTIONS))
    if template is not None and draw(st.booleans()):
        field = draw(st.sampled_from(list(_field_paths(template))))
        return argv + [option, json.dumps(_with_field(template, field, draw(_JSON)))]
    return argv + [option, draw(_TEXT)]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzzed_options())
def test_any_option_text_exits_with_a_documented_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("rows, missing", [
    ({"1": {"2": {"1": 1}, "3": {"1": 1}}, "2": {"4": {"2": 1, "3": 1}}},
     "vertex 5 at level 2 (missing: [[2, 5]])"),
    ({"1": {"2": {"1": 1}}, "2": {"4": {"2": 1, "3": 1}, "5": {"3": 2}}},
     "vertex 3 at level 1 (missing: [[1, 3]])"),
], ids=["target-row", "source-row"])
def test_a_custom_spec_whose_rows_run_out_is_truncation_incomplete_for_stochastic(
        rows, missing, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "custom", "params": {
        "levels": {"0": [1], "1": [2, 3], "2": [4, 5]}, "rows": rows}}))
    with pytest.raises(SystemExit) as info:
        main(["stochastic", "--spec", str(path), "--level", "2"])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "truncation-incomplete: no incidence row declared for %s\n" % missing)


def test_an_orbit_that_runs_out_of_prefix_names_the_level_it_needs(capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--family", "odometer-io", "--a", "2", "--sub", "constant:1", "--order", "left-to-right",
              "--steps", "32", "--path", json.dumps({"start": 0, "edges": [[1, 1, 1]] * 5})])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "truncation-incomplete: step 31: every specified edge is maximal; extend the prefix beyond "
        'level 5 (missing: [["prefix-level", 6]])\n')


def test_a_limit_that_does_not_converge_names_no_missing_data(capsys):
    with pytest.raises(SystemExit) as info:
        main(["limits", "--family", "pascal-n", "--level", "1", "--rule", "pascal-ray", "--d", "1/2,1/2",
              "--m-max", "10"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("truncation-incomplete: no convergence within 10 steps (last distance ")
    assert err.endswith("); raise --m-max or loosen --tol\n")


@pytest.mark.parametrize("sub", ["staircase:x", "pascal-edge:1.5", "constant:x"])
def test_a_malformed_subdiagram_shorthand_is_a_domain_error(sub, capsys):
    assert_domain_error(["heights", "--family", "binfty", "--sub", sub, "--level", "2"], capsys)


@pytest.mark.parametrize("argv, option", [
    (["heights", "--family", "binfty", "--k", "3", "--level", "2", "--window", "2"], "--k"),
    (["heights", "--family", "pascal-n", "--a", "3", "--level", "1", "--window", "2"], "--a"),
    (["orbit", "--family", "odometer-io", "--a", "2", "--k", "2", "--steps", "1",
      "--path", '{"start": 0, "edges": [[1, 1, 1]]}'], "--k"),
    (["heights", "--family", "bounded-finite", "--k", "1", "--a", "2", "--level", "1"], "--a"),
], ids=["binfty-k", "pascal-n-a", "odometer-k", "bounded-a"])
def test_a_diagram_option_the_family_does_not_read_is_refused_by_name(argv, option, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: --family %s does not read %s\n" % (argv[2], option)


@pytest.mark.parametrize("argv, option", [
    (["heights", "--family", "pascal-k", "--level", "1"], "--k"),
    (["heights", "--family", "odometer-io", "--level", "1", "--window", "2"], "--a (entry rule)"),
])
def test_a_diagram_option_the_family_needs_is_asked_for_by_name(argv, option, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: --family %s needs %s\n" % (argv[2], option)


def test_the_binfty_closed_form_reads_its_slope_from_a_without_a_diagram():
    # --a is the slope here, and --family is not given, so no diagram is built to refuse it
    assert run("limits", "--closed-form", "binfty", "--a", "1").exit_code == 0


def test_stepping_past_a_provably_minimal_path_is_a_domain_error():
    result = run("vershik", "--family", "binfty", "--order", "left-to-right",
                 "--inverse", "--path",
                 '{"start": 1, "edges": [[1,1,1]], '
                 '"tail": {"kind": "vertical", "vertex": 1}}')
    assert result.exit_code == 1


@pytest.mark.parametrize("argv", [
    ["invariance", "--measure", "binfty-mu", "--a", "1/2", "--levels", "0"],
    ["invariance", "--measure", "pascal-mu", "--d", "1/2,1/2", "--levels", "-1"],
    ["probability", "--measure", "binfty-mu", "--a", "1/2", "--levels", "-2"],
    ["extension", "--case", "nu-p-pascal-edge", "--p", "1/2", "--n-max", "0"],
    ["extension", "--case", "mu-a-pascal-edge", "--a", "1/2", "--n-max", "0"],
    ["invariance", "--measure", "binfty-mu", "--a", "1/2", "--levels", "2", "--window", "0"],
    ["measure", "--measure", "binfty-mu", "--a", "1/2", "--level", "2", "--window", "0"],
    ["measure", "--measure", "binfty-mu", "--a", "1/2", "--level", "2", "--window", "-3",
     "--vertex", "3"],
    ["monotone", "--a", "1/2", "--terms", "0"],
    ["monotone", "--a", "1/2", "--orders", "-1"],
    ["monotone", "--a", "1/2", "--terms", "2", "--orders", "5"],
    ["heights", "--family", "binfty", "--level", "2", "--window", "0"],
    ["stochastic", "--family", "binfty", "--level", "2", "--window", "0"],
    ["continuity", "--family", "binfty", "--level", "2", "--window", "0"],
    ["limits", "--closed-form", "binfty", "--a", "1", "--level", "-3"],
    ["limits", "--closed-form", "pascal", "--d", "1/3,2/3", "--level", "-1"],
    ["limits", "--closed-form", "binfty", "--a", "1", "--window", "0"],
    ["limits", "--family", "binfty", "--rule", "ray", "--slope", "1", "--m-max", "0"],
], ids=["invariance-levels-0", "invariance-levels-negative", "probability-levels-negative",
        "extension-n-max-0", "restricted-mass-n-max-0", "invariance-window-0",
        "measure-window-0", "measure-window-negative", "monotone-terms-0",
        "monotone-orders-negative", "monotone-orders-beyond-terms", "heights-window-0",
        "stochastic-window-0", "continuity-window-0", "binfty-closed-form-level-negative",
        "pascal-closed-form-level-negative", "binfty-closed-form-window-0", "limits-m-max-0"])
def test_an_empty_range_is_a_domain_error_not_a_vacuous_verdict(argv, capsys):
    assert_domain_error(argv, capsys)


def test_success_exits_zero_through_the_console_entry_point(tmp_path):
    out = tmp_path / "h.json"
    with pytest.raises(SystemExit) as info:
        main(["heights", "--family", "binfty", "--level", "2",
              "--window", "3", "--out", str(out)])
    assert info.value.code == 0
    assert json.loads(out.read_text())["heights"]["3"] == "3"


def test_out_into_a_missing_directory_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert_domain_error(["heights", "--family", "binfty", "--level", "2",
                         "--window", "2", "--out", str(out)], capsys)


def test_version_is_read_from_the_package_not_installed_metadata():
    result = run("--version")
    assert result.exit_code == 0, result.output
    assert result.output == "bratteli, version 0.1.0\n"


# ---------------------------------------------------------------------------
# determinism and formats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, levels, bound", [("pascal-n", range(0, 6), 4), ("pascal-z", range(0, 5), 2)])
def test_vertex_keys_are_the_per_pair_format_joined(family, levels, bound):
    d = build_diagram({"family": family})
    keys = [v for n in levels for v in d.level_vertices(n, bound)]
    assert () in keys and any(c < 0 for v in keys for c, _ in v) is d.signed
    for v in keys:
        assert _vkey(v) == "[%s]" % ",".join("[%d,%d]" % p for p in v)
    assert [_vkey(v) for v in (0, 7, -3)] == ["0", "7", "-3"]


def test_identical_invocations_produce_identical_bytes():
    args = ("stochastic", "--family", "pascal-n", "--level", "3",
            "--window", "2")
    assert run(*args).output == run(*args).output
    args = ("sample", "--d", "3/10,7/10", "--depth", "20", "--count", "50",
            "--seed", "99")
    assert run(*args).output == run(*args).output


STOCHASTIC_CASES = [
    pytest.param({"family": "pascal-n"}, ["--level", "4", "--window", "4"], id="pascal-n"),
    pytest.param({"family": "pascal-z"}, ["--level", "3", "--window", "1"], id="pascal-z"),
    pytest.param({"family": "binfty"}, ["--level", "6", "--window", "20"], id="binfty"),
    pytest.param({"family": "bounded-finite", "params": {"k": 2}}, ["--level", "3"], id="bounded-finite"),
    pytest.param({"family": "odometer-io", "params": {"a": "pow2"}}, ["--level", "4", "--window", "6"],
                 id="odometer-io"),
    pytest.param({"family": "binfty", "sub": {"kind": "vertex", "rule": "staircase", "k": 2}},
                 ["--level", "5"], id="staircase"),
    pytest.param({"family": "custom", "params": {
        "levels": {"0": [1], "1": [1, 2], "2": [1, 2]},
        "rows": {"1": {"1": {"1": 2}, "2": {"1": 1}}, "2": {"1": {"1": 1, "2": 3}, "2": {"2": 2}}},
    }}, ["--level", "2"], id="custom"),
    pytest.param({"family": "pascal-n"}, ["--level", "5", "--vertex", "[[1,2],[3,3]]"], id="pascal-n-vertex"),
]


@pytest.mark.parametrize("spec, args", STOCHASTIC_CASES)
def test_stochastic_output_equals_that_of_the_fraction_rows(spec, args, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    opts = dict(zip(args[::2], args[1::2]))
    diagram = build_diagram(spec)
    rows = stochastic_rows(diagram, int(opts["--level"]),
                           [vertex_from_text(opts["--vertex"])] if "--vertex" in opts else None,
                           int(opts["--window"]) if "--window" in opts else None)
    payload = {
        "family": diagram.family,
        "level": int(opts["--level"]),
        "rows": {_vkey(v): {_vkey(w): _fr(f) for w, f in row.items()} for v, row in rows.items()},
        "row_sums_one": all(sum(row.values()) == 1 for row in rows.values()),
    }
    result = run("stochastic", "--spec", str(path), *args)
    assert result.exit_code == 0, result.output
    assert result.output == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["row_sums_one"] is True
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "source", "weight"])
    writer.writerows([_vkey(v), _vkey(w), _fr(f)]
                     for v, row in rows.items() for w, f in sorted(row.items(), key=_by_key_repr))
    result = run("stochastic", "--spec", str(path), *args, "--format", "csv")
    assert result.exit_code == 0, result.output
    assert result.output == buf.getvalue()


# STOCHASTIC_CASES plus the closed forms and the column-rule odometer chain they leave out
PATH_COUNT_CASES = STOCHASTIC_CASES + [
    pytest.param({"family": "pascal-k", "params": {"k": 3}}, ["--level", "5"], id="pascal-k"),
    pytest.param({"family": "bounded-generalized", "params": {"k": 1}}, ["--level", "3", "--window", "3"],
                 id="bounded-generalized"),
    pytest.param({"family": "odometer-io", "params": {"a": 3}}, ["--level", "4", "--window", "5"],
                 id="odometer-stationary"),
    pytest.param({"family": "odometer-io", "params": {"a": 2, "columns": {"1": 3}}},
                 ["--level", "4", "--window", "5"], id="odometer-columns"),
    pytest.param({"family": "binfty", "sub": {"kind": "edge", "rule": "pascal", "k": 2}}, ["--level", "5"],
                 id="pascal-edge"),
]


def _path_count_rows(spec, args):
    """The command's diagram, level and ``oracles.path_count_rows`` over its targets."""
    opts = dict(zip(args[::2], args[1::2]))
    d, level = build_diagram(spec), int(opts["--level"])
    targets = ([vertex_from_text(opts["--vertex"])] if "--vertex" in opts
               else vertex_window(d, level, int(opts["--window"]) if "--window" in opts else None))
    return d, level, oracles.path_count_rows(d, level, targets)


@pytest.mark.parametrize("spec, args", PATH_COUNT_CASES)
def test_stochastic_rows_are_ratios_of_path_counts(spec, args, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    _, _, ref = _path_count_rows(spec, args)
    data = run_json("stochastic", "--spec", str(path), *args)
    assert data["rows"] == {_vkey(v): {_vkey(w): str(Fraction(x, hv)) for w, x in weights.items()}
                            for v, (weights, hv) in ref.items()}
    assert data["row_sums_one"] is True


@pytest.mark.parametrize("spec, args", [c for c in PATH_COUNT_CASES if "--vertex" not in c.values[1]])
def test_continuity_norms_are_weighted_ratios_of_path_counts(spec, args, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    d, level, ref = _path_count_rows(spec, args)
    data = run_json("continuity", "--spec", str(path), *args)
    assert data["norms"] == {
        _vkey(v): str(sum((Fraction(x, hv * 2 ** d.rank(level - 1, w)) for w, x in weights.items()),
                          Fraction(0)))
        for v, (weights, hv) in ref.items()}


def test_sampling_output_is_seeded_and_carries_float_precision():
    data = run_json("sample", "--d", "3/10,7/10", "--depth", "20",
                    "--count", "50", "--seed", "99")
    other = run_json("sample", "--d", "3/10,7/10", "--depth", "20",
                     "--count", "50", "--seed", "100")
    assert data["precision_bits"] == 53
    assert data["expected"] == {"1": "3/10", "2": "7/10"}
    assert sum(Fraction(x) for x in data["means"].values()) == 1
    assert data["means"] != other["means"]


def test_csv_output_has_a_header_and_exact_ratios():
    result = run("bk-decay", "--k", "1", "--m-max", "4", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "m,ratio"
    assert lines[1] == "1,1/3"
    assert lines[4] == "4,19/81"


def test_commands_without_a_tabular_form_refuse_csv():
    result = run("vershik", "--family", "binfty", "--order", "left-to-right",
                 "--path", '{"start": 1, "edges": [[1,2,1]], '
                 '"tail": {"kind": "vertical", "vertex": 2}}',
                 "--format", "csv")
    assert result.exit_code == 1


def test_csv_output_refuses_precision_instead_of_dropping_it():
    for args in (("bk-decay", "--k", "2", "--m-max", "3"),
                 ("measure", "--measure", "pascal-mu", "--d", "1/3,2/3", "--level", "1")):
        assert run(*args, "--format", "csv").exit_code == 0
        result = run(*args, "--precision", "8", "--format", "csv")
        assert result.exit_code == 1
        assert result.output.startswith("error:") and "--precision" in result.output


def test_sample_keeps_its_own_precision_under_csv():
    args = ("sample", "--d", "3/10,7/10", "--depth", "20", "--count", "50", "--seed", "99")
    plain = run(*args, "--format", "csv")
    assert plain.exit_code == 0
    assert run(*args, "--precision", "8", "--format", "csv").output == plain.output


def test_precision_flag_appends_exact_decimal_approximations():
    data = run_json("measure", "--measure", "pascal-mu", "--d", "1/3,2/3",
                    "--level", "1", "--precision", "10")
    assert data["precision_bits"] == 10
    # 10 bits -> 4 decimal digits; 1/3 rounds to 0.3333
    assert data["approx_cylinder_masses"]["[[1,1]]"] == "0.3333"
    assert data["approx_cylinder_masses"]["[[2,1]]"] == "0.6667"


# ---------------------------------------------------------------------------
# per-command behavior
# ---------------------------------------------------------------------------

def test_bk_decay_ratios_are_the_oracle_central_coefficients_over_the_width_powers():
    data = run_json("bk-decay", "--k", "4", "--m-max", "40")
    powers = list(oracles.step_poly_powers(4, 40))
    assert data["ratios"] == {str(m): _fr(Fraction(powers[m][0], 9 ** m)) for m in range(1, 41)}


@pytest.mark.parametrize("v", [0, 1, -7, 45, 89, -90])
def test_a_deep_bounded_finite_height_agrees_with_its_closed_form(v):
    data = run_json("heights", "--family", "bounded-finite", "--k", "3", "--level", "30",
                    "--vertex", str(v))
    assert data["closed_form_agrees"] is True
    assert data["heights"] == {str(v): str(oracles.step_poly_from_scratch(3, 30)[v])}


def test_a_repeated_coordinate_is_refused_by_name(capsys):
    assert_domain_error(["measure", "--measure", "pascal-mu", "--d", "1/2,1/2", "--coords", "1,1",
                         "--level", "1"], capsys)
    with pytest.raises(SystemExit):
        main(["invariance", "--measure", "pascal-mu", "--d", "1/4,1/4,1/2", "--coords", "2,5,2",
              "--levels", "2"])
    assert capsys.readouterr().err == "error: coordinate 2 is repeated in --coords\n"


def test_product_rows_are_normalized():
    data = run_json("product", "--family", "pascal-n", "--level", "1",
                    "--m", "2", "--vertex", "[[1,2],[2,1]]")
    assert data["row_sum"] == "1"
    assert data["row"] == {"[[1,1]]": "2/3", "[[2,1]]": "1/3"}


def test_limit_closed_forms_match_the_known_vectors():
    data = run_json("limits", "--closed-form", "binfty", "--a", "1",
                    "--window", "5")
    assert data["vector"] == {str(j): "1/%d" % 2 ** j for j in range(1, 6)}
    data = run_json("limits", "--closed-form", "pascal", "--d", "1/2,1/2",
                    "--level", "2")
    assert sum(Fraction(x) for x in data["vector"].values()) == 1
    # the pascal closed form reports tower masses q_2 = H * p_2, not the iterates' limit p_2 / sum(p_2)
    data = run_json("limits", "--closed-form", "pascal", "--d", "1/3,2/3", "--level", "2")
    assert data["vector"] == {"[[1,2]]": "1/9", "[[1,1],[2,1]]": "4/9", "[[2,2]]": "4/9"}


def test_limit_iteration_converges_at_a_loose_tolerance():
    data = run_json("limits", "--family", "pascal-n", "--level", "1",
                    "--rule", "pascal-ray", "--d", "1/3,2/3",
                    "--tol", "1/100", "--m-max", "80")
    assert data["converged"] is True
    assert sum(Fraction(x) for x in data["vector"].values()) == 1


def test_probability_masses_are_exactly_one_per_level():
    data = run_json("probability", "--measure", "staircase-nu", "--a", "1/2",
                    "--k", "2", "--levels", "5")
    assert data["all_one"] is True
    assert set(data["level_masses"].values()) == {"1"}


def test_monotone_reports_no_failure_for_a_staircase_sequence():
    data = run_json("monotone", "--a", "1/2", "--k", "2", "--orders", "4",
                    "--terms", "10")
    assert data["completely_monotone"] is True
    assert data["first_failure"] is None
    assert data["sequence"]["2"] == "2/9"


def test_vershik_step_moves_a_diagonal_to_the_vertical():
    data = run_json("vershik", "--family", "binfty",
                    "--order", "left-to-right", "--path",
                    '{"start": 1, "edges": [[1,2,1]], '
                    '"tail": {"kind": "vertical", "vertex": 2}}')
    assert data["output"]["edges"] == [[2, 2, 1]]
    assert data["output"]["tail"]["kind"] == "vertical"


def test_classify_names_the_class_and_the_step_candidates():
    # the lowest index is a one-path tower forever: extremal on both sides
    data = run_json("classify", "--family", "binfty",
                    "--order", "left-to-right", "--path",
                    '{"start": 1, "edges": [[1,1,1]], '
                    '"tail": {"kind": "vertical", "vertex": 1}}')
    assert data["class"] == "Special"
    assert data["candidates"] == [data["path"]]
    data = run_json("classify", "--family", "binfty",
                    "--order", "left-to-right", "--path",
                    '{"start": 1, "edges": [[2,2,1]], '
                    '"tail": {"kind": "vertical", "vertex": 2}}')
    assert data["class"] == "MaxC"
    assert data["candidates"][0]["tail"]["vertex"] == 1
    data = run_json("classify", "--descriptor",
                    '{"side": "max", "positions": [0, 2], '
                    '"values": [3, null]}', "--domain", "z")
    assert data["class"] == "MaxC"
    assert data["mirror"]["positions"] == [0, -2]
    assert data["mirror_clipped"] is False
    assert len(data["candidates"]) == 1


def test_orbit_walks_a_tower_and_tallies_visits():
    data = run_json("orbit", "--family", "binfty", "--sub", "staircase:2",
                    "--order", "left-to-right", "--path",
                    '{"start": 1, "edges": [[2,2,1],[2,2,1],[2,3,1]]}',
                    "--steps", "2", "--visit-level", "3")
    assert data["paths_seen"] == 3
    assert sum(data["visits"].values()) == 3


@pytest.mark.parametrize("command", [["vershik"], ["classify"], ["orbit", "--steps", "3"]])
@pytest.mark.parametrize("family, order, path, message", [
    ("binfty", "natural", {"start": 1, "edges": [], "tail": {"kind": "vertical", "vertex": 3}},
     "the natural order is defined on multinomial diagrams"),
    ("binfty", "natural", {"start": 1, "edges": [[3, 3, 1]], "tail": {"kind": "vertical", "vertex": 3}},
     "the natural order is defined on multinomial diagrams"),
    ("pascal-n", "cyclic", {"start": 0, "edges": [], "tail": {"kind": "concentrating", "coordinate": 1}},
     "the cyclic order needs simple integer-indexed edges"),
    ("pascal-n", "cyclic", {"start": 0, "edges": [[[], [[1, 1]], 1]],
                            "tail": {"kind": "concentrating", "coordinate": 1}},
     "the cyclic order needs simple integer-indexed edges"),
    ("odometer-io", "cyclic", {"start": 0, "edges": [], "tail": {"kind": "vertical", "vertex": 1}},
     "the cyclic order needs simple integer-indexed edges"),
    ("odometer-io", "cyclic", {"start": 0, "edges": [[1, 1, 2]], "tail": {"kind": "vertical", "vertex": 1}},
     "the cyclic order needs simple integer-indexed edges"),
], ids=["natural-on-binfty-empty", "natural-on-binfty-prefix", "cyclic-on-pascal-empty", "cyclic-on-pascal-prefix",
        "cyclic-on-odometer-column-empty", "cyclic-on-odometer-column-prefix"])
def test_an_order_on_a_diagram_it_is_not_defined_on_is_refused_before_any_step(
        command, family, order, path, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(command + ["--family", family, "--order", order, "--path", json.dumps(path)]
             + (["--a", "2", "--sub", "constant:1"] if family == "odometer-io" else []))
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("path, code, message", [
    ('{"start": 1, "edges": [[1,2,1],[2,3,1]]}', 1, "error: path covers levels 1..3, not 9"),
    ('{"start": 1, "edges": [[2,2,1]]}', 1, "error: path covers levels 1..2, not 9"),
], ids=["steps-succeed", "a-step-fails"])
def test_an_orbit_refuses_an_uncovered_visit_level_before_its_steps(path, code, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["orbit", "--family", "binfty", "--order", "left-to-right", "--steps", "2",
              "--path", path, "--visit-level", "9"])
    assert info.value.code == code
    assert capsys.readouterr().err.startswith(message)


def test_continuity_norms_shrink_with_the_target_index():
    data = run_json("continuity", "--family", "binfty", "--level", "2",
                    "--window", "6")
    norms = [Fraction(data["norms"][str(i)]) for i in range(1, 7)]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert all(norms[i - 1] <= Fraction(2, i) for i in range(1, 7))


def test_diagram_specs_can_come_from_a_json_file(tmp_path):
    spec = tmp_path / "diagram.json"
    spec.write_text(json.dumps({
        "family": "binfty",
        "sub": {"kind": "vertex", "rule": "staircase", "k": 2},
    }))
    data = run_json("heights", "--spec", str(spec), "--level", "3")
    assert data["heights"] == {"2": "1", "3": "2", "4": "2"}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("heights", "--spec", str(bad), "--level", "3").exit_code == 1


def test_odometer_rules_accept_lists_and_pow2():
    data = run_json("heights", "--family", "odometer-io", "--a", "2,3,4",
                    "--level", "3", "--window", "1")
    assert data["heights"]["1"] == "60"  # (2+1)(3+1)(4+1)
    data = run_json("heights", "--family", "odometer-io", "--a", "pow2",
                    "--level", "3", "--window", "1")
    assert data["heights"]["1"] == "135"  # entries 2, 4, 8 -> (2+1)(4+1)(8+1)
