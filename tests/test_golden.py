"""Golden corpora: CLI invocations whose output is pinned byte for byte.

``golden_readme.json`` holds, for each of the fifteen invocations in the
README's CLI section, its argv, exit code and exact stdout, recorded from the
program before the per-diagram height memo replaced the hand-rolled height
caches.  ``golden_orbit.json`` holds six long ``orbit`` invocations, one per
family and edge order of the adic-orbit benchmark workload (odometer column
left-to-right and alternating, binfty left-to-right and cyclic, the
staircase, pascal-n natural), recorded while every adic step still
re-validated its whole path.  ``golden_csv.json`` holds the ``--format csv``
output of every command with a CSV form, the no-CSV error of ``extension``,
converging ``limits`` iterations (their distances and mass sums reach
stdout) and ``--precision 64`` runs of ``limits`` and ``continuity``,
recorded while the CLI still built CSV rows on every run and ``limit_along``
still carried its iterates as ``Fraction`` vectors.  ``golden_cli.json`` holds
the ``--help`` text of the group and of every subcommand, ``sample`` with
``--precision 0`` and ``--precision 64`` (both exit 0 and keep its 53-bit
float precision), ``extension --precision 64`` and the no-CSV error of
``orbit``, recorded while every command still parsed its own options and
called the emitter itself.  Its ``--help`` entries were re-recorded, on
CPython 3.11.7, when the parser moved from click to the standard library's
argparse: their layout changed, every option's help sentence did not.  The
help text is argparse's, so it may shift with the Python version; it runs
with ``COLUMNS=80`` so that it does not depend on the caller's terminal.  ``golden_series.json`` holds four
``extension --case nu-a-staircase`` runs (a = 1/2, 1, 2 and 3/5, the last with
``--precision 64``) and ``bk-decay`` for k = 1, 2, 3 in JSON and once in CSV,
recorded while every staircase term still summed over every kept vertex and
every step-polynomial power was rebuilt from {0: 1}.  It also holds four
``extension --case nu-p-pascal-edge`` runs (one with ``--precision 64``), one
``mu-a-pascal-edge`` run, and ``invariance``, ``probability`` and ``measure``
on ``binfty-mu`` and ``probability`` on ``edge-binomial``, recorded while
every cylinder-mass sum still added one ``Fraction`` at a time and every
edge-binomial term summed over every kept vertex.  Refactors must leave every entry
unchanged; an entry is re-recorded only when its output is meant to change,
and CHANGES.md says why.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clirun import invoke

from bratteli.cli import COMMANDS, _emit

CORPUS = json.loads(Path(__file__).with_name("golden_readme.json").read_text())
ORBITS = json.loads(Path(__file__).with_name("golden_orbit.json").read_text())
RENDERED = json.loads(Path(__file__).with_name("golden_csv.json").read_text())
CONVENTIONS = json.loads(Path(__file__).with_name("golden_cli.json").read_text())
SERIES = json.loads(Path(__file__).with_name("golden_series.json").read_text())


def test_corpus_covers_every_subcommand():
    assert sorted(case["argv"][0] for case in CORPUS) == sorted(COMMANDS)


def _assert_unchanged(case, **extra):
    result = invoke(case["argv"], **extra)
    assert result.exit_code == case["exit_code"]
    assert result.stdout == case["stdout"]


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case["argv"][0])
def test_readme_invocation_output_is_unchanged(case):
    _assert_unchanged(case)


def _orbit_id(case):
    argv = case["argv"]
    family = argv[argv.index("--family") + 1]
    sub = argv[argv.index("--sub") + 1] if "--sub" in argv else None
    return "-".join(filter(None, (family, sub, argv[argv.index("--order") + 1])))


def test_orbit_corpus_covers_every_order():
    assert sorted(_orbit_id(case) for case in ORBITS) == [
        "binfty-cyclic",
        "binfty-left-to-right",
        "binfty-staircase:2-left-to-right",
        "odometer-io-constant:1-alternating",
        "odometer-io-constant:1-left-to-right",
        "pascal-n-natural",
    ]


@pytest.mark.parametrize("case", ORBITS, ids=_orbit_id)
def test_long_orbit_output_is_unchanged(case):
    _assert_unchanged(case)


def test_csv_corpus_covers_every_csv_command():
    csv_commands = {case["argv"][0] for case in RENDERED if "csv" in case["argv"]}
    assert csv_commands == set(COMMANDS) - {"classify", "orbit", "vershik"}


def _rendered_id(case):
    argv = case["argv"]
    picked = [a for a in argv[1:] if not a.startswith("--")]
    return "-".join([argv[0]] + picked)


@pytest.mark.parametrize("case", RENDERED, ids=_rendered_id)
def test_csv_and_precision_output_is_unchanged(case):
    _assert_unchanged(case)


def test_cli_corpus_covers_the_help_of_every_subcommand():
    helped = [case["argv"][:-1] for case in CONVENTIONS if case["argv"][-1] == "--help"]
    assert sorted(helped) == [[]] + sorted([name] for name in COMMANDS)


@pytest.mark.parametrize("case", CONVENTIONS, ids=_rendered_id)
def test_help_precision_and_format_output_is_unchanged(case):
    _assert_unchanged(case, env={"COLUMNS": "80"})


@pytest.mark.parametrize("case", SERIES, ids=_rendered_id)
def test_series_output_is_unchanged(case):
    _assert_unchanged(case)


# -- the JSON renderer ----------------------------------------------------------

JSON_OUTPUTS = [case for corpus in (CORPUS, ORBITS, RENDERED, CONVENTIONS, SERIES)
                for case in corpus if case["stdout"].startswith("{")]


def _emitted(payload, tmp_path, capsys):
    """What ``_emit`` prints for ``payload``, after checking that ``--out`` gets the same bytes."""
    _emit(None, "json", None, payload)
    text = capsys.readouterr().out
    out = tmp_path / "payload.json"
    _emit(str(out), "json", None, payload)
    assert out.read_bytes() == text.encode("utf-8")
    return text


@pytest.mark.parametrize("case", JSON_OUTPUTS, ids=_rendered_id)
def test_every_golden_json_payload_renders_to_its_stored_bytes(case, tmp_path, capsys):
    assert _emitted(json.loads(case["stdout"]), tmp_path, capsys) == case["stdout"]


_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2 ** 64, 2 ** 300)
            | st.floats() | st.text(max_size=6))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.dictionaries(st.integers(-9, 9), inner, max_size=3)),
    max_leaves=24)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(st.text(max_size=6), _PAYLOADS, max_size=5))
def test_any_payload_renders_as_json_dumps_does(payload, tmp_path, capsys):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert _emitted(payload, tmp_path, capsys) == expected
