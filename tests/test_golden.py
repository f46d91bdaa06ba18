"""Golden corpus: the README's CLI invocations, byte for byte.

``golden_readme.json`` holds, for each of the fifteen invocations in the
README's CLI section, its argv, exit code and exact stdout, recorded from the
program before the per-diagram height memo replaced the hand-rolled height
caches.  Refactors must leave every entry unchanged; an entry is re-recorded
only when its output is meant to change, and CHANGES.md says why.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from bratteli.cli import cli

CORPUS = json.loads(Path(__file__).with_name("golden_readme.json").read_text())


def test_corpus_covers_every_subcommand():
    assert sorted(case["argv"][0] for case in CORPUS) == sorted(cli.commands)


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: case["argv"][0])
def test_readme_invocation_output_is_unchanged(case):
    result = CliRunner().invoke(cli, case["argv"])
    assert result.exit_code == case["exit_code"]
    assert result.stdout_bytes == case["stdout"].encode("utf-8")
