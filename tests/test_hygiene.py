"""Source hygiene: every module uses every name it imports.

``__init__.py`` is skipped because its imports are the package's re-exports.
A name counts as used when it appears as an ``ast.Name`` anywhere in the
module, which covers the base of an attribute access such as ``json.dumps``.
``from __future__`` imports are compiler directives, not names, and are
skipped too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bratteli"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_scan_covers_the_modules():
    assert {p.stem for p in MODULES} >= {"core", "linalg", "vershik", "cli"}


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("import json\nfrom math import comb, floor\nprint(json.dumps(comb(4, 2)))\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"floor"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    assert unused == [], "%s imports %s without using them" % (module.name, unused)
