"""Source hygiene: every module uses every name it imports, and every
module-level private name is read somewhere in the package.

``__init__.py`` is skipped by the import check because its imports are the
package's re-exports.  A name counts as used when it appears as an
``ast.Name`` anywhere in the module, which covers the base of an attribute
access such as ``json.dumps``.  ``from __future__`` imports are compiler
directives, not names, and are skipped too.

A private name (one leading underscore) defined at module level by a
``def``, ``class`` or assignment counts as read when some module of the
package loads it as a name or as an attribute.

JSON text is read in one place: ``core.read_json``.  No other module may
call ``json.loads``, so a malformed input always becomes a ``DiagramError``.

Every layer callable the benchmark's tracer (``perfbench/shim.py``) hooks
must exist under its listed name: the tracer looks each one up unguarded, so
a renamed function would otherwise crash traced benchmark runs.  For a
``Class.method`` entry some class of the hierarchy below ``Class`` must
define the method, the lookup the tracer makes, since a renamed method would
otherwise trace nothing without a word.  ``KNOWN_STALE`` lists the entries
that already trace nothing.  The test reads ``TRACED`` from the shim's source
without importing it.

Every entry of the mutation check (``tests/mutants.py``) must still apply:
its old text occurs exactly once in its module.  The check itself runs for
minutes, outside the suite; this part of it takes milliseconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bratteli"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


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


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _loaded_names(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_the_scan_flags_an_unread_private_name():
    tree = ast.parse("_A = 1\n_B = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\nprint(_f())\n")
    assert set(_private_definitions(tree)) - _loaded_names(tree) == {"_B", "_C"}


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda p: p.name)
def test_every_private_module_level_name_is_read(module):
    loaded = set()
    for other in ALL_MODULES:
        loaded |= _loaded_names(ast.parse(other.read_text(), filename=str(other)))
    tree = ast.parse(module.read_text(), filename=str(module))
    unread = sorted(set(_private_definitions(tree)) - loaded)
    assert unread == [], "%s defines %s but nothing in the package reads them" % (module.name, unread)


def _reads_json_text(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "loads" and \
                isinstance(node.value, ast.Name) and node.value.id == "json":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "json" and \
                any(alias.name == "loads" for alias in node.names):
            return True
    return False


def test_only_core_reads_json_text():
    assert _reads_json_text(ast.parse("import json\njson.loads('1')\n"))
    assert _reads_json_text(ast.parse("from json import loads\n"))
    readers = [p.name for p in ALL_MODULES if _reads_json_text(ast.parse(p.read_text()))]
    assert readers == ["core.py"]


def _traced_entries():
    tree = ast.parse((ROOT / "perfbench" / "shim.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/shim.py defines no TRACED tuple")


# method entries that no class defines, so the tracer hooks nothing for them: ROADMAP item 9
# re-points the benchmark's stale hooks
KNOWN_STALE = {("core", "Diagram.cone_levels")}


def _hierarchy(cls):
    """``cls`` and every class below it, as the tracer walks them."""
    out, todo = [], [cls]
    while todo:
        out.append(todo.pop())
        todo.extend(out[-1].__subclasses__())
    return out


@pytest.mark.parametrize("module, attr, span", _traced_entries(), ids=lambda x: x)
def test_every_traced_callable_exists(module, attr, span):
    importlib.import_module("bratteli.cli")  # every module, so every subclass is defined
    mod = importlib.import_module("bratteli." + module)
    if "." in attr:  # a method entry: the tracer hooks whichever classes define it
        owner, method = attr.split(".")
        cls = getattr(mod, owner, None)
        assert isinstance(cls, type), "bratteli.%s has no class %s" % (module, owner)
        defined = any(inspect.isfunction(c.__dict__.get(method)) for c in _hierarchy(cls))
        if (module, attr) in KNOWN_STALE:
            assert not defined, "%s.%s is defined now: drop it from KNOWN_STALE" % (module, attr)
        else:
            assert defined, "no class at or below %s.%s defines %s" % (module, owner, method)
    else:
        assert callable(getattr(mod, attr, None)), "bratteli.%s has no function %s" % (module, attr)


def test_every_mutation_check_entry_still_applies():
    assert mutants.stale_entries() == []
