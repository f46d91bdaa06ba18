"""Mutation check: every listed mutant of ``src/bratteli`` must make its test file fail.

Run with the test dependencies installed (pytest, hypothesis, sympy):

    python tests/mutants.py

Each entry of ``MUTANTS`` is one deliberate fault: a name, a module of ``src/bratteli``, the
exact old text (it must occur there exactly once), the new text, and the tests expected to fail:
a test file, or one test as ``file::name``.  The script copies ``src``, ``tests``,
``pyproject.toml`` and ``perfbench/shim.py`` (which ``tests/test_hygiene.py`` reads) into a
temporary directory, checks that each named target passes there unmutated, then applies one
mutant at a time and runs ``python -m pytest -x -q`` on its target.  A mutant whose target still
passes survives.  A hygiene mutant names its test: any mutant fails the whole of
``tests/test_hygiene.py``, whose stale-entry check no longer finds that mutant's old text.

``EQUIVALENT`` lists mutants that cannot change any result, each with its proof.  Their old text
is checked to be present, so the list stays true, but they are never run.

To add a mutant, append an entry to ``MUTANTS`` and run the script.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an entry's old text is
not found exactly once or a test file fails unmutated.  Pytest does not collect this file, since
its name does not start with ``test_``; ``tests/test_hygiene.py`` runs its stale-entry check
(``stale_entries``), so a change that invalidates an entry fails the suite too.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that hangs its tests counts as killed

VERSHIK = "vershik.py"
TEST_VERSHIK = "test_vershik.py"
CORE = "core.py"
TEST_CLI = "test_cli.py"
REUSED_DIAGRAM = TEST_VERSHIK + "::test_one_ordered_diagram_reused_gives_the_paths_fresh_ones_give"
ORBIT_END_REFEREE = TEST_VERSHIK + "::test_orbit_end_jumps_to_the_paths_and_visits_that_stepping_meets"
READ_ONCE_LIMIT = "test_limits.py::test_a_recursion_limit_reads_each_cone_row_once"

# (name, module, old text, new text, test file or test expected to fail)
MUTANTS = [
    # each order's tail rule, candidate rule and diagram check
    ("ltr-vertical-side-swapped", VERSHIK,
     '"all" if side == "max" or anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 1',
     '"all" if side == "min" or anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 1',
     TEST_VERSHIK),
    ("ltr-vertical-leftmost-is-always-1", VERSHIK,
     '"all" if side == "max" or anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 1',
     '"all" if side == "max" or anchor == 1 else 1', TEST_VERSHIK),
    ("ltr-column-slot-side-swapped", VERSHIK,
     'return "all" if (side == "min") == (tail.slot == "first") else 1',
     'return "all" if (side == "max") == (tail.slot == "first") else 1', TEST_VERSHIK),
    ("ltr-staircase-frontier-test-dropped", VERSHIK,
     ' and anchor == diagram.k + level - diagram.base_level:', ':', TEST_VERSHIK),
    ("ltr-diagonal-cap-below-its-witness", VERSHIK,
     'return "all"  # the frontier diagonal is the level\'s last edge\n            return 2',
     'return "all"  # the frontier diagonal is the level\'s last edge\n            return 1', TEST_VERSHIK),
    ("ltr-candidate-keeps-the-column-slot", VERSHIK,
     'flipped = "last" if path.tail.slot == "first" else "first"', 'flipped = path.tail.slot', TEST_VERSHIK),
    ("ltr-candidate-is-the-path-own-vertical", VERSHIK,
     'VerticalAt(diagram.level_vertices(base, 1)[0])', 'VerticalAt(path.end_vertex)', TEST_VERSHIK),
    ("alternating-vertical-all-becomes-a-cap", VERSHIK,
     'return "all" if anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 2',
     'return 2', TEST_VERSHIK),
    ("alternating-column-cap-becomes-all", VERSHIK,
     'if kind == "column-odometer":\n                return 2',
     'if kind == "column-odometer":\n                return "all"', TEST_VERSHIK),
    ("alternating-diagonal-cap-below-its-witness", VERSHIK,
     'return 4 if isinstance(tail, DiagonalFrom)', 'return 2 if isinstance(tail, DiagonalFrom)', TEST_VERSHIK),
    ("natural-max-side-strict", VERSHIK,
     '"all" if i >= max(support, default=i) else 1', '"all" if i > max(support, default=i) else 1', TEST_VERSHIK),
    ("natural-min-side-swapped", VERSHIK,
     '"all" if i <= min(support, default=i) else 1', '"all" if i >= min(support, default=i) else 1',
     TEST_VERSHIK),
    ("natural-candidate-off-by-one", VERSHIK,
     'PascalConcentrating(path.tail.coordinate))})', 'PascalConcentrating(path.tail.coordinate + 1))})',
     TEST_VERSHIK),
    ("natural-accepts-any-diagram", VERSHIK,
     'if not isinstance(diagram, PascalDiagram):\n            raise DiagramError("the natural order',
     'if False:\n            raise DiagramError("the natural order', TEST_VERSHIK),
    ("cyclic-vertical-side-swapped", VERSHIK,
     '"all" if side == "max" or anchor == 1 else 1', '"all" if side == "min" or anchor == 1 else 1',
     TEST_VERSHIK),
    ("cyclic-diagonal-side-swapped", VERSHIK,
     'return "all" if side == "min" else 1', 'return "all" if side == "max" else 1', TEST_VERSHIK),
    ("cyclic-rule-on-the-staircase", VERSHIK,
     'if kind != "binfty":\n            return "unknown"',
     'if kind not in ("binfty", "staircase"):\n            return "unknown"', TEST_VERSHIK),
    ("cyclic-candidates-like-the-base-class", VERSHIK,
     'def candidates(self, diagram, kind, cls, path):\n        return frozenset()',
     'def candidates(self, diagram, kind, cls, path):\n        return super().candidates(diagram, kind, cls, path)',
     TEST_VERSHIK),
    ("cyclic-accepts-any-diagram", VERSHIK,
     'if odometer or not diagram.integer_keys:', 'if False:', TEST_VERSHIK),
    ("cyclic-accepts-odometer-chains", VERSHIK,
     'isinstance(diagram, OdometerChainDiagram) or _family_kind(diagram) == "column-odometer"',
     '_family_kind(diagram) == "column-odometer"', TEST_VERSHIK),
    ("cyclic-accepts-odometer-columns", VERSHIK,
     ' or _family_kind(diagram) == "column-odometer"\n', '\n', TEST_VERSHIK),
    ("base-candidates-refuse-special", VERSHIK,
     'if cls is ExtremalClass.SPECIAL:\n            return frozenset({path})\n        raise',
     'if False:\n            return frozenset({path})\n        raise', TEST_VERSHIK),
    ("scan-tail-asks-the-order-about-an-unspecified-tail", VERSHIK,
     'if isinstance(tail, Unspecified):\n        return ("unknown", None)\n', '', TEST_VERSHIK),
    # the ordered diagram's memo tables: each key must name everything its entry depends on
    ("step-key-without-side", VERSHIK,
     "key = (start, m, edges[m], side)", "key = (start, m, edges[m])", REUSED_DIAGRAM),
    ("step-key-without-start", VERSHIK,
     "key = (start, m, edges[m], side)", "key = (m, edges[m], side)", REUSED_DIAGRAM),
    # the extremal edges are the first and last entries of the order table
    ("scan-reads-first-and-last-entries-swapped", VERSHIK,
     'order, end = od._cache, 0 if side == "min" else -1\n    for j,',
     'order, end = od._cache, -1 if side == "min" else 0\n    for j,', REUSED_DIAGRAM),
    ("refill-reads-first-and-last-entries-swapped", VERSHIK,
     'order, end = od._cache, 0 if side == "min" else -1\n    edges = []',
     'order, end = od._cache, -1 if side == "min" else 0\n    edges = []', REUSED_DIAGRAM),
    # a spec's truncation bound belongs to the diagram the spec describes, its sub block included
    ("truncation-bound-set-on-the-ambient", CORE,
     '    if spec.get("sub"):\n        d = build_subdiagram(d, spec["sub"])\n    d.truncation_bound = bound\n',
     '    d.truncation_bound = bound\n    if spec.get("sub"):\n        d = build_subdiagram(d, spec["sub"])\n',
     "test_core.py::test_a_truncation_bound_applies_to_the_spec_sub_block"),
    # the memos that keep a cone row from being read twice
    ("cone-walk-ignores-the-memo", "linalg.py",
     "        if held:\n            keys = list(filterfalse(held.__contains__, src))",
     "        if False:\n            keys = list(filterfalse(held.__contains__, src))", READ_ONCE_LIMIT),
    ("limit-along-memo-per-iterate", "limits.py",
     "_path_counts(diagram, n, m, v, method, recursion)",
     "_path_counts(diagram, n, m, v, method, partial(_memo_product_row, memo={}))", READ_ONCE_LIMIT),
    # closed forms and constants the limit and series verdicts rely on
    ("binfty-tail-from-exponent-off-by-one", "measures.py",
     "return x ** (j_from - 1) / (a + 1) ** (n - 1)", "return x ** j_from / (a + 1) ** (n - 1)",
     "test_measures.py"),
    ("binfty-level-tail-mass-one-term-short", "measures.py",
     "for i in range(n)),", "for i in range(n - 1)),", "test_measures.py"),
    ("limit-stable-steps-5-to-2", "limits.py", "STABLE_STEPS = 5", "STABLE_STEPS = 2", "test_limits.py"),
    ("series-ratio-window-8-to-6", "extension.py", "RATIO_WINDOW = 8", "RATIO_WINDOW = 6", "test_extension.py"),
    ("series-geometric-cap-lowered", "extension.py", "GEOMETRIC_CAP = Fraction(99, 100)",
     "GEOMETRIC_CAP = Fraction(49, 50)", "test_extension.py"),
    ("series-geometric-cap-raised", "extension.py", "GEOMETRIC_CAP = Fraction(99, 100)",
     "GEOMETRIC_CAP = Fraction(199, 200)", "test_extension.py"),
    ("series-decay-floor-raised", "extension.py", "DECAY_FLOOR = Fraction(97, 100)",
     "DECAY_FLOOR = Fraction(49, 50)", "test_extension.py"),
    ("series-decay-floor-lowered", "extension.py", "DECAY_FLOOR = Fraction(97, 100)",
     "DECAY_FLOOR = Fraction(24, 25)", "test_extension.py"),
    ("series-ceiling-factor-10-to-3", "extension.py", "CEILING_FACTOR = 10", "CEILING_FACTOR = 3",
     "test_extension.py"),
    ("count-distance-shift-off-by-one", "linalg.py",
     "d << (top - ranks[v])", "d << (top - ranks[v] + 1)", "test_linalg.py"),
    ("step-convolve-window-one-short", CORE,
     "map(sub, sums[2 * k + 1:], sums)", "map(sub, sums[2 * k:], sums)", "test_core.py"),
    ("compositions-multiplicities-ascending", CORE,
     "for m in range(top, 0, -1))", "for m in range(1, top + 1))", "test_core.py"),
    # the closed-form heights the cone rows read: each changes the ratio of two heights of a level,
    # which the path-count referee of the stochastic and continuity commands sees
    ("pascal-closed-form-one-factorial-short", CORE, "denom *= fact[m]", "denom *= fact[m - 1]", TEST_CLI),
    ("binfty-closed-form-index-shifted", CORE,
     "return comb(v + level - 2, level - 1)", "return comb(v + level - 1, level - 1)", TEST_CLI),
    ("bounded-finite-closed-form-coefficient-shifted", CORE,
     "return step_polynomial_coefficients(self.k, level).get(v, 0)",
     "return step_polynomial_coefficients(self.k, level).get(v + 1, 0)", TEST_CLI),
    ("odometer-closed-form-product-starts-at-v", CORE,
     "        h = 1\n        for j in range(self.base_level, level):",
     "        h = v\n        for j in range(self.base_level, level):", TEST_CLI),
    ("staircase-closed-form-sum-not-difference", CORE, "return a - b", "return a + b", TEST_CLI),
    ("pascal-edge-closed-form-index-shifted", CORE,
     "return comb(level - self.base_level, v - self.k)",
     "return comb(level - self.base_level, v - self.k + 1)", TEST_CLI),
    # scales every height of a level, so no row changes; the closed-form-against-recursion check sees it
    ("bounded-generalized-closed-form-scaled", CORE,
     "return (2 * self.k + 1) ** level", "return (2 * self.k + 1) ** (level + 1)", "test_linalg.py"),
    # guards that earlier changes checked by hand
    ("signed-pascal-keys-unsorted", CORE,
     "tuple(sorted((-(r // 2) if r % 2 else r // 2, m) for r, m in key))",
     "tuple((-(r // 2) if r % 2 else r // 2, m) for r, m in key)", "test_core.py"),
    # orbit_end's tower arithmetic, each killed by the stepping referee
    ("orbit-end-decodes-one-past-the-target", VERSHIK,
     "_decode(order, size, level, v, idx + j, start)", "_decode(order, size, level, v, idx + j + 1, start)",
     ORBIT_END_REFEREE),
    ("orbit-end-visits-count-the-path-before-the-segment", VERSHIK,
     "v, idx + 1, floor, below)", "v, idx, floor, below)", ORBIT_END_REFEREE),
    ("orbit-end-counts-towers-from-the-base-level", VERSHIK,
     "size = _TowerTable(order, start,", "size = _TowerTable(order, od.diagram.base_level,",
     ORBIT_END_REFEREE),
    ("orbit-end-without-a-work-budget", VERSHIK, "if len(self) > self.budget:", "if False:",
     TEST_VERSHIK + "::test_orbit_end_steps_where_the_towers_outgrow_the_walk"),
    ("orbit-walk-yields-a-copy", VERSHIK, "        yield edges, tail", "        yield list(edges), tail", TEST_VERSHIK),
    ("bijection-check-validates-every-step", VERSHIK,
     '_stepped(od, p, "max")) for p in paths', 'vershik_step(od, p)) for p in paths', TEST_VERSHIK),
    ("exit-2-without-missing-data", "cli.py",
     'missing = " (missing: %s)" % json.dumps(exc.missing) if exc.missing else ""', 'missing = ""', TEST_CLI),
    ("csv-accepts-precision", "cli.py",
     'if fmt == "csv":\n            raise DiagramError("--precision has no CSV form',
     'if False:\n            raise DiagramError("--precision has no CSV form', TEST_CLI),
    # a renamed traced function would crash traced benchmark runs, and a renamed method would trace nothing
    ("traced-callable-renamed", "linalg.py", "def simplex_distance(", "def _simplex_distance(",
     "test_hygiene.py::test_every_traced_callable_exists"),
    ("traced-method-renamed", CORE, "def outside_predecessors(", "def _outside_predecessors(",
     "test_hygiene.py::test_every_traced_callable_exists"),
]

# (name, module, old text, new text, why no test can tell the mutant apart)
EQUIVALENT = [
    ("binfty-explicit-terms-25-to-3", "measures.py", "EXPLICIT_TERMS = 25", "EXPLICIT_TERMS = 3",
     "_successor_mass adds tail_from(n + 1, cut), the exact sum of every term from the cut on, to the "
     "explicit terms below the cut, so each cut gives the same exact mass"),
    ("ltr-diagonal-cap-raised", VERSHIK,
     'return "all"  # the frontier diagonal is the level\'s last edge\n            return 2',
     'return "all"  # the frontier diagonal is the level\'s last edge\n            return 3',
     "scan_tail returns the depth of the first non-extremal tail edge and a cap only bounds that search; "
     "under left-to-right a diagonal's second edge is never minimal and its first never maximal off the "
     "staircase frontier, so a witness lies within depth 2 and any higher cap finds the same one.  The "
     "same holds for every cap raised above its witness depth"),
    ("odometer-closed-form-reads-the-next-column", CORE,
     "h *= self.entry(j, v) + 1", "h *= self.entry(j, v + 1) + 1",
     "closed_form_height returns None before the product whenever the chain has column rules, and "
     "without them entry(j, column) is the default rule at j for every column"),
]


def run_tests(tree: Path, test: str) -> bool:
    """Whether ``tests/<test>`` (a file or ``file::name``) passes in ``tree``; a run past the
    timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", str(tree / "tests" / test)]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def stale_entries() -> list:
    """(name, module) of each ``MUTANTS`` or ``EQUIVALENT`` entry whose old text does not occur
    exactly once in its module."""
    return [(name, module) for name, module, old, *_ in MUTANTS + EQUIVALENT
            if (ROOT / "src" / "bratteli" / module).read_text().count(old) != 1]


def main() -> int:
    stale = stale_entries()
    for name, module in stale:
        print("stale: %s: its old text does not occur exactly once in %s" % (name, module))
    if stale:
        return 2
    for name, *_, proof in EQUIVALENT:
        print("equivalent %s: %s" % (name, proof))
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        (tree / "perfbench").mkdir()
        shutil.copy(ROOT / "perfbench" / "shim.py", tree / "perfbench")
        failing = [test for test in sorted({m[4] for m in MUTANTS}) if not run_tests(tree, test)]
        for test in failing:
            print("unmutated tests fail: %s" % test)
        if failing:
            return 2
        survivors = []
        for name, module, old, new, test in MUTANTS:
            path = tree / "src" / "bratteli" / module
            text = path.read_text()
            path.write_text(text.replace(old, new))
            try:
                killed = not run_tests(tree, test)
            finally:
                path.write_text(text)
            print("%s %s (%s)" % ("killed  " if killed else "SURVIVED", name, test), flush=True)
            if not killed:
                survivors.append(name)
    print("%d of %d mutants killed; survivors: %s" % (len(MUTANTS) - len(survivors), len(MUTANTS),
                                                       ", ".join(survivors) or "none"))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
