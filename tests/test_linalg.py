import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli.core import (
    BinftyDiagram,
    BoundedDiagram,
    CustomDiagram,
    Diagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    TruncationIncompleteError,
    build_diagram,
    build_subdiagram,
    support_key,
    vertex_window,
)
from bratteli.linalg import (
    _heights,
    continuity_profile,
    count_distance,
    height,
    heights,
    heights_closed_form,
    simplex_distance,
    stochastic_row,
    stochastic_rows,
    weighted_row_norm,
)

import bratteli
import oracles


def pascal_n():
    return PascalDiagram("n")


CASES = [
    (pascal_n(), 3, lambda d: d.level_vertices(3, 3)),
    (PascalDiagram("z"), 2, lambda d: d.level_vertices(2, 1)),
    (PascalDiagram(3), 4, lambda d: d.level_vertices(4)),
    (BinftyDiagram(), 4, lambda d: d.level_vertices(4, 6)),
    (BoundedDiagram(2, finite=True), 3, lambda d: d.level_vertices(3)),
    (BoundedDiagram(1, finite=False), 3, lambda d: d.level_vertices(3, 3)),
    (OdometerChainDiagram(2), 3, lambda d: d.level_vertices(3, 4)),
    (OdometerChainDiagram("pow2"), 3, lambda d: d.level_vertices(3, 3)),
]


@pytest.mark.parametrize("diagram,level,pick", CASES, ids=lambda c: getattr(c, "family", ""))
def test_heights_match_path_enumeration(diagram, level, pick):
    vs = pick(diagram)
    got = heights(diagram, level, vs)
    for v in vs:
        assert got[v] == oracles.path_count(diagram, level, v)


def test_subdiagram_heights_match_path_enumeration():
    amb = BinftyDiagram()
    stair = build_subdiagram(amb, {"kind": "vertex", "rule": "staircase", "k": 2})
    edge = build_subdiagram(amb, {"kind": "edge", "rule": "pascal", "k": 3})
    for sub, level in [(stair, 5), (edge, 5)]:
        vs = sub.level_vertices(level)
        got = heights(sub, level, vs)
        for v in vs:
            assert got[v] == oracles.path_count(sub, level, v)


def test_closed_form_heights_match_recursion():
    binfty = BinftyDiagram()
    for n in (1, 2, 5, 12):
        vs = binfty.level_vertices(n, 12)
        assert heights_closed_form(binfty, n, vs) == heights(binfty, n, vs)
        for i in vs:
            assert binfty.closed_form_height(n, i) == comb(i + n - 2, n - 1)

    pascal = pascal_n()
    for n in (2, 4, 6):
        vs = pascal.level_vertices(n, 3)
        assert heights_closed_form(pascal, n, vs) == heights(pascal, n, vs)
        for v in vs:
            assert pascal.closed_form_height(n, v) == oracles.multinomial_height(v)

    odo = OdometerChainDiagram([2, 5, 3, 2, 2])
    vs = odo.level_vertices(4, 3)
    assert heights_closed_form(odo, 4, vs) == heights(odo, 4, vs)
    assert odo.closed_form_height(3, 1) == 3 * 6 * 4


def test_bounded_heights_match_polynomial_coefficients():
    for k in (1, 2):
        d = BoundedDiagram(k, finite=True)
        for m in (1, 3, 6):
            ref = oracles.step_poly_coefficients(k, m)
            vs = d.level_vertices(m)
            got = heights(d, m, vs)
            assert got == {v: ref[v] for v in vs}
            assert heights_closed_form(d, m, vs) == got
    g = BoundedDiagram(1, finite=False)
    vs = g.level_vertices(3, 5)
    assert heights_closed_form(g, 3, vs) == {v: 27 for v in vs}
    assert heights(g, 3, vs) == {v: 27 for v in vs}


def test_staircase_closed_form_heights():
    amb = BinftyDiagram()
    sub = build_subdiagram(amb, {"kind": "vertex", "rule": "staircase", "k": 2})
    for n in range(1, 9):
        vs = sub.level_vertices(n)
        assert heights_closed_form(sub, n, vs) == heights(sub, n, vs)
    # the top vertex of each level carries a Catalan count
    for n in (2, 3, 4, 5, 6):
        top = 2 + n - 1
        assert sub.closed_form_height(n, top) == comb(2 * (n - 1), n - 1) // n


def test_pascal_edge_closed_form_heights():
    amb = BinftyDiagram()
    sub = build_subdiagram(amb, {"kind": "edge", "rule": "pascal", "k": 3})
    for n in (1, 2, 4, 7):
        vs = sub.level_vertices(n)
        assert heights_closed_form(sub, n, vs) == heights(sub, n, vs)
        assert [sub.closed_form_height(n, v) for v in vs] == [
            comb(n - 1, j) for j in range(n)
        ]


@pytest.mark.parametrize("diagram,level,pick", CASES)
def test_stochastic_rows_sum_to_one(diagram, level, pick):
    for v in pick(diagram):
        row = stochastic_row(diagram, level, v)
        assert sum(row.values()) == 1
        assert all(isinstance(f, Fraction) and f > 0 for f in row.values())


def test_pascal_stochastic_entries_are_coordinate_shares():
    d = pascal_n()
    for n in (1, 2, 5):
        for v in d.level_vertices(n + 1, 3):
            row = stochastic_row(d, n + 1, v)
            for w, f in row.items():
                removed = [c for c, _ in v if dict(v)[c] != dict(w).get(c, 0)]
                (c,) = removed
                assert f == Fraction(dict(v)[c], n + 1)


def test_binfty_first_level_rows_are_uniform():
    d = BinftyDiagram()
    rows = stochastic_rows(d, 2, range(1, 9))
    for i, row in rows.items():
        assert row == {j: Fraction(1, i) for j in range(1, i + 1)}


def test_simplex_distance_examples():
    ranks = {"a": 1, "b": 2, "c": 3}
    x = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    y = {"a": Fraction(1, 4), "c": Fraction(3, 4)}
    d = simplex_distance(x, y, ranks)
    assert d == Fraction(1, 4) / 2 + Fraction(1, 2) / 4 + Fraction(3, 4) / 8


def test_simplex_distance_on_mixed_denominators():
    ranks = {1: 1, 2: 3, 3: 2, 4: 5}
    x = {1: Fraction(2, 7), 2: Fraction(5, 21), 3: Fraction(10, 21)}
    y = {1: Fraction(1, 3), 4: Fraction(2, 3)}
    d = simplex_distance(x, y, ranks)
    assert d == (Fraction(1, 21) / 2 + Fraction(5, 21) / 8 + Fraction(10, 21) / 4
                 + Fraction(2, 3) / 32)
    assert simplex_distance({1: 1}, {1: "1/3", 2: Fraction(2, 3)}, ranks) == (
        Fraction(2, 3) / 2 + Fraction(2, 3) / 8)


def test_simplex_distance_on_absent_keys():
    # a key on one side only counts in full; one where the sides agree, or
    # that neither side holds, needs no rank
    ranks = {"b": 2, "c": 4}
    x = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
    y = {"a": Fraction(1, 3), "c": Fraction(2, 3)}
    assert simplex_distance(x, y, ranks) == Fraction(2, 3) / 4 + Fraction(2, 3) / 16
    assert simplex_distance(x, {"b": Fraction(2, 3), "a": Fraction(1, 3)}, {}) == 0
    assert simplex_distance({}, {}, {}) == 0
    assert simplex_distance({"b": 1}, {}, ranks) == Fraction(1, 4)


@given(
    st.dictionaries(st.integers(1, 6), st.fractions(0, 1), max_size=4),
    st.dictionaries(st.integers(1, 6), st.fractions(0, 1), max_size=4),
    st.dictionaries(st.integers(1, 6), st.fractions(0, 1), max_size=4),
)
@settings(max_examples=60)
def test_simplex_distance_is_a_metric(x, y, z):
    ranks = {v: v for v in range(1, 7)}
    dxy = simplex_distance(x, y, ranks)
    assert dxy == simplex_distance(y, x, ranks)
    assert dxy >= 0
    assert simplex_distance(x, x, ranks) == 0
    assert dxy <= simplex_distance(x, z, ranks) + simplex_distance(z, y, ranks)
    if dxy == 0:
        assert {v: f for v, f in x.items() if f} == {v: f for v, f in y.items() if f}


def test_binfty_row_norms_decay_like_one_over_i():
    d = BinftyDiagram()
    profile = continuity_profile(d, 2, range(1, 40))
    for i, norm in profile.items():
        assert norm == Fraction(1 - Fraction(1, 2**i), i)
        assert norm < Fraction(1, i)


def test_pascal_row_norms_do_not_decay_along_coordinate_rays():
    d = pascal_n()
    s = support_key([(1, 2)])  # level-2 key
    n = 2
    floor = Fraction(1, 2 ** d.rank(n, s) * (n + 1))
    for i in (2, 3, 5, 9, 14):
        t = support_key([(1, 2), (i, 1)]) if i != 1 else support_key([(1, 3)])
        row = stochastic_row(d, n + 1, t)
        ranks = {w: d.rank(n, w) for w in row}
        assert weighted_row_norm(row, ranks) >= floor


def _custom():
    return CustomDiagram(
        levels={0: ["a"], 1: ["b", "c"], 2: ["d", "e"], 3: ["f"]},
        rows={
            1: {"b": {"a": 2}, "c": {"a": 1}},
            2: {"d": {"b": 1, "c": 3}, "e": {"c": 2}},
            3: {"f": {"d": 1, "e": 2}},
        },
    )


MEMO_CASES = [
    pytest.param(lambda: PascalDiagram("n"), lambda d, n: d.level_vertices(n, 3), id="pascal-n"),
    pytest.param(lambda: PascalDiagram("z"), lambda d, n: d.level_vertices(n, 1), id="pascal-z"),
    pytest.param(BinftyDiagram, lambda d, n: d.level_vertices(n, 6), id="binfty"),
    pytest.param(lambda: BoundedDiagram(2, finite=True), lambda d, n: d.level_vertices(n),
                 id="bounded-finite"),
    pytest.param(lambda: OdometerChainDiagram("pow2"), lambda d, n: d.level_vertices(n, 4),
                 id="odometer-io"),
    pytest.param(_custom, lambda d, n: d.level_vertices(n), id="custom"),
    pytest.param(lambda: build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": 2}),
                 lambda d, n: d.level_vertices(n), id="staircase"),
    pytest.param(lambda: build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "pascal", "k": 3}),
                 lambda d, n: d.level_vertices(n), id="pascal-edge"),
]


@pytest.mark.parametrize("make,window", MEMO_CASES)
@pytest.mark.parametrize("first,second", [(2, 3), (3, 2), (1, 3), (3, 3)])
def test_memoized_heights_equal_those_of_a_fresh_instance(make, window, first, second):
    d = make()
    first_vs = window(d, first)
    assert heights(d, first, first_vs) == heights(make(), first, first_vs)
    second_vs = window(d, second)
    assert heights(d, second, second_vs) == heights(make(), second, second_vs)


def test_a_height_query_that_runs_out_of_data_leaves_the_memo_usable():
    d = OdometerChainDiagram([2, 3, 5])
    fresh = OdometerChainDiagram([2, 3, 5]).closed_form_height
    for _ in range(2):
        with pytest.raises(TruncationIncompleteError):
            heights(d, 6, [1, 2])
        assert heights(d, 2, [1, 2]) == {1: fresh(2, 1), 2: fresh(2, 2)}
        assert heights(d, 3, [3]) == {3: fresh(3, 3)}


@pytest.mark.parametrize("diagram,level,v", [
    (PascalDiagram("n"), 0, ((1, 1),)),
    (PascalDiagram("n"), 2, ((1, 1),)),
    (OdometerChainDiagram(2), 0, -3),
    (BinftyDiagram(), 0, 1),
    (BinftyDiagram(), 1, 0),
], ids=["pascal-level-0", "pascal-level-2", "odometer-negative", "binfty-no-level-0",
        "binfty-vertex-0"])
def test_heights_reject_non_vertices_and_store_nothing_for_them(diagram, level, v):
    for _ in range(2):
        with pytest.raises(DiagramError):
            heights(diagram, level, [v])


@pytest.mark.parametrize("diagram,level,v", [
    (PascalDiagram("n"), 0, ((1, 1),)),
    (BinftyDiagram(), 1, 0),
    (BinftyDiagram(), 0, 1),
], ids=["pascal-level-0", "binfty-vertex-0", "binfty-no-level-0"])
def test_closed_form_heights_reject_non_vertices(diagram, level, v):
    with pytest.raises(DiagramError):
        heights_closed_form(diagram, level, [v])


def test_heights_validate_each_requested_vertex_once(monkeypatch):
    d = PascalDiagram("n")
    vertices = vertex_window(d, 8, 8)
    assert len(vertices) == 6435
    calls = 0
    original = Diagram.check_vertex

    def counting(self, level, v):
        nonlocal calls
        calls += 1
        return original(self, level, v)

    monkeypatch.setattr(Diagram, "check_vertex", counting)
    hs = heights(d, 8, vertices)
    # the recursion's own vertices are not checked again
    assert calls <= len(vertices) + 64
    # nor are the memo's vertices when the closed form is compared
    assert heights_closed_form(d, 8, vertices) == hs
    assert calls <= len(vertices) + 64


_MISSING_ROWS = """
from bratteli.core import CustomDiagram, TruncationIncompleteError
from bratteli.linalg import stochastic_rows
d = CustomDiagram({0: ["r"], 1: ["c", "x", "y"], 2: ["d"]}, {2: {"d": {"c": 1, "x": 1, "y": 1}}})
try:
    stochastic_rows(d, 2, ["d"])
except TruncationIncompleteError as exc:
    print(exc.missing)
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_the_missing_row_named_does_not_depend_on_the_hash_seed(hash_seed):
    src = str(Path(bratteli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _MISSING_ROWS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[(1, 'c')]\n"


def test_heights_at_an_undeclared_custom_level_are_truncation_incomplete():
    with pytest.raises(TruncationIncompleteError):
        heights(_custom(), 4, ["f"])


def test_stochastic_rows_visit_each_cone_vertex_once(monkeypatch):
    calls = Counter()
    original = PascalDiagram.predecessors

    def counting(self, level, v):
        calls[level, v] += 1
        return original(self, level, v)

    monkeypatch.setattr(PascalDiagram, "predecessors", counting)
    d = PascalDiagram("n")
    targets = d.level_vertices(6, 6)
    stochastic_rows(d, 6, targets)
    # the checked read serves the listed targets, once each; the walk below reads unchecked
    assert calls == Counter((6, v) for v in targets)


def test_continuity_profile_ranks_each_source_once(monkeypatch):
    ranked = []
    original = PascalDiagram.rank

    def counting(self, level, v):
        ranked.append((level, v))
        return original(self, level, v)

    monkeypatch.setattr(PascalDiagram, "rank", counting)
    d = PascalDiagram("n")
    continuity_profile(d, 6, d.level_vertices(6, 6))
    # 252 distinct level-5 sources feed the 462 window targets
    assert len(set(ranked)) == comb(5 + 5, 5)
    assert len(ranked) == len(set(ranked))


@pytest.mark.parametrize("make, level, v", [
    (lambda: PascalDiagram("n"), 4, ((1, 2), (3, 2))),
    (BinftyDiagram, 5, 3),
    (lambda: OdometerChainDiagram(2, {1: 3}), 3, 1),
    (lambda: build_subdiagram(OdometerChainDiagram(2), {"kind": "vertex", "rule": "constant",
                                                        "vertex": 2}), 4, 2),
], ids=["pascal-n", "binfty", "odometer-columns", "constant-column"])
def test_height_is_the_closed_form_else_the_memoized_recursion(make, level, v):
    d = make()
    expected = heights(make(), level, [v])[v]
    assert height(d, level, v) == expected
    # a closed form is never written into the memo the recursion fills
    has_closed_form = d.closed_form_height(level, v) is not None
    assert (v in d._height_memo.get(level, {})) is not has_closed_form


def test_stochastic_rows_read_each_cone_row_once(monkeypatch):
    # counts every row read, checked or not: the height walk reads
    # rows through the unchecked _predecessors
    calls = Counter()
    original = OdometerChainDiagram._predecessors

    def counting(self, level, v):
        calls[level, v] += 1
        return original(self, level, v)

    monkeypatch.setattr(OdometerChainDiagram, "_predecessors", counting)
    # column rules leave the odometer chain without a closed form, so its sources take the recursion
    d = OdometerChainDiagram(2, {1: 3})
    stochastic_rows(d, 6, d.level_vertices(6, 6))
    # the cone of 1..6 at level 6 is 1..12-n at level n; level 0 has no row
    assert set(calls.values()) == {1}
    assert set(calls) == {(n, v) for n in range(1, 7) for v in range(1, 13 - n)}


def test_count_distance_agrees_with_simplex_distance():
    ranks = {1: 1, 2: 3, 3: 2, 4: 5}
    # 2/7, 5/21, 10/21 as counts over 21; 1/3, 2/3 over 3; keys 3 and 4 one-sided
    c, t = {1: 6, 2: 5, 3: 10}, 21
    c2, t2 = {1: 1, 4: 2}, 3
    x = {v: Fraction(m, t) for v, m in c.items()}
    y = {v: Fraction(m, t2) for v, m in c2.items()}
    assert count_distance(c, t, c2, t2, ranks) == simplex_distance(x, y, ranks)
    assert count_distance({1: 2, 2: 4}, 6, {1: 1, 2: 2}, 3, {}) == 0


def test_heights_accept_window_default():
    d = BinftyDiagram()
    win = vertex_window(d, 3, 5)
    assert heights(d, 3, win) == heights(d, 3, bound=5)


@pytest.fixture
def row_reads(monkeypatch):
    """Counts of (level, vertex) for every Pascal row read and every check_vertex call."""
    reads, checks = Counter(), Counter()
    read, check = PascalDiagram._predecessors, Diagram.check_vertex

    def counting_read(self, level, v):
        reads[level, v] += 1
        return read(self, level, v)

    def counting_check(self, level, v):
        checks[level, v] += 1
        return check(self, level, v)

    monkeypatch.setattr(PascalDiagram, "_predecessors", counting_read)
    monkeypatch.setattr(Diagram, "check_vertex", counting_check)
    return reads, checks


def test_a_whole_window_of_heights_is_not_checked(row_reads):
    _, checks = row_reads
    hs = heights(PascalDiagram("n"), 8, bound=8)
    assert len(hs) == comb(8 + 7, 7)
    assert not checks


def test_stochastic_rows_of_a_window_read_each_row_once_and_check_nothing(row_reads):
    reads, checks = row_reads
    d = PascalDiagram("n")
    rows = stochastic_rows(d, 7, bound=8)
    assert len(rows) == 3432
    assert not checks
    # the multinomial closed form gives every source height: only the target rows are read,
    # and no height is memoized
    assert reads == Counter({(7, v): 1 for v in rows})
    assert not d._height_memo


def test_a_whole_window_of_heights_reads_each_cone_row_once(monkeypatch):
    # bounded-finite has no coded route, so its whole window walks the cone
    reads = Counter()
    read = BoundedDiagram._predecessors

    def counting(self, level, v):
        reads[level, v] += 1
        return read(self, level, v)

    monkeypatch.setattr(BoundedDiagram, "_predecessors", counting)
    hs = heights(BoundedDiagram(3, finite=True), 10)
    assert len(hs) == 61
    # levels 1..10 hold 6n + 1 vertices each, all in the cone: 340 rows, the base vertex has none
    assert set(reads) == {(n, v) for n in range(1, 11) for v in range(-3 * n, 3 * n + 1)}
    assert len(reads) == 340
    assert set(reads.values()) == {1}


def test_a_whole_pascal_window_of_heights_reads_no_row(row_reads):
    reads, checks = row_reads
    d = PascalDiagram("n")
    hs = heights(d, 8, bound=8)
    assert len(hs) == comb(8 + 7, 7)
    assert not reads and not checks
    # only the top level is memoized, so the closed-form check of the same keys checks nothing
    assert list(d._height_memo) == [8]
    assert heights_closed_form(d, 8, hs) == hs
    assert not checks


def _coded_window_cases(top_size=6_435):
    """(coords, level, window) over levels 0..9 and windows 1..8, for pascal-n, pascal-k (k = 4)
    and pascal-z; a pascal-z window of 2w + 1 coordinates is kept while its top level holds at
    most ``top_size`` vertices, the size of the largest benchmark window (pascal-n, level 8,
    window 8)."""
    for coords in ("n", 4, "z"):
        for level in range(10):
            for window in range(1, 9):
                width = len(PascalDiagram(coords)._coord_domain(window))
                if coords != "z" or comb(level + width - 1, level) <= top_size:
                    yield coords, level, window


def test_coded_window_heights_equal_the_walk_and_the_closed_forms():
    # the coded route against the cone walk on a fresh diagram, and both against the multinomial
    cases = list(_coded_window_cases())
    assert len(cases) == 80 + 80 + 60
    for coords, level, window in cases:
        d = PascalDiagram(coords)
        got = heights(d, level, bound=window)
        keys = vertex_window(d, level, window)
        assert list(got) == list(keys)
        assert got == _heights(PascalDiagram(coords), level, keys), (coords, level, window)
        assert got == {v: d.closed_form_height(level, v) for v in keys}, (coords, level, window)
        assert list(d._height_memo) == [level]
    # a spec's truncation bound cuts the window when no bound is passed
    for spec, level in [({"family": "pascal-n", "truncation": {"bound": 3}}, 6),
                        ({"family": "pascal-k", "params": {"k": 5}, "truncation": {"bound": 2}}, 7),
                        ({"family": "pascal-z", "truncation": {"bound": 1}}, 5)]:
        d = build_diagram(spec)
        got = heights(d, level)
        keys = vertex_window(d, level)
        assert len(keys) == comb(level + len(d._coord_domain(d.truncation_bound)) - 1, level)
        assert list(got) == list(keys)
        assert got == _heights(build_diagram(spec), level, keys)
        assert got == {v: oracles.multinomial_height(v) for v in keys}


# 1.25 x 3,217,188 bytes, the tracemalloc peak of the read-once walk that Pascal windows took
# before the coded route (CPython 3.11); the coded route peaks at 2,242,992, and the recursion
# that read each row twice peaked at 2,398,784
PEAK_BOUND = 4_022_000


def test_a_whole_window_of_heights_stays_within_its_memory_bound():
    heights(PascalDiagram("n"), 8, bound=8)  # module caches, such as Pascal ranks, fill first
    d = PascalDiagram("n")
    tracemalloc.start()
    try:
        heights(d, 8, bound=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND


def test_continuity_profile_reads_each_target_row_once(row_reads):
    reads, checks = row_reads
    norms = continuity_profile(PascalDiagram("n"), 6, bound=6)
    assert len(norms) == comb(6 + 5, 5)
    assert {v: n for (level, v), n in reads.items() if level == 6} == dict.fromkeys(norms, 1)
    # only the ranking of the level-5 sources checks vertices
    assert {level for level, _ in checks} == {5}


@pytest.mark.parametrize("call", [
    lambda: stochastic_rows(PascalDiagram("n"), 0, bound=3),
    lambda: stochastic_rows(PascalDiagram("n"), 0, [()]),
    lambda: stochastic_row(PascalDiagram("n"), 0, ()),
    lambda: stochastic_rows(BinftyDiagram(), 1, bound=4),
    lambda: stochastic_row(BinftyDiagram(), 1, 2),
    lambda: continuity_profile(BinftyDiagram(), 1, bound=4),
], ids=["pascal-window", "pascal-list", "pascal-row", "binfty-window", "binfty-row",
        "continuity-window"])
def test_stochastic_rows_at_the_base_level_are_refused(call):
    with pytest.raises(DiagramError, match="base level vertices have no predecessors"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: stochastic_rows(PascalDiagram("n"), 3, [((1, 3),), ((1, 2),)]),
     r"\(\(1, 2\),\) is not a vertex of level 3 of pascal-n"),
    (lambda: stochastic_row(BinftyDiagram(), 3, 0), "0 is not a vertex of level 3 of binfty"),
    (lambda: stochastic_rows(BinftyDiagram(), 0, bound=3), "binfty has no level 0"),
    (lambda: stochastic_rows(BinftyDiagram(), 0, [1]), "binfty has no level 0"),
    (lambda: continuity_profile(BinftyDiagram(), 0, bound=3), "binfty has no level 0"),
], ids=["non-vertex-in-list", "non-vertex-row", "below-base-window", "below-base-list",
        "continuity-below-base"])
def test_stochastic_rows_refuse_non_vertices_and_levels_below_the_base(call, message):
    with pytest.raises(DiagramError, match=message):
        call()


# -- the one row reader ---------------------------------------------------------

ROW_WINDOWS = [
    pytest.param(lambda: PascalDiagram("n"), 4, 4, id="pascal-n"),
    pytest.param(lambda: PascalDiagram("z"), 3, 1, id="pascal-z"),
    pytest.param(BinftyDiagram, 6, 20, id="binfty"),
    pytest.param(lambda: BoundedDiagram(2, finite=True), 3, None, id="bounded-finite"),
    pytest.param(lambda: OdometerChainDiagram("pow2"), 4, 6, id="odometer-io"),
    pytest.param(lambda: build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": 2}),
                 5, None, id="staircase"),
    pytest.param(_custom, 3, None, id="custom"),
]


@pytest.mark.parametrize("make, level, bound", ROW_WINDOWS)
def test_continuity_profile_equals_the_fraction_reference(make, level, bound):
    d, ref = make(), make()
    norms = continuity_profile(d, level, bound=bound)
    assert list(norms) == list(vertex_window(ref, level, bound))
    for v, norm in norms.items():
        row = stochastic_row(ref, level, v)
        assert norm == weighted_row_norm(row, {w: ref.rank(level - 1, w) for w in row})


# -- path counts referee the cone rows ------------------------------------------
# Every height below is a count of enumerated paths (``oracles.path_count``), never a closed form
# or the recursion, so these tests stay independent of the route ``_weighted_rows`` takes.

PATH_COUNT_WINDOWS = ROW_WINDOWS + [
    pytest.param(lambda: PascalDiagram(3), 5, None, id="pascal-k"),
    pytest.param(lambda: BoundedDiagram(1, finite=False), 3, 3, id="bounded-generalized"),
    pytest.param(lambda: OdometerChainDiagram(3), 4, 5, id="odometer-stationary"),
    pytest.param(lambda: OdometerChainDiagram(2, {1: 3}), 4, 5, id="odometer-columns"),
    pytest.param(lambda: build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "pascal", "k": 2}),
                 5, None, id="pascal-edge"),
]


@pytest.mark.parametrize("make, level, bound", PATH_COUNT_WINDOWS)
def test_stochastic_rows_are_ratios_of_path_counts(make, level, bound):
    d = make()
    ref = oracles.path_count_rows(d, level, vertex_window(d, level, bound))
    rows = stochastic_rows(make(), level, bound=bound)
    assert list(rows) == list(ref)
    for v, row in rows.items():
        weights, hv = ref[v]
        assert row == {w: Fraction(x, hv) for w, x in weights.items()}


@pytest.mark.parametrize("make, level, bound", PATH_COUNT_WINDOWS)
def test_continuity_norms_are_weighted_ratios_of_path_counts(make, level, bound):
    d = make()
    ref = oracles.path_count_rows(d, level, vertex_window(d, level, bound))
    norms = continuity_profile(make(), level, bound=bound)
    assert list(norms) == list(ref)
    for v, norm in norms.items():
        weights, hv = ref[v]
        assert norm == sum((Fraction(x, hv * 2 ** d.rank(level - 1, w)) for w, x in weights.items()),
                           Fraction(0))


def test_an_empty_row_has_norm_zero():
    d = CustomDiagram(levels={0: [1], 1: [1, 2]}, rows={1: {1: {1: 3}, 2: {}}})
    assert continuity_profile(d, 1) == {1: Fraction(1, 2), 2: 0}
    assert weighted_row_norm(stochastic_row(d, 1, 2), {}) == 0


@pytest.mark.parametrize("call", [stochastic_rows, continuity_profile],
                         ids=["stochastic", "continuity"])
@pytest.mark.parametrize("targets, message, missing", [
    (["f"], "no incidence row declared for vertex 'f' at level 4", [(4, "f")]),
    (None, "custom diagram declares no level 4", [(4, None)]),
], ids=["listed-target", "window"])
def test_rows_beyond_a_custom_diagram_are_truncation_incomplete(call, targets, message, missing):
    with pytest.raises(TruncationIncompleteError, match=message) as info:
        call(_custom(), 4, targets)
    assert info.value.missing == missing
