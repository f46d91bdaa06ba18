import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli import vershik
from bratteli.cli import _vkey, cli
from bratteli.core import (
    BinftyDiagram,
    BoundedDiagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    build_subdiagram,
    key_add,
    support_key,
)
from bratteli.linalg import heights
from bratteli.vershik import (
    DeepenPrefixError,
    DiagonalFrom,
    ExtremalClass,
    MaximalPathError,
    MinimalPathError,
    OrderedDiagram,
    PascalConcentrating,
    PascalPathDescriptor,
    PathRep,
    Unspecified,
    VerticalAt,
    bijection_check,
    classify_descriptor,
    classify_extremal,
    descriptor_from_json,
    descriptor_prefix,
    descriptor_to_json,
    descriptor_vertex,
    enumerate_prefixes,
    extremal_path_to,
    make_order,
    materialize,
    mirror_descriptor,
    orbit,
    orbit_end,
    orbit_paths,
    orbit_walk,
    path_from_json,
    path_to_json,
    succ_pred,
    succ_pred_descriptor,
    validate_path,
    vershik_inverse,
    vershik_step,
)

import oracles


def staircase(k=2):
    return build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": k})


def odometer_column(a=2):
    return build_subdiagram(
        OdometerChainDiagram(a), {"kind": "vertex", "rule": "constant", "vertex": 1}
    )


def key(*pairs):
    return support_key(pairs)


# ---------------------------------------------------------------------------
# oracle adapters


def oracle_order(od, stop):
    """Adapt OrderedDiagram.edges_into to the oracle's (offset, target) callable."""

    def order(offset, tgt):
        return [(w, slot - 1) for w, slot in od.edges_into(stop + offset, tgt)]

    return order


def to_oracle(path):
    """PathRep -> the oracle's ((vertex, copy), ...) encoding."""
    first = path.edges[0][0]
    return ((first, 0),) + tuple((v, slot - 1) for _, v, slot in path.edges)


def from_oracle(stop, path):
    edges = tuple(
        (path[i - 1][0], path[i][0], path[i][1] + 1) for i in range(1, len(path))
    )
    return PathRep(stop, edges)


def assert_matches_oracle(od, depth):
    """The adic step agrees with sorting all paths, tower by tower."""
    d = od.diagram
    stop = d.base_level
    mapping, maximal, minimal = oracles.exhaustive_successor_map(
        d, depth, oracle_order(od, stop)
    )
    for p, q in mapping.items():
        assert to_oracle(vershik_step(od, from_oracle(stop, p))) == q
        assert to_oracle(vershik_inverse(od, from_oracle(stop, q))) == p
    for p in maximal:
        with pytest.raises(DeepenPrefixError):
            vershik_step(od, from_oracle(stop, p))
    for p in minimal:
        with pytest.raises(DeepenPrefixError):
            vershik_inverse(od, from_oracle(stop, p))


# ---------------------------------------------------------------------------
# edge orders


def test_left_to_right_order_on_binfty():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    assert od.edges_into(3, 3) == ((1, 1), (2, 1), (3, 1))
    assert od.edges_into(2, 1) == ((1, 1),)


def test_left_to_right_order_spreads_parallel_slots():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    assert od.edges_into(3, 1) == ((1, 1), (1, 2))


def test_alternating_order_flips_into_even_levels():
    od = OrderedDiagram(BinftyDiagram(), "alternating")
    assert od.edges_into(3, 3) == ((1, 1), (2, 1), (3, 1))
    assert od.edges_into(2, 3) == ((3, 1), (2, 1), (1, 1))
    assert od.edges_into(4, 2) == ((2, 1), (1, 1))


def test_natural_order_sorts_by_removal_position():
    od = OrderedDiagram(PascalDiagram("z"), "natural")
    v = key((-1, 1), (2, 1))
    assert od.edges_into(2, v) == ((key((2, 1)), 1), (key((-1, 1)), 1))
    w = key((1, 2), (3, 1))
    assert od.edges_into(3, w) == ((key((1, 1), (3, 1)), 1), (key((1, 2)), 1))


def test_cyclic_order_puts_diagonal_first_and_vertical_last():
    od = OrderedDiagram(BinftyDiagram(), "cyclic")
    assert od.edges_into(5, 4) == ((3, 1), (1, 1), (2, 1), (4, 1))
    assert od.edges_into(5, 2) == ((1, 1), (2, 1))
    assert od.edges_into(5, 1) == ((1, 1),)


def test_custom_order_must_be_a_permutation():
    d = BinftyDiagram()
    reversed_ltr = OrderedDiagram(d, lambda dd, lvl, v: [(w, 1) for w in range(v, 0, -1)])
    assert reversed_ltr.edges_into(2, 3) == ((3, 1), (2, 1), (1, 1))
    broken = OrderedDiagram(d, lambda dd, lvl, v: [(1, 1)])
    with pytest.raises(DiagramError):
        broken.edges_into(2, 3)


def test_make_order_rejects_unknown_names():
    with pytest.raises(DiagramError):
        make_order("sideways")


def test_natural_order_rejects_non_multinomial_diagrams():
    with pytest.raises(DiagramError, match="the natural order is defined on multinomial diagrams"):
        OrderedDiagram(BinftyDiagram(), "natural")


@pytest.mark.parametrize("diagram", [lambda: PascalDiagram("n"), lambda: OdometerChainDiagram(2), odometer_column],
                         ids=["pascal-n", "odometer-chain", "odometer-column"])
def test_cyclic_order_rejects_diagrams_without_simple_integer_edges(diagram):
    with pytest.raises(DiagramError, match="the cyclic order needs simple integer-indexed edges"):
        OrderedDiagram(diagram(), "cyclic")


def test_an_order_without_a_candidate_rule_names_the_class_it_cannot_answer():
    class Bare(vershik.LeftToRightOrder):
        candidates = vershik.EdgeOrder.candidates

    od = OrderedDiagram(BinftyDiagram(), Bare())
    with pytest.raises(DiagramError, match="^no candidate rule for class MaxC under order left-to-right$"):
        succ_pred(od, PathRep(1, (), VerticalAt(3)))
    assert succ_pred(od, PathRep(1, (), VerticalAt(1))) == frozenset({PathRep(1, (), VerticalAt(1))})


# ---------------------------------------------------------------------------
# path validation


def test_validate_path_checks_composition_and_slots():
    d = BinftyDiagram()
    validate_path(d, PathRep(1, ((2, 3, 1), (3, 3, 1))))
    with pytest.raises(DiagramError):
        validate_path(d, PathRep(1, ((2, 3, 1), (2, 3, 1))))  # 3 then source 2
    with pytest.raises(DiagramError):
        validate_path(d, PathRep(1, ((2, 3, 2),)))  # only one parallel copy
    with pytest.raises(DiagramError):
        validate_path(d, PathRep(1, ((5, 3, 1),)))  # no edge 5 -> 3


def test_validate_path_checks_tail_admissibility():
    with pytest.raises(DiagramError):
        validate_path(BinftyDiagram(), PathRep(1, (), Unspecified()))
    with pytest.raises(DiagramError):
        validate_path(PascalDiagram("n"), PathRep(0, (), VerticalAt(1)))
    with pytest.raises(DiagramError):
        validate_path(BinftyDiagram(), PathRep(1, (), PascalConcentrating(1)))
    with pytest.raises(DiagramError):  # anchor mismatch
        validate_path(BinftyDiagram(), PathRep(1, ((2, 3, 1),), VerticalAt(2)))
    with pytest.raises(DiagramError):  # coordinate outside the domain
        validate_path(PascalDiagram(2), PathRep(0, (), PascalConcentrating(3)))
    validate_path(BinftyDiagram(), PathRep(1, ((2, 3, 1),), VerticalAt(3)))
    validate_path(PascalDiagram(2), PathRep(0, (), PascalConcentrating(2)))


# ---------------------------------------------------------------------------
# extremal refills


def test_minimal_and_maximal_refills_on_binfty():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    assert extremal_path_to(od, 4, 3, "min") == ((1, 1, 1), (1, 1, 1), (1, 3, 1))
    assert extremal_path_to(od, 3, 2, "max") == ((2, 2, 1), (2, 2, 1))


def _natural_refill_reference(v, side):
    """Walk down from ``v`` to the root key, removing one unit at the smallest
    (min) or largest (max) occupied coordinate."""
    counts = dict(v)
    edges = []
    while counts:
        c = min(counts) if side == "min" else max(counts)
        below = dict(counts)
        below[c] -= 1
        if not below[c]:
            del below[c]
        edges.append((key(*below.items()), key(*counts.items()), 1))
        counts = below
    return tuple(reversed(edges))


def test_natural_refill_recipe_matches_generic_descent():
    for signed, v in (("z", key((-2, 2), (0, 1), (3, 2))), ("n", key((1, 2), (2, 1), (4, 3)))):
        od = OrderedDiagram(PascalDiagram(signed), "natural")
        level = sum(m for _, m in v)
        for side in ("min", "max"):
            assert extremal_path_to(od, level, v, side) == _natural_refill_reference(v, side)


def test_minimal_refill_fills_smallest_position_first():
    od = OrderedDiagram(PascalDiagram("n"), "natural")
    v = key((1, 1), (3, 1))
    lo = extremal_path_to(od, 2, v, "min")
    hi = extremal_path_to(od, 2, v, "max")
    # minimal: the level-1 vertex still holds the larger position
    assert lo == ((key(), key((3, 1)), 1), (key((3, 1)), v, 1))
    assert hi == ((key(), key((1, 1)), 1), (key((1, 1)), v, 1))


# ---------------------------------------------------------------------------
# single adic steps


def test_step_replaces_first_nonmaximal_edge():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, ((2, 3, 1),))
    y = vershik_step(od, x)
    assert y == PathRep(1, ((3, 3, 1),))
    assert vershik_inverse(od, y) == x


def test_step_rebuilds_minimally_below_the_changed_edge():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, ((3, 3, 1), (3, 4, 1)))  # bottom edge maximal, top edge not
    y = vershik_step(od, x)
    assert y == PathRep(1, ((1, 4, 1), (4, 4, 1)))


def test_step_errors_without_tail_information():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, ((3, 3, 1),))
    with pytest.raises(DeepenPrefixError) as info:
        vershik_step(od, x)
    assert info.value.missing == [("prefix-level", 3)]
    with pytest.raises(DeepenPrefixError):
        vershik_inverse(od, PathRep(1, ((1, 3, 1),)))


def test_step_resolves_vertical_tails():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    with pytest.raises(MaximalPathError):
        vershik_step(od, PathRep(1, (), VerticalAt(5)))
    with pytest.raises(MinimalPathError):
        vershik_inverse(od, PathRep(1, (), VerticalAt(1)))
    # vertical at 5 is not minimal: its predecessor exists
    x = PathRep(1, (), VerticalAt(5))
    y = vershik_inverse(od, x)
    assert y.edges == ((4, 5, 1),)
    assert isinstance(y.tail, VerticalAt) and y.tail.vertex == 5


def test_step_materializes_through_a_diagonal_tail():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, (), DiagonalFrom(1))
    y = vershik_step(od, x)
    assert y.edges == ((2, 2, 1),)
    assert isinstance(y.tail, DiagonalFrom) and y.tail.vertex == 2


def test_step_on_concentrating_tail_raises_only_when_truly_extremal():
    od = OrderedDiagram(PascalDiagram("n"), "natural")
    top = PathRep(0, (), PascalConcentrating(3))
    with pytest.raises(MaximalPathError):
        vershik_step(od, top)
    with pytest.raises(MinimalPathError):
        vershik_inverse(od, top)
    # growing support: maximal but not minimal, so the inverse digs into the tail
    grown = PathRep(0, ((key(), key((1, 1)), 1),), PascalConcentrating(2))
    with pytest.raises(MaximalPathError):
        vershik_step(od, grown)
    y = vershik_inverse(od, grown)
    assert y.edges == (
        (key(), key((2, 1)), 1),
        (key((2, 1)), key((1, 1), (2, 1)), 1),
    )
    assert y.tail == PascalConcentrating(2)


# ---------------------------------------------------------------------------
# exhaustive agreement with the sorting oracle


def test_staircase_left_to_right_matches_oracle():
    od = OrderedDiagram(staircase(2), "left-to-right")
    assert_matches_oracle(od, 4)


def test_staircase_alternating_matches_oracle():
    od = OrderedDiagram(staircase(2), "alternating")
    assert_matches_oracle(od, 4)


def test_two_coordinate_multinomial_natural_matches_oracle():
    od = OrderedDiagram(PascalDiagram(2), "natural")
    assert_matches_oracle(od, 4)


def test_three_coordinate_multinomial_natural_matches_oracle():
    od = OrderedDiagram(PascalDiagram(3), "natural")
    assert_matches_oracle(od, 3)


def test_odometer_column_matches_oracle():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    assert_matches_oracle(od, 5)


def test_binfty_cyclic_tower_matches_oracle_sort():
    d = BinftyDiagram()
    od = OrderedDiagram(d, "cyclic")
    stop, top_level, v = 1, 4, 3
    paths = oracles.enumerate_paths_down(d, top_level, v, stop)
    paths.sort(key=lambda p: oracles.adic_sort_key(p, oracle_order(od, stop)))
    cur = from_oracle(stop, paths[0])
    for expected in paths[1:]:
        cur = vershik_step(od, cur)
        assert to_oracle(cur) == expected
    with pytest.raises(DeepenPrefixError):
        vershik_step(od, cur)


def test_odometer_column_walk_is_binary_counting():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    depth = 5
    cur = PathRep(0, tuple((1, 1, 1) for _ in range(depth)))
    for value in range(2 ** depth):
        expected = tuple((1, 1, ((value >> j) & 1) + 1) for j in range(depth))
        assert cur.edges == expected
        if value < 2 ** depth - 1:
            cur = vershik_step(od, cur)


def test_bijection_report_on_towers():
    od = OrderedDiagram(staircase(2), "left-to-right")
    report = bijection_check(od, 4)
    assert report.ok
    hs = heights(od.diagram, 5)
    assert {t.top_vertex: t.paths for t in report.towers} == hs
    assert report.total_paths == sum(hs.values())


def test_a_bijection_check_validates_each_tower_once(monkeypatch):
    calls = []
    checked = vershik.validate_path

    def counted(diagram, path):
        calls.append(path)
        return checked(diagram, path)

    monkeypatch.setattr(vershik, "validate_path", counted)
    report = bijection_check(OrderedDiagram(BinftyDiagram(), "left-to-right"), 5, tops=[1, 2, 3, 4])
    assert report.ok and report.total_paths == 84
    assert len(calls) == 4  # one per tower walk, none per step


def test_enumerate_prefixes_requires_positive_depth():
    od = OrderedDiagram(staircase(2), "left-to-right")
    with pytest.raises(DiagramError):
        enumerate_prefixes(od, 0)


def test_enumerate_prefixes_needs_tops_on_infinite_levels():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    with pytest.raises(DiagramError):
        enumerate_prefixes(od, 3)
    groups = enumerate_prefixes(od, 3, tops=[2])
    assert len(groups[2]) == heights(od.diagram, 4, [2])[2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=5))
def test_step_then_inverse_is_identity(coords):
    od = OrderedDiagram(PascalDiagram(2), "natural")
    u = key()
    edges = []
    for c in coords:
        v = key_add(u, c)
        edges.append((u, v, 1))
        u = v
    x = PathRep(0, tuple(edges))
    try:
        y = vershik_step(od, x)
    except DeepenPrefixError:
        return  # the all-maximal prefix of its tower
    assert vershik_inverse(od, y) == x
    stop = 0
    before = oracles.adic_sort_key(to_oracle(x), oracle_order(od, stop))
    after = oracles.adic_sort_key(to_oracle(y), oracle_order(od, stop))
    assert after > before


# ---------------------------------------------------------------------------
# classification of prefix-plus-tail paths


def test_left_to_right_classification_on_binfty():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    assert classify_extremal(od, PathRep(1, (), VerticalAt(1))) is ExtremalClass.SPECIAL
    assert classify_extremal(od, PathRep(1, (), VerticalAt(3))) is ExtremalClass.MAX_C
    assert classify_extremal(od, PathRep(1, (), DiagonalFrom(2))) is ExtremalClass.NOT_EXTREMAL
    assert classify_extremal(od, PathRep(1, ((3, 3, 1),))) is ExtremalClass.NOT_EXTREMAL


def test_left_to_right_classification_on_the_staircase():
    od = OrderedDiagram(staircase(2), "left-to-right")
    # the slant-then-vertical frontier paths are maximal
    y1 = PathRep(1, ((2, 3, 1),), VerticalAt(3))
    assert classify_extremal(od, y1) is ExtremalClass.MAX_C
    # the rightmost frontier diagonal stays maximal forever
    y_inf = PathRep(1, (), DiagonalFrom(2))
    assert classify_extremal(od, y_inf) is ExtremalClass.MAX_C
    # a diagonal away from the frontier is not
    inner = PathRep(1, ((2, 2, 1),), DiagonalFrom(2))
    assert classify_extremal(od, inner) is ExtremalClass.NOT_EXTREMAL
    # the leftmost vertical is maximal and minimal at once
    assert classify_extremal(od, PathRep(1, (), VerticalAt(2))) is ExtremalClass.SPECIAL


def test_alternating_order_has_a_unique_two_sided_path():
    for d in (BinftyDiagram(), staircase(2)):
        od = OrderedDiagram(d, "alternating")
        leftmost = 1 if isinstance(d, BinftyDiagram) else 2
        z = PathRep(1, (), VerticalAt(leftmost))
        assert classify_extremal(od, z) is ExtremalClass.SPECIAL
        for v in range(leftmost + 1, leftmost + 4):
            start = 1 if isinstance(d, BinftyDiagram) else v - 1
            vert = PathRep(start, (), VerticalAt(v))
            assert classify_extremal(od, vert) is ExtremalClass.NOT_EXTREMAL
        diag = PathRep(1, (), DiagonalFrom(leftmost))
        assert classify_extremal(od, diag) is ExtremalClass.NOT_EXTREMAL


def test_cyclic_classification_on_binfty():
    od = OrderedDiagram(BinftyDiagram(), "cyclic")
    assert classify_extremal(od, PathRep(1, (), VerticalAt(1))) is ExtremalClass.SPECIAL
    for i in (2, 3, 5):
        assert classify_extremal(od, PathRep(1, (), VerticalAt(i))) is ExtremalClass.MAX_C
    assert classify_extremal(od, PathRep(1, (), DiagonalFrom(2))) is ExtremalClass.MIN_C
    # vertical at 1 for a while, then slanting: still minimal, never maximal
    z3 = PathRep(1, ((1, 1, 1), (1, 1, 1)), DiagonalFrom(1))
    assert classify_extremal(od, z3) is ExtremalClass.MIN_C


def test_concentrating_tail_classification():
    od = OrderedDiagram(PascalDiagram("n"), "natural")
    assert classify_extremal(od, PathRep(0, (), PascalConcentrating(4))) is ExtremalClass.SPECIAL
    grown = PathRep(
        0,
        ((key(), key((1, 1)), 1), (key((1, 1)), key((1, 1), (2, 1)), 1)),
        PascalConcentrating(2),
    )
    assert classify_extremal(od, grown) is ExtremalClass.MAX_C
    shrunk = PathRep(
        0,
        ((key(), key((2, 1)), 1), (key((2, 1)), key((1, 1), (2, 1)), 1)),
        PascalConcentrating(1),
    )
    assert classify_extremal(od, shrunk) is ExtremalClass.MIN_C
    # concentrating in the middle of the support is neither
    both = PathRep(
        0,
        (
            (key(), key((1, 1)), 1),
            (key((1, 1)), key((1, 1), (3, 1)), 1),
        ),
        PascalConcentrating(2),
    )
    assert classify_extremal(od, both) is ExtremalClass.NOT_EXTREMAL


def test_odometer_column_extremes():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    zero = PathRep(0, (), VerticalAt(1, "first"))
    ones = PathRep(0, (), VerticalAt(1, "last"))
    assert classify_extremal(od, zero) is ExtremalClass.MIN_C
    assert classify_extremal(od, ones) is ExtremalClass.MAX_C
    assert succ_pred(od, ones) == frozenset({zero})
    assert succ_pred(od, zero) == frozenset({ones})


# ---------------------------------------------------------------------------
# successor / predecessor candidate sets


def test_succ_pred_policies_by_order():
    ltr = OrderedDiagram(staircase(2), "left-to-right")
    y_inf = PathRep(1, (), DiagonalFrom(2))
    assert succ_pred(ltr, y_inf) == frozenset({PathRep(1, (), VerticalAt(2))})
    special = PathRep(1, (), VerticalAt(2))
    assert succ_pred(ltr, special) == frozenset({special})
    with pytest.raises(DiagramError):
        succ_pred(ltr, PathRep(1, ((2, 3, 1),)))  # not provably extremal

    cyc = OrderedDiagram(BinftyDiagram(), "cyclic")
    assert succ_pred(cyc, PathRep(1, (), VerticalAt(4))) == frozenset()
    assert succ_pred(cyc, PathRep(1, (), DiagonalFrom(3))) == frozenset()
    assert succ_pred(cyc, PathRep(1, (), VerticalAt(1))) == frozenset()

    nat = OrderedDiagram(PascalDiagram("n"), "natural")
    grown = PathRep(
        0,
        ((key(), key((1, 1)), 1), (key((1, 1)), key((1, 1), (2, 1)), 1)),
        PascalConcentrating(2),
    )
    assert succ_pred(nat, grown) == frozenset({PathRep(0, (), PascalConcentrating(2))})
    vert = PathRep(0, (), PascalConcentrating(7))
    assert succ_pred(nat, vert) == frozenset({vert})


ROOT = key()
GROWN = ((ROOT, key((1, 1)), 1), (key((1, 1)), key((1, 1), (2, 1)), 1))
SHRUNK = ((ROOT, key((2, 1)), 1), (key((2, 1)), key((1, 1), (2, 1)), 1))
SPLIT = ((ROOT, key((1, 1)), 1), (key((1, 1)), key((1, 1), (3, 1)), 1))
RULE_DIAGRAMS = {
    "binfty": BinftyDiagram,
    "staircase1": lambda: staircase(1),
    "staircase2": lambda: staircase(2),
    "binfty-column1": lambda: build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "constant", "vertex": 1}),
    "binfty-column3": lambda: build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "constant", "vertex": 3}),
    "odometer-column": odometer_column,
    "pascal-n": lambda: PascalDiagram("n"),
    "pascal-z": lambda: PascalDiagram("z"),
}
NOT_EXTREMAL = "the path is not provably extremal; it has an ordinary adic image"


def reversed_ltr(diagram, level, v):
    return [(w, 1) for w in range(v, 0, -1)]


# (diagram, order, path, scan_tail on "max", on "min", class, candidates or error text); a scan
# result is "all", "unknown" or the depth of the first non-extremal tail edge
ORDER_RULES = [
    ("binfty", "left-to-right", PathRep(1, (), VerticalAt(1)), "all", "all", "Special", {PathRep(1, (), VerticalAt(1))}),
    ("binfty", "left-to-right", PathRep(1, (), VerticalAt(3)), "all", 1, "MaxC", {PathRep(1, (), VerticalAt(1))}),
    ("binfty", "left-to-right", PathRep(1, (), DiagonalFrom(1)), 1, 2, "NotExtremal", NOT_EXTREMAL),
    ("binfty", "left-to-right", PathRep(1, ((3, 3, 1),)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
    ("staircase1", "left-to-right", PathRep(1, (), DiagonalFrom(1)), "all", 2, "MaxC", {PathRep(1, (), VerticalAt(1))}),
    ("staircase2", "left-to-right", PathRep(1, (), VerticalAt(2)), "all", "all", "Special", {PathRep(1, (), VerticalAt(2))}),
    ("staircase2", "left-to-right", PathRep(1, ((2, 3, 1),), VerticalAt(3)), "all", 1, "MaxC",
     {PathRep(1, (), VerticalAt(2))}),
    ("staircase2", "left-to-right", PathRep(1, (), DiagonalFrom(2)), "all", 2, "MaxC", {PathRep(1, (), VerticalAt(2))}),
    ("staircase2", "left-to-right", PathRep(1, ((2, 2, 1),), DiagonalFrom(2)), 1, 2, "NotExtremal", NOT_EXTREMAL),
    ("binfty-column1", "left-to-right", PathRep(1, (), VerticalAt(1)), "all", "all", "Special",
     {PathRep(1, (), VerticalAt(1))}),
    ("binfty-column3", "left-to-right", PathRep(1, (), VerticalAt(3)), "all", "all", "Special",
     {PathRep(1, (), VerticalAt(3))}),
    ("odometer-column", "left-to-right", PathRep(0, (), VerticalAt(1, "first")), 1, "all", "MinC",
     {PathRep(0, (), VerticalAt(1, "last"))}),
    ("odometer-column", "left-to-right", PathRep(0, (), VerticalAt(1, "last")), "all", 1, "MaxC",
     {PathRep(0, (), VerticalAt(1, "first"))}),
    ("pascal-n", "left-to-right", PathRep(0, (), PascalConcentrating(4)), "unknown", "unknown", "NotExtremal",
     NOT_EXTREMAL),
    ("binfty", "alternating", PathRep(1, (), VerticalAt(1)), "all", "all", "Special", {PathRep(1, (), VerticalAt(1))}),
    ("binfty", "alternating", PathRep(1, (), VerticalAt(3)), 1, 2, "NotExtremal", NOT_EXTREMAL),
    ("binfty", "alternating", PathRep(1, (), DiagonalFrom(1)), 2, 1, "NotExtremal", NOT_EXTREMAL),
    ("staircase1", "alternating", PathRep(1, (), VerticalAt(1)), "all", "all", "Special",
     {PathRep(1, (), VerticalAt(1))}),
    ("staircase2", "alternating", PathRep(1, ((2, 3, 1),), VerticalAt(3)), 2, 1, "NotExtremal", NOT_EXTREMAL),
    ("staircase2", "alternating", PathRep(1, (), DiagonalFrom(2)), 3, 2, "NotExtremal", NOT_EXTREMAL),
    ("binfty-column1", "alternating", PathRep(1, (), VerticalAt(1)), "all", "all", "Special",
     {PathRep(1, (), VerticalAt(1))}),
    ("binfty-column3", "alternating", PathRep(1, (), VerticalAt(3)), "all", "all", "Special",
     {PathRep(1, (), VerticalAt(3))}),
    ("odometer-column", "alternating", PathRep(0, (), VerticalAt(1, "first")), 1, 2, "NotExtremal", NOT_EXTREMAL),
    ("odometer-column", "alternating", PathRep(0, (), VerticalAt(1, "last")), 2, 1, "NotExtremal", NOT_EXTREMAL),
    ("pascal-n", "alternating", PathRep(0, GROWN, PascalConcentrating(2)), "unknown", "unknown", "NotExtremal",
     NOT_EXTREMAL),
    ("binfty", "cyclic", PathRep(1, (), VerticalAt(1)), "all", "all", "Special", set()),
    ("binfty", "cyclic", PathRep(1, (), VerticalAt(3)), "all", 1, "MaxC", set()),
    ("binfty", "cyclic", PathRep(1, (), DiagonalFrom(2)), 1, "all", "MinC", set()),
    ("binfty", "cyclic", PathRep(1, ((1, 1, 1), (1, 1, 1)), DiagonalFrom(1)), 1, "all", "MinC", set()),
    ("binfty", "cyclic", PathRep(1, ((3, 3, 1),)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
    ("staircase1", "cyclic", PathRep(1, (), DiagonalFrom(1)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
    ("staircase2", "cyclic", PathRep(1, (), VerticalAt(2)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
    ("binfty-column1", "cyclic", PathRep(1, (), VerticalAt(1)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
    ("pascal-n", "natural", PathRep(0, (), PascalConcentrating(4)), "all", "all", "Special",
     {PathRep(0, (), PascalConcentrating(4))}),
    ("pascal-n", "natural", PathRep(0, GROWN, PascalConcentrating(2)), "all", 1, "MaxC",
     {PathRep(0, (), PascalConcentrating(2))}),
    ("pascal-n", "natural", PathRep(0, SHRUNK, PascalConcentrating(1)), 1, "all", "MinC",
     {PathRep(0, (), PascalConcentrating(1))}),
    ("pascal-n", "natural", PathRep(0, SPLIT, PascalConcentrating(2)), 1, 1, "NotExtremal", NOT_EXTREMAL),
    ("pascal-z", "natural", PathRep(0, (), PascalConcentrating(-2)), "all", "all", "Special",
     {PathRep(0, (), PascalConcentrating(-2))}),
    ("binfty", reversed_ltr, PathRep(1, (), VerticalAt(1)), "unknown", "unknown", "NotExtremal", NOT_EXTREMAL),
]


@pytest.mark.parametrize("family, order, path, on_max, on_min, cls, candidates", ORDER_RULES,
                         ids=["%s-%s-%d" % (row[0], row[1] if isinstance(row[1], str) else "custom", i)
                              for i, row in enumerate(ORDER_RULES)])
def test_each_order_rule_decides_tails_classes_and_candidates(family, order, path, on_max, on_min, cls,
                                                             candidates):
    od = OrderedDiagram(RULE_DIAGRAMS[family](), order)
    for side, want in (("max", on_max), ("min", on_min)):
        assert vershik.scan_tail(od, path, side) == ((want, None) if isinstance(want, str) else ("found", want))
    assert classify_extremal(od, path).value == cls
    if isinstance(candidates, str):
        with pytest.raises(DiagramError) as info:
            succ_pred(od, path)
        assert str(info.value) == candidates
    else:
        assert succ_pred(od, path) == frozenset(candidates)


def test_left_to_right_sends_maximal_paths_to_the_leftmost_vertical_and_flips_a_column_slot():
    ltr = OrderedDiagram(BinftyDiagram(), "left-to-right")
    # the big maximal class converges onto the leftmost vertical
    assert succ_pred(ltr, PathRep(1, (), VerticalAt(9))) == frozenset(
        {PathRep(1, (), VerticalAt(1))}
    )
    # on an odometer column the all-first minimal path steps back to the all-last one
    ltr_col = OrderedDiagram(odometer_column(2), "left-to-right")
    assert succ_pred(ltr_col, PathRep(0, (), VerticalAt(1, "first"))) == frozenset(
        {PathRep(0, (), VerticalAt(1, "last"))}
    )


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_classification_table():
    assert classify_descriptor(PascalPathDescriptor("max", (2,), (None,))) is ExtremalClass.SPECIAL
    assert (
        classify_descriptor(PascalPathDescriptor("max", (1, 3), (2, None)))
        is ExtremalClass.MAX_C
    )
    assert (
        classify_descriptor(PascalPathDescriptor("min", (3, 1), (2, None)))
        is ExtremalClass.MIN_C
    )
    up = PascalPathDescriptor("max", (1,), (1,), position_tail=(3, 2), value_tail=1)
    assert classify_descriptor(up) is ExtremalClass.MAX_U
    down = PascalPathDescriptor("min", (5,), (2,), position_tail=(3, 1), value_tail=2)
    assert classify_descriptor(down, "z") is ExtremalClass.MIN_U


def test_descriptor_validation_rules():
    with pytest.raises(DiagramError):  # positions must move monotonically
        classify_descriptor(PascalPathDescriptor("max", (3, 1), (1, None)))
    with pytest.raises(DiagramError):  # unbounded value only in the last slot
        classify_descriptor(PascalPathDescriptor("max", (1, 2), (None, None)))
    with pytest.raises(DiagramError):  # finite lists need an unbounded ending
        classify_descriptor(PascalPathDescriptor("max", (1, 2), (1, 1)))
    with pytest.raises(DiagramError):  # no infinite descent inside positive positions
        classify_descriptor(
            PascalPathDescriptor("min", (5,), (1,), position_tail=(4, 1), value_tail=1),
            "n",
        )
    with pytest.raises(DiagramError):  # positive domain starts at 1
        classify_descriptor(PascalPathDescriptor("max", (0, 2), (1, None)), "n")
    with pytest.raises(DiagramError):  # a tail cannot follow an unbounded value
        classify_descriptor(
            PascalPathDescriptor("max", (1,), (None,), position_tail=(2, 1), value_tail=1)
        )


def test_descriptor_vertices_fill_positions_in_order():
    desc = PascalPathDescriptor("max", (1, 3), (2, None))
    assert descriptor_vertex(desc, 1) == key((1, 1))
    assert descriptor_vertex(desc, 2) == key((1, 2))
    assert descriptor_vertex(desc, 3) == key((1, 2), (3, 1))
    assert descriptor_vertex(desc, 6) == key((1, 2), (3, 4))
    up = PascalPathDescriptor("max", (1,), (1,), position_tail=(2, 1), value_tail=1)
    assert descriptor_vertex(up, 4) == key((1, 1), (2, 1), (3, 1), (4, 1))


def test_descriptor_prefix_agrees_with_path_classification():
    d = PascalDiagram("n")
    od = OrderedDiagram(d, "natural")
    cases = [
        (PascalPathDescriptor("max", (2,), (None,)), ExtremalClass.SPECIAL),
        (PascalPathDescriptor("max", (1, 3), (2, None)), ExtremalClass.MAX_C),
        (PascalPathDescriptor("min", (3, 1), (2, None)), ExtremalClass.MIN_C),
    ]
    for desc, cls in cases:
        assert classify_descriptor(desc, "n") is cls
        path = descriptor_prefix(desc, d, 6)
        validate_path(d, path)
        assert classify_extremal(od, path) is cls
        for n in range(7):
            assert path.vertex_at(n) == descriptor_vertex(desc, n)
    up = PascalPathDescriptor("max", (1,), (1,), position_tail=(2, 1), value_tail=1)
    path = descriptor_prefix(up, d, 6)
    assert isinstance(path.tail, Unspecified)
    assert classify_extremal(od, path) is ExtremalClass.NOT_EXTREMAL  # no finite certificate
    from bratteli.vershik import _first_nonextremal_index

    assert _first_nonextremal_index(od, path.start, path.edges, "max") is None  # every known edge is maximal


def test_descriptor_candidate_sets():
    up = PascalPathDescriptor("max", (1,), (1,), position_tail=(3, 2), value_tail=1)
    assert succ_pred_descriptor(up) == frozenset()
    down = PascalPathDescriptor("min", (5,), (2,), position_tail=(3, 1), value_tail=2)
    assert succ_pred_descriptor(down, "z") == frozenset()
    countable = PascalPathDescriptor("max", (1, 4), (3, None))
    assert succ_pred_descriptor(countable) == frozenset(
        {PascalPathDescriptor("max", (4,), (None,))}
    )
    special = PascalPathDescriptor("min", (2,), (None,))
    assert succ_pred_descriptor(special) == frozenset({special})


def test_succ_pred_accepts_descriptors_only_with_the_natural_order():
    nat = OrderedDiagram(PascalDiagram("z"), "natural")
    desc = PascalPathDescriptor("max", (1, 3), (2, None))
    assert succ_pred(nat, desc) == frozenset({PascalPathDescriptor("max", (3,), (None,))})
    ltr = OrderedDiagram(BinftyDiagram(), "left-to-right")
    with pytest.raises(DiagramError):
        succ_pred(ltr, desc)


# ---------------------------------------------------------------------------
# the max -> min reflection


def mirror_corpus():
    corpus = []
    for i1 in (-3, -1, 0, 2, 5):
        for extra in ((), (1,), (2, 5), (1, 2, 4)):
            positions = (i1,) + tuple(i1 + e for e in extra)
            values = tuple(1 + (j % 3) for j in range(len(positions) - 1)) + (None,)
            corpus.append(PascalPathDescriptor("max", positions, values))
    for i1 in (-2, 0, 3):
        for step in (1, 2):
            corpus.append(
                PascalPathDescriptor(
                    "max", (i1,), (2,), position_tail=(i1 + step, step), value_tail=1
                )
            )
    return corpus


def test_mirror_reflects_positions_and_keeps_values():
    corpus = mirror_corpus()
    assert len(corpus) >= 20
    images = set()
    for desc in corpus:
        out, clipped = mirror_descriptor(desc, "z")
        assert not clipped
        assert out.side == "min"
        assert out.values == desc.values
        assert out.positions[0] == desc.positions[0]
        i1 = desc.positions[0]
        assert out.positions == tuple(2 * i1 - i for i in desc.positions)
        # reflecting back recovers the original positions
        assert tuple(2 * i1 - i for i in out.positions) == desc.positions
        cls_in = classify_descriptor(desc, "z")
        cls_out = classify_descriptor(out, "z")
        assert (cls_in, cls_out) in {
            (ExtremalClass.MAX_C, ExtremalClass.MIN_C),
            (ExtremalClass.MAX_U, ExtremalClass.MIN_U),
            (ExtremalClass.SPECIAL, ExtremalClass.SPECIAL),
        }
        images.add(out)
    assert len(images) == len(corpus)  # the reflection is one-to-one


def test_mirror_fixes_vertical_descriptors():
    for i in (-4, 0, 7):
        desc = PascalPathDescriptor("max", (i,), (None,))
        out, clipped = mirror_descriptor(desc, "z")
        assert out == PascalPathDescriptor("min", (i,), (None,)) and not clipped


def test_mirror_on_the_positive_domain_clamps_a_single_overshoot():
    ok = PascalPathDescriptor("max", (3, 4), (1, None))
    out, clipped = mirror_descriptor(ok, "n")
    assert out.positions == (3, 2) and not clipped
    clamped = PascalPathDescriptor("max", (3, 4, 6), (1, 1, None))
    out, clipped = mirror_descriptor(clamped, "n")
    assert clipped and out.positions == (3, 2, 1)
    assert classify_descriptor(out, "n") is ExtremalClass.MIN_C
    with pytest.raises(DiagramError):  # two positions fall below 1
        mirror_descriptor(PascalPathDescriptor("max", (3, 4, 6, 7), (1, 1, 1, None)), "n")
    with pytest.raises(DiagramError):  # the clamp would collide with position 1
        mirror_descriptor(PascalPathDescriptor("max", (2, 3, 4), (1, 1, None)), "n")
    with pytest.raises(DiagramError):  # ever-growing support cannot reflect into positives
        mirror_descriptor(
            PascalPathDescriptor("max", (1,), (1,), position_tail=(2, 1), value_tail=1), "n"
        )


def test_mirror_requires_the_maximal_side():
    with pytest.raises(DiagramError):
        mirror_descriptor(PascalPathDescriptor("min", (2,), (None,)), "z")


# ---------------------------------------------------------------------------
# orbits


def test_orbit_counts_level_visits_like_path_counts():
    od = OrderedDiagram(staircase(2), "left-to-right")
    top_level, v = 5, 4
    hs = heights(od.diagram, top_level)
    start = PathRep(1, extremal_path_to(od, top_level, v, "min"))
    result = orbit(od, start, hs[v] - 1, visit_level=3)
    assert len(result.paths) == hs[v]
    expected = {}
    for w in od.diagram.level_vertices(3):
        through = heights(od.diagram, 3)[w] * oracles.transition_count(
            od.diagram, 3, top_level - 3, v, w
        )
        if through:
            expected[w] = through
    assert result.visits == expected


def test_orbit_reports_the_failing_step():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    start = PathRep(0, tuple((1, 1, 1) for _ in range(5)))
    full = orbit(od, start, 31)
    assert len({p.edges for p in full.paths}) == 32
    with pytest.raises(DeepenPrefixError) as info:
        orbit(od, start, 32)
    assert info.value.step_index == 31
    assert "step 31" in str(info.value)


def test_orbit_with_zero_steps_returns_the_path():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, ((2, 3, 1),))
    result = orbit(od, x, 0, visit_level=2)
    assert result.paths == [x]
    assert result.visits == {3: 1}


# Orbits validate their start path once and then trust every step, so a step
# must map a valid path to a valid one.  The cases are the families and orders
# of the adic-orbit benchmark, each started from its minimal path.
ORBIT_CASES = {
    "odometer-column-ltr-30": (lambda: odometer_column(2), "left-to-right", 30, 1),
    "odometer-column-alternating-60": (lambda: odometer_column(2), "alternating", 60, 1),
    "binfty-ltr": (BinftyDiagram, "left-to-right", 16, 7),
    "binfty-cyclic": (BinftyDiagram, "cyclic", 16, 7),
    "staircase-ltr": (lambda: staircase(2), "left-to-right", 14, 10),
    "pascal-n-natural": (lambda: PascalDiagram("n"), "natural", 13, key((2, 4), (3, 4), (4, 5))),
}


def _minimal_start(make, order, level, v):
    od = OrderedDiagram(make(), order)
    return od, PathRep(od.diagram.base_level, extremal_path_to(od, level, v, "min"))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_every_orbit_step_keeps_the_path_valid_and_invertible(case):
    od, start = _minimal_start(*ORBIT_CASES[case])
    result = orbit(od, start, 250)
    assert len({p.edges for p in result.paths}) == 251
    for p in result.paths:
        validate_path(od.diagram, p)
    for before, after in zip(result.paths, result.paths[1:]):
        assert vershik_inverse(od, after) == before


def _diagonal_tail_start():
    """A binfty path whose prefix turns all-maximal six times in 1,000 steps, so
    the orbit materializes its diagonal tail partway through."""
    return OrderedDiagram(BinftyDiagram(), "left-to-right"), PathRep(1, ((1, 2, 1),), DiagonalFrom(2))


CHAINED_CASES = {
    **{case: lambda case=case: _minimal_start(*ORBIT_CASES[case]) for case in ORBIT_CASES},
    "binfty-ltr-diagonal-tail": _diagonal_tail_start,
}


@pytest.mark.parametrize("case", sorted(CHAINED_CASES))
def test_an_orbit_equals_chained_validated_steps(case, monkeypatch):
    # vershik_step scans every path afresh; the orbit carries each step's scan index to the next
    od, start = CHAINED_CASES[case]()
    chained = [start]
    for _ in range(1000):
        chained.append(vershik_step(od, chained[-1]))
    materialized = []
    inner = vershik.materialize

    def counted(od, path, depth):
        materialized.append(depth)
        return inner(od, path, depth)

    monkeypatch.setattr(vershik, "materialize", counted)
    od, start = CHAINED_CASES[case]()
    result = orbit(od, start, 1000)
    assert result.paths == chained
    assert len(materialized) == (6 if case == "binfty-ltr-diagonal-tail" else 0)
    for p in result.paths:
        assert type(p.edges) is tuple
        assert all(type(e) is tuple and len(e) == 3 for e in p.edges)


ORBIT_CLI_ARGS = {
    "odometer-column-ltr-30": ("--family", "odometer-io", "--a", "2", "--sub", "constant:1"),
    "odometer-column-alternating-60": ("--family", "odometer-io", "--a", "2", "--sub", "constant:1"),
    "binfty-ltr": ("--family", "binfty"),
    "binfty-cyclic": ("--family", "binfty"),
    "staircase-ltr": ("--family", "binfty", "--sub", "staircase:2"),
    "pascal-n-natural": ("--family", "pascal-n"),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_the_orbit_command_folds_the_same_orbit(case):
    order, level = ORBIT_CASES[case][1:3]
    od, start = _minimal_start(*ORBIT_CASES[case])
    visit_level = (od.diagram.base_level + level) // 2
    result = orbit(od, start, 1000, visit_level=visit_level)
    out = CliRunner().invoke(cli, [
        "orbit", *ORBIT_CLI_ARGS[case], "--order", order, "--steps", "1000",
        "--path", json.dumps(path_to_json(start)), "--visit-level", str(visit_level)])
    assert out.exit_code == 0, out.output
    data = json.loads(out.output)
    assert data["first"] == path_to_json(result.paths[0])
    assert data["last"] == path_to_json(result.paths[-1])
    assert data["paths_seen"] == len(result.paths) == 1001
    assert data["visits"] == {_vkey(w): n for w, n in result.visits.items()}


def test_the_binfty_benchmark_cli_orbit_holds_no_visited_paths():
    path = json.dumps({"start": 1, "edges": [[1, 1, 1]] * 14 + [[1, 7, 1]]})
    argv = ["orbit", "--family", "binfty", "--order", "left-to-right", "--path", path, "--visit-level", "8"]
    assert CliRunner().invoke(cli, [*argv, "--steps", "1"]).exit_code == 0  # warm the CLI's own caches
    tracemalloc.start()
    try:
        out = CliRunner().invoke(cli, [*argv, "--steps", "8000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.exit_code == 0 and json.loads(out.output)["paths_seen"] == 8001
    assert peak < 500_000  # the 8,001 paths alone took 3.4 MB while the command kept them all


GOLDEN_ORBITS = json.loads(Path(__file__).with_name("golden_orbit.json").read_text())


def _golden_orbit_index(case):
    """The index of the ``golden_orbit.json`` entry that runs ``case``'s family and order."""
    order = ORBIT_CASES[case][1]
    for i, entry in enumerate(GOLDEN_ORBITS):
        argv = entry["argv"]
        at = argv.index("--order")
        if tuple(argv[1:at]) == ORBIT_CLI_ARGS[case] and argv[at + 1] == order:
            return i
    raise LookupError(case)


def _golden_orbit_start(case):
    argv = GOLDEN_ORBITS[_golden_orbit_index(case)]["argv"]
    make, order = ORBIT_CASES[case][:2]
    return OrderedDiagram(make(), order), path_from_json(json.loads(argv[argv.index("--path") + 1]))


def test_every_golden_orbit_has_its_case():
    assert sorted(map(_golden_orbit_index, ORBIT_CASES)) == list(range(len(GOLDEN_ORBITS)))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_a_golden_orbit_streams_iterated_steps_and_inverse_steps_walk_it_back(case):
    od, start = _golden_orbit_start(case)
    streamed = list(orbit_paths(od, start, 299))
    stepped = [start]
    for _ in range(299):
        stepped.append(vershik_step(od, stepped[-1]))
    assert streamed == stepped
    back = [streamed[-1]]
    for _ in range(299):
        back.append(vershik_inverse(od, back[-1]))
    assert back[::-1] == streamed


# orbit_end against stepping: orbit_walk plus the visit fold `bratteli orbit` made before it jumped


def _walked_end(od, path, steps, visit_level):
    if visit_level is not None:
        path.vertex_at(visit_level)
    visits = Counter()
    for edges, tail in orbit_walk(od, path, steps):
        if visit_level is not None:
            visits[vershik._vertex_at(path.start, edges, tail, visit_level)] += 1
    return edges, tail, dict(visits)


def _outcome(run, od, path, steps, visit_level):
    try:
        edges, tail, visits = run(od, path, steps, visit_level)
    except DiagramError as e:
        return type(e), str(e), getattr(e, "step_index", None), getattr(e, "missing", None)
    return "ok", tuple(edges), tail, visits


def _column_binfty():
    return build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "constant", "vertex": 3})


# (diagram, orders, the tail kinds it carries besides unspecified, the bound on a random top vertex)
REFEREE_FAMILIES = {
    "binfty": (BinftyDiagram, ("left-to-right", "alternating", "cyclic"), ("vertical", "diagonal"), 6),
    "staircase-2": (lambda: staircase(2), ("left-to-right", "alternating", "cyclic"), ("vertical", "diagonal"), 6),
    "column-binfty": (_column_binfty, ("left-to-right", "alternating", "cyclic"), ("vertical",), 3),
    "odometer-column": (lambda: odometer_column(2), ("left-to-right", "alternating"), ("vertical",), 1),
    "odometer-chain": (lambda: OdometerChainDiagram(2), ("left-to-right", "alternating"), (), 4),
    "pascal-n": (lambda: PascalDiagram("n"), ("natural", "left-to-right", "alternating"), ("concentrating",), 3),
    "pascal-z": (lambda: PascalDiagram("z"), ("natural", "left-to-right"), ("concentrating",), 3),
    "pascal-k": (lambda: PascalDiagram(2), ("natural", "alternating"), ("concentrating",), 2),
    "bounded-finite": (lambda: BoundedDiagram(1, finite=True), ("left-to-right", "alternating", "cyclic"), (), 5),
    "pascal-edge": (lambda: build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "pascal", "k": 2}),
                    ("left-to-right",), (), 3),
}


def _random_tail(rng, d, kinds, v):
    kind = rng.choice(("unspecified",) + kinds)
    if kind == "vertical":
        return VerticalAt(v, rng.choice(("first", "last")))
    if kind == "diagonal":
        return DiagonalFrom(v)
    if kind == "concentrating":
        return PascalConcentrating(rng.choice([c for c in range(-2, 4) if d.coord_in_domain(c)]))
    return Unspecified()


def _random_start(rng, d, kinds, bound):
    """A random path from a random start level, walked down from a random top vertex, with a tail
    that fits its end (sometimes an empty prefix, or one too shallow for the orbit)."""
    start = d.base_level + rng.choice((0, 0, 1, 2, 3))
    top = start + rng.choice((0, 1, 2, 3, 4, 5, 6, 8))
    v = rng.choice(d.level_vertices(top, bound))
    tail = _random_tail(rng, d, kinds, v)
    if top == start:  # an empty prefix, anchored by its tail
        if isinstance(tail, Unspecified):
            return None
        return PathRep(d.base_level if isinstance(tail, PascalConcentrating) else start, (), tail)
    edges, u = [], v
    for level in range(top, start, -1):
        w, mult = rng.choice(sorted(d.predecessors(level, u).items(), key=repr))
        edges.append((w, u, rng.randint(1, mult)))
        u = w
    return PathRep(start, tuple(reversed(edges)), tail)


def _referee_grid(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(sorted(REFEREE_FAMILIES))
        make, orders, kinds, bound = REFEREE_FAMILIES[name]
        d = make()
        path = _random_start(rng, d, kinds, bound)
        if path is None:
            continue
        levels = sorted({path.start, (path.start + path.end_level) // 2, path.end_level})
        steps = rng.choice((0, 1, 2, rng.randint(3, 40), rng.randint(3, 400)))
        yield name, rng.choice(orders), d, path, steps, rng.choice([None] + levels)


def test_orbit_end_jumps_to_the_paths_and_visits_that_stepping_meets():
    outcomes = Counter()
    for name, order, d, path, steps, visit_level in _referee_grid(2606, 1200):
        try:
            od = OrderedDiagram(d, order)
        except DiagramError:
            continue
        walked = _outcome(_walked_end, od, path, steps, visit_level)
        jumped = _outcome(orbit_end, OrderedDiagram(d, order), path, steps, visit_level)
        assert jumped == walked, (name, order, path, steps, visit_level)
        if walked[0] == "ok":
            outcomes["grew" if len(walked[1]) > len(path.edges) else "ok"] += 1
        elif walked[2]:  # a refusal after some steps
            outcomes[walked[0].__name__] += 1
    # the grid reaches tower crossings that materialize a tail, and mid-orbit refusals of both kinds
    assert outcomes["grew"] >= 20 and outcomes["ok"] >= 200, outcomes
    assert outcomes["DeepenPrefixError"] >= 20 and outcomes["MaximalPathError"] >= 10, outcomes


def _failing_rule(diagram, level, v):
    if (level, v) == (2, 2):
        raise DiagramError("no order into vertex 2 at level 2")
    return [(w, 1) for w in range(1, v + 1)]


# orders that fail a lookup partway: the cyclic order refuses the bounded-finite vertices with a source
# above them, and the walk meets the first such vertex at step 1, where its last step scans above the
# tower it has run through
LOOKUP_FAILURES = {
    "cyclic-bounded-above-the-tower": (lambda: BoundedDiagram(1, finite=True), "cyclic",
                                       PathRep(3, ((2, 3, 1), (3, 4, 1), (4, 4, 1))), 2, 3, "1..4"),
    "cyclic-bounded-deeper": (lambda: BoundedDiagram(1, finite=True), "cyclic",
                              PathRep(3, ((2, 3, 1), (3, 4, 1), (4, 3, 1), (3, 3, 1))), 2, None, "1..3"),
    "custom-refill": (BinftyDiagram, _failing_rule, PathRep(1, ((1, 1, 1), (1, 2, 1), (2, 2, 1))), 3, 2,
                      "vertex 2 at level 2"),
}


@pytest.mark.parametrize("case", sorted(LOOKUP_FAILURES))
def test_orbit_end_fails_a_lookup_at_the_step_the_walk_fails_it(case):
    make, order, path, steps, visit_level, text = LOOKUP_FAILURES[case]
    walked = _outcome(_walked_end, OrderedDiagram(make(), order), path, steps, visit_level)
    assert walked[0] is DiagramError and text in walked[1]
    assert _outcome(orbit_end, OrderedDiagram(make(), order), path, steps, visit_level) == walked


def test_orbit_end_takes_paths_deeper_than_the_recursion_limit():
    # maximal below its top edge, so the first steps leave every tower but the deepest
    depth = sys.getrecursionlimit() + 200
    path = PathRep(0, ((1, 1, 2),) * (depth - 1) + ((1, 1, 1),))
    for steps, visit_level in ((3, 1), (5, depth // 2), (2, None)):
        walked = _outcome(_walked_end, OrderedDiagram(odometer_column(2), "left-to-right"), path, steps, visit_level)
        assert walked[0] == "ok" and walked[1] != path.edges
        assert _outcome(orbit_end, OrderedDiagram(odometer_column(2), "left-to-right"), path, steps,
                        visit_level) == walked


def test_orbit_end_steps_where_the_towers_outgrow_the_walk():
    # maximal below its top edge, so the first step leaves every tower but the top one, whose cone
    # holds all 2^16 keys below the top; the walk's two steps read a few dozen of them
    coords = [*range(1, 15), 16, 15]
    keys = [()]
    for c in coords:
        keys.append(key_add(keys[-1], c))
    path = PathRep(0, tuple((u, v, 1) for u, v in zip(keys, keys[1:])))
    walked = _outcome(_walked_end, OrderedDiagram(PascalDiagram("n"), "natural"), path, 2, 8)
    od = OrderedDiagram(PascalDiagram("n"), "natural")
    assert _outcome(orbit_end, od, path, 2, 8) == walked and walked[0] == "ok"
    assert len(od._cache) < 200


def test_the_binfty_benchmark_cli_orbit_jumps_without_a_step(monkeypatch):
    steps, fills = [], Counter()
    inner_step, inner_fill = vershik._step, vershik._OrderTable.__missing__

    def counted_step(*args):
        steps.append(args[4])
        return inner_step(*args)

    def counted_fill(self, key):
        fills[key] += 1
        return inner_fill(self, key)

    monkeypatch.setattr(vershik, "_step", counted_step)
    monkeypatch.setattr(vershik._OrderTable, "__missing__", counted_fill)
    for v in (6, 7, 8):  # the benchmark's 8000-step orbits, each inside one tower of 15,504+ paths
        fills.clear()
        path = json.dumps({"start": 1, "edges": [[1, 1, 1]] * 14 + [[1, v, 1]]})
        out = CliRunner().invoke(cli, ["orbit", "--family", "binfty", "--order", "left-to-right",
                                       "--steps", "8000", "--path", path, "--visit-level", "8"])
        assert out.exit_code == 0 and json.loads(out.output)["paths_seen"] == 8001
        cone = {(16, v)} | {(level, u) for level in range(2, 16) for u in range(1, v + 1)}
        assert set(fills) <= cone and max(fills.values()) == 1
    assert steps == []


def test_an_orbit_walk_rewrites_one_live_list():
    od, start = _golden_orbit_start("binfty-ltr")
    edges_before = start.edges
    walk = orbit_walk(od, start, 200)
    live, _ = next(walk)
    seen = [tuple(live)]
    for edges, _ in walk:
        assert edges is live
        seen.append(tuple(edges))
    assert seen == [p.edges for p in orbit_paths(od, start, 200)]
    assert len(set(seen)) == 201
    assert start.edges is edges_before


def test_a_failed_orbit_step_leaves_the_live_list_at_the_last_path():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    start = PathRep(0, tuple((1, 1, 1) for _ in range(5)))
    last = orbit(od, start, 31).paths[-1]
    with pytest.raises(DeepenPrefixError) as info:
        for edges, tail in orbit_walk(od, start, 32):
            pass
    assert info.value.step_index == 31
    assert info.value.missing == [("prefix-level", 6)]
    assert tuple(edges) == last.edges and tail == last.tail


@pytest.mark.parametrize("path, side, error", [
    (PathRep(1, ((3, 3, 1),)), "max", DeepenPrefixError),
    (PathRep(1, ((1, 3, 1),)), "min", DeepenPrefixError),
    (PathRep(1, ((5, 5, 1),), VerticalAt(5)), "max", MaximalPathError),
    (PathRep(1, ((1, 1, 1),), VerticalAt(1)), "min", MinimalPathError),
], ids=["deepen-max", "deepen-min", "maximal", "minimal"])
def test_a_refused_step_writes_nothing(path, side, error):
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    validate_path(od.diagram, path)
    edges = list(path.edges)
    with pytest.raises(error):
        vershik._step(od, path.start, edges, path.tail, side)
    assert edges == list(path.edges)


def test_a_step_leaves_its_input_path_as_it_was():
    od, start = _diagonal_tail_start()
    paths = [PathRep(1, (), DiagonalFrom(1)), PathRep(1, ((3, 3, 1), (3, 4, 1))), *orbit_paths(od, start, 60)]
    for path in paths:
        edges, tail = path.edges, path.tail
        kept = PathRep(path.start, tuple(edges), tail)
        for step in (vershik_step, vershik_inverse):
            try:
                image = step(od, path)
            except DiagramError:
                continue
            assert type(image.edges) is tuple and image != path
            assert path == kept and path.edges is edges and path.tail is tail


def test_validate_path_refuses_edges_that_are_not_tuples():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    for path in (PathRep(1, [(2, 3, 1)]), PathRep(1, ([2, 3, 1],)), PathRep(1, ((2, 3),))):
        with pytest.raises(DiagramError, match="tuple"):
            validate_path(od.diagram, path)
        with pytest.raises(DiagramError, match="tuple"):
            vershik_step(od, path)
        with pytest.raises(DiagramError, match="tuple"):
            orbit(od, path, 3)


def _count_edges_into(monkeypatch):
    calls = []
    inner = OrderedDiagram.edges_into

    def counted(self, level, v):
        calls.append((level, v))
        return inner(self, level, v)

    monkeypatch.setattr(OrderedDiagram, "edges_into", counted)
    return calls


def test_the_binfty_benchmark_orbit_looks_up_each_step_order_a_bounded_number_of_times(monkeypatch):
    calls = _count_edges_into(monkeypatch)
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    start = PathRep(1, ((1, 1, 1),) * 14 + ((1, 7, 1),))  # the benchmark's minimal path to 7
    result = orbit(od, start, 8000, visit_level=8)
    assert len(result.paths) == 8001
    # one lookup per step transition the orbit meets, never per step; extremal edges are read from
    # the order table without a call: 15,204 while only refills were memoized, 298 while extremal
    # edges had tables of their own
    assert len(calls) == 154


def _walk_back(od, path, steps):
    """``path`` and its first ``steps`` adic predecessors."""
    paths = [path]
    for _ in range(steps):
        paths.append(vershik_inverse(od, paths[-1]))
    return paths


# (diagram, order, top vertex, ((start, top level), (start, top level))).  The alternating order
# reverses the order into every even level, so one edge at one index of paths from starts of
# opposite parity enters levels of opposite parity and has different images.
REUSE_CASES = {
    "binfty-alternating": (BinftyDiagram, "alternating", 4, ((1, 9), (2, 10))),
    "odometer-column-alternating": (lambda: odometer_column(2), "alternating", 1, ((0, 12), (1, 13))),
    "pascal-n-natural": (lambda: PascalDiagram("n"), "natural", key((1, 3), (2, 3), (3, 3)), ((0, 9), (3, 9))),
}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_one_ordered_diagram_reused_gives_the_paths_fresh_ones_give(case):
    make, order, v, starts = REUSE_CASES[case]
    reused = OrderedDiagram(make(), order)
    for start, top in starts:
        path = PathRep(start, extremal_path_to(OrderedDiagram(make(), order), top, v, "min", start))
        forward = orbit(reused, path, 60).paths
        assert forward == orbit(OrderedDiagram(make(), order), path, 60).paths
        assert len(set(forward)) == 61
        back = _walk_back(reused, forward[-1], 60)
        assert back == _walk_back(OrderedDiagram(make(), order), forward[-1], 60)
        assert back == forward[::-1]
    assert {k[0] for k in reused._steps} == {start for start, _ in starts}
    assert {k[3] for k in reused._steps} == {"max", "min"}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_a_repeated_orbit_adds_no_table_entries_and_reads_no_order(case, monkeypatch):
    od, start = _minimal_start(*ORBIT_CASES[case])
    tables = (od._cache, od._refills, od._steps)
    first = orbit(od, start, 500).paths
    sizes = [len(t) for t in tables]
    assert all(sizes)
    calls = _count_edges_into(monkeypatch)
    assert orbit(od, start, 500).paths == first
    assert [len(t) for t in tables] == sizes
    assert calls == []


def test_a_failed_lookup_stores_no_table_entry():
    def rule(diagram, level, v):
        if (level, v) == (2, 2):
            raise DiagramError("no order into vertex 2 at level 2")
        return [(w, 1) for w in range(1, v + 1)]

    od = OrderedDiagram(BinftyDiagram(), rule)
    path = PathRep(1, ((1, 1, 1), (1, 2, 1), (2, 2, 1)))  # its step refills down from vertex 2 at level 2
    walk = orbit_walk(od, path, 3)
    edges, _ = next(walk)
    with pytest.raises(DiagramError, match="no order into vertex 2 at level 2") as info:
        next(walk)
    assert info.value.step_index == 0 and edges == list(path.edges)
    assert (2, 2) not in od._cache
    assert od._refills == {} and od._steps == {}


def _count_predecessor_calls(monkeypatch, diagram):
    calls = []
    for d in (diagram, getattr(diagram, "ambient", None)):
        if d is not None:
            inner = d.predecessors

            def counted(level, v, inner=inner):
                calls.append(level)
                return inner(level, v)

            monkeypatch.setattr(d, "predecessors", counted)
    return calls


def test_an_orbit_reads_each_vertex_order_once_not_once_per_step(monkeypatch):
    depth = 30
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    slots = [1 + (0x0F0F0F0F >> j & 1) for j in range(depth - 1)] + [1]
    start = PathRep(0, tuple((1, 1, s) for s in slots))
    calls = _count_predecessor_calls(monkeypatch, od.diagram)
    result = orbit(od, start, 3000)
    assert len(result.paths) == 3001
    # one start-path validation plus the cached edge orders: O(depth), not
    # O(depth) per step
    assert 0 < len(calls) <= 4 * depth


def _never_step(*args):
    raise AssertionError("an invalid start path reached the step engine")


INVALID_STARTS = {
    "edges-do-not-compose": (BinftyDiagram, PathRep(1, ((1, 2, 1), (3, 3, 1)))),
    "slot-out-of-range": (lambda: odometer_column(2), PathRep(0, ((1, 1, 1), (1, 1, 3)))),
    "tail-not-at-prefix-end": (BinftyDiagram, PathRep(1, ((1, 2, 1),), VerticalAt(3))),
    "tail-foreign-to-family": (lambda: odometer_column(2), PathRep(0, ((1, 1, 1),), DiagonalFrom(1))),
}


@pytest.mark.parametrize("case", sorted(INVALID_STARTS))
def test_orbit_rejects_an_invalid_start_before_any_step(case, monkeypatch):
    make, path = INVALID_STARTS[case]
    od = OrderedDiagram(make(), "left-to-right")
    monkeypatch.setattr(vershik, "_step", _never_step)
    with pytest.raises(DiagramError) as info:
        orbit(od, path, 5)
    assert not hasattr(info.value, "step_index")


@pytest.mark.parametrize("case", sorted(INVALID_STARTS))
def test_single_steps_reject_an_invalid_path(case, monkeypatch):
    make, path = INVALID_STARTS[case]
    od = OrderedDiagram(make(), "left-to-right")
    monkeypatch.setattr(vershik, "_step", _never_step)
    with pytest.raises(DiagramError):
        vershik_step(od, path)
    with pytest.raises(DiagramError):
        vershik_inverse(od, path)


# ---------------------------------------------------------------------------
# materialization and serialization


def test_materialize_advances_diagonal_anchors():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    x = PathRep(1, (), DiagonalFrom(2))
    y = materialize(od, x, 3)
    assert y.edges == ((2, 3, 1), (3, 4, 1), (4, 5, 1))
    assert y.tail == DiagonalFrom(5)
    assert materialize(od, x, 0) == x


def test_materialize_respects_parallel_slot_choice():
    od = OrderedDiagram(odometer_column(2), "left-to-right")
    lo = materialize(od, PathRep(0, (), VerticalAt(1, "first")), 2)
    hi = materialize(od, PathRep(0, (), VerticalAt(1, "last")), 2)
    assert lo.edges == ((1, 1, 1), (1, 1, 1))
    assert hi.edges == ((1, 1, 2), (1, 1, 2))


def test_materialize_grows_a_concentrating_tail_from_a_nonempty_anchor():
    od = OrderedDiagram(PascalDiagram("n"), "natural")
    x = PathRep(0, ((key(), key((2, 1)), 1),), PascalConcentrating(1))
    y = materialize(od, x, 2)
    assert y.edges[1:] == ((key((2, 1)), key((1, 1), (2, 1)), 1),
                           (key((1, 1), (2, 1)), key((1, 2), (2, 1)), 1))
    assert y.tail == x.tail


def test_materialize_takes_each_levels_multiplicity_as_the_last_slot():
    od = OrderedDiagram(odometer_column("pow2"), "left-to-right")
    y = materialize(od, PathRep(0, (), VerticalAt(1, "last")), 4)
    assert y.edges == ((1, 1, 2), (1, 1, 4), (1, 1, 8), (1, 1, 16))


def test_materialize_refuses_an_unspecified_tail_even_at_depth_zero():
    od = OrderedDiagram(BinftyDiagram(), "left-to-right")
    with pytest.raises(DiagramError):
        materialize(od, PathRep(1, ((2, 3, 1),)), 0)


def test_path_serialization_round_trip():
    paths = [
        PathRep(1, ((2, 3, 1),), VerticalAt(3)),
        PathRep(0, (), PascalConcentrating(-2)),
        PathRep(1, ((1, 2, 1), (2, 2, 1)), DiagonalFrom(2)),
        PathRep(0, ((key(), key((2, 1)), 1), (key((2, 1)), key((2, 2)), 1))),
        PathRep(0, ((1, 1, 2),), VerticalAt(1, "last")),
    ]
    for p in paths:
        blob = path_to_json(p)
        assert path_from_json(blob) == p
    desc = PascalPathDescriptor("max", (1,), (2,), position_tail=(3, 2), value_tail=1)
    assert descriptor_from_json(descriptor_to_json(desc)) == desc
