import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bratteli import core
from bratteli.core import (
    BinftyDiagram,
    BoundedDiagram,
    CustomDiagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    TruncationIncompleteError,
    _compositions,
    as_int,
    build_diagram,
    build_subdiagram,
    key_add,
    key_level,
    step_polynomial_coefficients,
    support_key,
    vertex_window,
    zigzag,
)
from bratteli.linalg import heights


def test_zigzag_enumeration():
    assert [zigzag(i) for i in (0, 1, -1, 2, -2)] == [1, 2, 3, 4, 5]
    vals = [zigzag(i) for i in range(-50, 51)]
    assert sorted(vals) == list(range(1, 102))


def test_support_key_canonicalization():
    assert support_key([(3, 1), (1, 2)]) == ((1, 2), (3, 1))
    assert key_level(((1, 2), (3, 1))) == 3
    with pytest.raises(DiagramError):
        support_key([(1, 1), (1, 2)])
    with pytest.raises(DiagramError):
        support_key([(2, 0)])


@given(
    st.dictionaries(st.integers(-5, 5), st.integers(1, 4), min_size=1, max_size=4),
    st.integers(-5, 5),
)
def test_key_add_sub_round_trip(d, c):
    key = support_key(d.items())
    bigger = key_add(key, c)
    assert key_level(bigger) == key_level(key) + 1
    assert oracles.key_sub(bigger, c) == key


def test_pascal_predecessors_are_single_removals():
    d = PascalDiagram("n")
    v = support_key([(1, 2), (4, 1)])
    preds = d.predecessors(3, v)
    assert preds == {
        support_key([(1, 1), (4, 1)]): 1,
        support_key([(1, 2)]): 1,
    }


PASCAL_COORDS = {"n": st.integers(1, 9), "z": st.integers(-6, 6), 4: st.integers(1, 4)}


@settings(max_examples=300)
@given(st.data())
def test_pascal_rows_are_the_oracle_rows_in_removal_order(data):
    coords = data.draw(st.sampled_from(["n", "z", 4]))
    pairs = data.draw(st.dictionaries(PASCAL_COORDS[coords], st.integers(1, 4),
                                      min_size=1, max_size=5))
    key = support_key(pairs.items())
    row = PascalDiagram(coords).predecessors(key_level(key), key)
    assert list(row.items()) == list(oracles.pascal_row(key).items())


def test_pascal_window_count_and_ranks():
    from math import comb

    d = PascalDiagram("n")
    for n, b in [(2, 2), (3, 3), (4, 2)]:
        win = vertex_window(d, n, b)
        assert len(win) == comb(n + b - 1, b - 1)
        assert [d.rank(n, v) for v in win] == list(range(1, len(win) + 1))


def test_pascal_z_window_ranks_follow_zigzag_order():
    d = PascalDiagram("z")
    win = vertex_window(d, 2, 1)  # coordinates -1, 0, 1
    assert [d.rank(2, v) for v in win] == list(range(1, len(win) + 1))
    first = win[0]
    assert first == ((0, 2),)  # concentrated on the first-ranked coordinate


def test_pascal_k_rejects_bad_k():
    with pytest.raises(DiagramError):
        PascalDiagram(0)


def test_binfty_structure():
    d = BinftyDiagram()
    assert d.base_level == 1
    assert d.predecessors(2, 4) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert d.successors(1, 3, bound=5) == {3: 1, 4: 1, 5: 1}
    assert d.rank(7, 12) == 12
    with pytest.raises(DiagramError):
        d.predecessors(1, 1)
    with pytest.raises(DiagramError):
        vertex_window(d, 0, 5)


def test_bounded_finite_levels_and_edges():
    d = BoundedDiagram(2, finite=True)
    assert d.level_vertices(1) == (0, 1, -1, 2, -2)
    assert d.predecessors(1, 2) == {0: 1}
    assert d.predecessors(2, 4) == {2: 1}
    assert d.predecessors(2, 3) == {1: 1, 2: 1}
    assert not d.level_contains(1, 3)


def test_bounded_generalized_is_unclipped():
    d = BoundedDiagram(1, finite=False)
    assert d.predecessors(1, 5) == {4: 1, 5: 1, 6: 1}
    assert d.level_contains(0, -17)
    assert d.rank(3, -2) == 5


def test_odometer_entries_and_edges():
    d = OdometerChainDiagram(3)
    assert d.predecessors(1, 2) == {2: 3, 3: 1}
    assert d.successors(0, 2, bound=5) == {1: 1, 2: 3}
    assert d.successors(0, 1, bound=5) == {1: 3}

    p = OdometerChainDiagram("pow2")
    assert [p.entry(j, 1) for j in range(4)] == [2, 4, 8, 16]

    lst = OdometerChainDiagram([2, 3, 4])
    assert lst.entry(2, 9) == 4
    with pytest.raises(TruncationIncompleteError):
        lst.entry(3, 9)

    cols = OdometerChainDiagram(2, columns={5: [7, 7, 7, 7]})
    assert cols.predecessors(1, 5) == {5: 7, 6: 1}
    assert cols.predecessors(1, 4) == {4: 2, 5: 1}

    with pytest.raises(DiagramError):
        OdometerChainDiagram(1)


def test_custom_diagram_missing_rows_are_flagged():
    d = CustomDiagram(
        levels={0: ["a"], 1: ["b", "c"]},
        rows={1: {"b": {"a": 2}, "c": {"a": 1}}},
    )
    assert d.predecessors(1, "b") == {"a": 2}
    assert d.successors(0, "a") == {"b": 2, "c": 1}
    with pytest.raises(TruncationIncompleteError) as exc:
        d.predecessors(2, "anything")
    assert exc.value.missing == [(2, "anything")]


def test_custom_successors_refuse_a_target_with_no_declared_row():
    d = CustomDiagram(levels={0: ["a"], 1: ["b", "c"]}, rows={1: {"b": {"a": 2}}})
    with pytest.raises(TruncationIncompleteError,
                       match="no incidence row declared for vertex 'c' at level 1") as exc:
        d.successors(0, "a")  # not {"b": 2}: the edges into c are unknown, not absent
    assert exc.value.missing == [(1, "c")]


EDGE_SUB_RETAINED = {2: {1: {1: 1}, 2: {1: 1}}, 3: {1: {1: 1}, 2: {1: 1, 2: 1}, 3: {2: 1}},
                     4: {2: {2: 1}, 3: {2: 1, 3: 1}, 4: {3: 1}}}
CUSTOM_ROWS = {1: {1: {0: 2}, 2: {0: 1}}, 2: {3: {1: 1, 2: 3}, 4: {2: 2}}, 3: {5: {3: 1, 4: 2}}}


def _transposed(rows, w):
    """The targets of ``w`` read off declared rows {target: {source: multiplicity}}."""
    return {v: srcs[w] for v, srcs in rows.items() if w in srcs}


def _successor_cases():
    """(diagram, levels, bound, formula) per family; ``formula(n, w)`` is the successors of w at level n
    written out from the family's own edges."""
    for coords, domain in (("n", range(1, 4)), ("z", range(-2, 3)), (4, range(1, 5)), (4, range(1, 3))):
        bound = max(domain)
        yield pytest.param(PascalDiagram(coords), range(4), bound,
                           lambda n, w, domain=domain: {key_add(w, c): 1 for c in domain},
                           id="pascal-%s/%d" % (coords, bound))
    yield pytest.param(BinftyDiagram(), range(1, 5), 7, lambda n, w: dict.fromkeys(range(w, 8), 1), id="binfty")
    yield pytest.param(BoundedDiagram(2, finite=True), range(4), None,
                       lambda n, w: dict.fromkeys(range(w - 2, w + 3), 1), id="bounded-finite")
    for a, entry in ((3, lambda n: 3), ("pow2", lambda n: 2 ** (n + 1))):
        yield pytest.param(OdometerChainDiagram(a), range(4), 6,
                           lambda n, w, entry=entry: {w: entry(n), **({w - 1: 1} if w > 1 else {})},
                           id="odometer-io/%s" % a)
    yield pytest.param(build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": 3}),
                       range(1, 6), None, lambda n, w: dict.fromkeys(range(w, 3 + n + 1), 1), id="staircase")
    yield pytest.param(build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "pascal", "k": 2}),
                       range(1, 6), None, lambda n, w: {w: 1, w + 1: 1}, id="pascal-edge")
    yield pytest.param(build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "explicit", "seed": [1],
                                                          "retained": EDGE_SUB_RETAINED}),
                       range(1, 4), None, lambda n, w: _transposed(EDGE_SUB_RETAINED[n + 1], w),
                       id="explicit-edge")
    custom = {"levels": {0: [0], 1: [1, 2], 2: [3, 4], 3: [5]}, "rows": CUSTOM_ROWS}
    yield pytest.param(build_diagram({"family": "custom", "params": json.loads(json.dumps(custom))}),
                       range(3), None, lambda n, w: _transposed(CUSTOM_ROWS[n + 1], w), id="custom")


@pytest.mark.parametrize("d, levels, bound, formula", _successor_cases())
def test_successors_are_the_family_formula_for_every_vertex_in_a_window(d, levels, bound, formula):
    # the one transpose of the incidence rows against each family's edges written out forwards
    for n in levels:
        for w in d.level_vertices(n, bound):
            assert d.successors(n, w, bound) == formula(n, w), (n, w)


@pytest.mark.parametrize("d, level, w", [(OdometerChainDiagram(3), 0, 2), (BoundedDiagram(1, finite=False), 0, 0),
                                         (BinftyDiagram(), 1, 1), (PascalDiagram("n"), 1, ((1, 1),))],
                         ids=["odometer-io", "bounded-generalized", "binfty", "pascal-n"])
def test_successors_on_infinite_levels_need_a_bound(d, level, w):
    with pytest.raises(DiagramError, match="levels are infinite|needs a truncation bound"):
        d.successors(level, w)


def test_pascal_successors_of_a_vertex_outside_the_bound_window_are_empty():
    # every successor keeps coordinate 3, so none lies in the window of coordinates 1..2
    assert PascalDiagram("n").successors(2, support_key([(1, 1), (3, 1)]), 2) == {}


def test_build_diagram_from_json():
    d = build_diagram(json.dumps({"family": "pascal-k", "params": {"k": 3}}))
    assert d.family == "pascal-k"
    d2 = build_diagram({"family": "binfty", "truncation": {"bound": 6}})
    assert len(vertex_window(d2, 3)) == 6
    with pytest.raises(DiagramError):
        build_diagram({"family": "no-such-family"})


def test_a_truncation_bound_applies_to_the_spec_sub_block():
    spec = {"family": "binfty", "truncation": {"bound": 2},
            "sub": {"kind": "vertex", "rule": "staircase", "k": 2}}
    assert vertex_window(build_diagram(spec), 4) == (2, 3)
    assert vertex_window(build_diagram(spec), 4, 3) == (2, 3, 4)  # an explicit bound wins
    assert build_diagram(dict(spec, truncation={"bound": None})).truncation_bound is None


def test_malformed_diagram_json_text_is_a_domain_error():
    with pytest.raises(DiagramError, match="malformed JSON in a diagram spec"):
        build_diagram("{bad")


@pytest.mark.parametrize("value", [True, 2.0, 2.9, None, "2.5", [2]])
def test_as_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(DiagramError, match="must be an integer"):
        as_int(value, "a field")
    assert as_int("3", "a field") == as_int(3, "a field") == 3


def test_build_diagram_custom_with_support_keys():
    spec = {
        "family": "custom",
        "params": {
            "levels": {"0": [[]], "1": [[[1, 1]], [[2, 1]]]},
            "rows": {"1": {"[[1, 1]]": {"[]": 1}, "[[2, 1]]": {"[]": 1}}},
        },
    }
    d = build_diagram(spec)
    assert d.predecessors(1, ((1, 1),)) == {(): 1}


def test_staircase_subdiagram_levels_and_edges():
    amb = BinftyDiagram()
    sub = build_subdiagram(amb, {"kind": "vertex", "rule": "staircase", "k": 2})
    assert sub.level_vertices(1) == (2,)
    assert sub.level_vertices(4) == (2, 3, 4, 5)
    assert sub.predecessors(3, 3) == {2: 1, 3: 1}
    assert sub.outside_predecessors(3, 4) == {1: 1, 4: 1}
    assert sub.outside_predecessors(3, 3) == {1: 1}


def test_constant_column_subdiagram():
    amb = OdometerChainDiagram(2)
    sub = build_subdiagram(amb, {"kind": "vertex", "rule": "constant", "vertex": 3})
    assert sub.level_vertices(5) == (3,)
    assert sub.predecessors(4, 3) == {3: 2}
    assert sub.outside_predecessors(4, 3) == {4: 1}


def test_pascal_edge_subdiagram_retained_and_deleted():
    amb = BinftyDiagram()
    sub = build_subdiagram(amb, {"kind": "edge", "rule": "pascal", "k": 2})
    assert sub.level_vertices(3) == (2, 3, 4)
    assert sub.predecessors(3, 3) == {2: 1, 3: 1}
    assert sub.predecessors(3, 2) == {2: 1}  # source 1 is off the cone
    assert sub.deleted_predecessors(3, 4) == {1: 1, 2: 1}
    assert sub.deleted_predecessors(2, 2) == {}
    assert sub.deleted_predecessors(3, 3) == {1: 1}


def test_explicit_vertex_subdiagram_validation():
    amb = BinftyDiagram()
    with pytest.raises(DiagramError):
        build_subdiagram(amb, {"kind": "vertex", "rule": "explicit", "levels": {1: []}})
    sub = build_subdiagram(
        amb, {"kind": "vertex", "rule": "explicit", "levels": {1: [1], 2: [1, 3]}}
    )
    assert sub.predecessors(2, 3) == {1: 1}
    with pytest.raises(TruncationIncompleteError):
        sub.level_vertices(3)


def test_an_explicit_subdiagram_vertex_outside_the_ambient_level_is_refused():
    with pytest.raises(DiagramError):
        build_subdiagram(
            BinftyDiagram(), {"kind": "vertex", "rule": "explicit", "levels": {1: [1], 2: [1, 0]}}
        )


@pytest.mark.parametrize("level", [3, 5])
def test_an_explicit_edge_row_beyond_the_ambient_is_refused_at_build(level):
    retained = {n: {1: {1: 1}, 2: {1: 1, 2: 1}} for n in range(2, 6)}
    spec = {"kind": "edge", "rule": "explicit", "seed": [1], "retained": retained}
    assert build_subdiagram(BinftyDiagram(), spec).level_vertices(5) == (1, 2)
    retained[level] = {1: {1: 1}, 2: {2: 5}}
    with pytest.raises(DiagramError, match="ambient edge count"):
        build_subdiagram(BinftyDiagram(), spec)


def _level_set_calls(sub, level):
    """Calls of an explicit edge subdiagram's level-set rule (recursive ones included) made by ``heights``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "level_set"

    sys.setprofile(count)
    try:
        heights(sub, level)
    finally:
        sys.setprofile(None)
    return calls


def test_an_explicit_edge_subdiagram_works_out_each_level_once():
    for top in (20, 40, 80, 1200):  # 1200 levels lie deeper than the recursion limit
        retained = {n: {1: {1: 1}, 2: {1: 1, 2: 1}} for n in range(2, top + 1)}
        sub = build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "explicit", "seed": [1],
                                                 "retained": retained})
        # linear in the level (2 * top - 1 calls); 12,720 at level 80 while every call recomputed
        assert _level_set_calls(sub, top) <= 5 * top
        for _ in range(2):  # a missing level is not remembered: it is refused on every call
            with pytest.raises(TruncationIncompleteError,
                               match="no retained rows declared at level %d" % (top + 1)):
                sub.level_vertices(top + 1)


def test_subdiagram_rejects_unknown_rules():
    amb = BinftyDiagram()
    with pytest.raises(DiagramError):
        build_subdiagram(amb, {"kind": "vertex", "rule": "mystery"})
    with pytest.raises(DiagramError):
        build_subdiagram(amb, {"kind": "diagonal", "rule": "staircase", "k": 2})


@pytest.mark.parametrize("spec", [
    {"family": "pascal-n"},
    {"family": "pascal-z"},
    {"family": "pascal-k", "params": {"k": 3}},
    {"family": "binfty"},
    {"family": "bounded-finite", "params": {"k": 1}},
    {"family": "odometer-io", "params": {"a": 2}},
], ids=lambda spec: spec["family"])
def test_a_window_lists_its_vertices_in_rank_order(spec):
    d = build_diagram(spec)
    for level in range(d.base_level, d.base_level + 4):
        win = vertex_window(d, level, 3)
        assert [d.rank(level, v) for v in win] == list(range(1, len(win) + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.lists(st.integers(0, 4), min_size=0, max_size=4))
def test_capped_compositions_keep_the_uncapped_order(total, caps):
    coords = [2 * i - 3 for i in range(len(caps))]
    capped = list(_compositions(total, coords, caps))
    bounded = [
        key for key in _compositions(total, coords)
        if all(m <= caps[coords.index(c)] for c, m in key)
    ]
    assert capped == bounded
    assert all(key_level(key) == total for key in capped)


@settings(max_examples=150, deadline=None)
@given(st.integers(-1, 7), st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=0, max_size=5),
       st.booleans())
def test_compositions_list_multiplicity_vectors_in_lexicographic_order(total, caps, capped):
    # multiplicity 0 first at every coordinate is the lexicographic order of (m_1, ..., m_r)
    coords = [3 * i - 4 for i in range(len(caps))]
    caps = [total if c is None else c for c in caps] if capped else None
    tops = [max(total, 0)] * len(coords) if caps is None else caps
    expected = [
        tuple((c, m) for c, m in zip(coords, ms) if m)
        for ms in itertools.product(*(range(top + 1) for top in tops)) if sum(ms) == total
    ]
    assert list(_compositions(total, coords, caps)) == expected


@pytest.mark.parametrize("coords", ["n", "z", 3, 5], ids=lambda c: "pascal-%s" % c)
def test_a_pascal_level_comes_out_in_the_sorted_composition_order(coords):
    d = PascalDiagram(coords)
    for bound in range(1, 7):
        domain = (range(-bound, bound + 1) if coords == "z"
                  else range(1, (bound if coords == "n" else min(coords, bound)) + 1))
        for level in range(8):
            assert list(d.level_vertices(level, bound)) == oracles.sorted_compositions(level, domain, d.signed)


@pytest.mark.parametrize("signed", [False, True])
def test_pascal_positions_number_the_sorted_compositions(signed):
    for r in range(8):
        domain = [c for c in range(-r, r + 1) if 1 <= (zigzag(c) if signed else c) <= r]
        for level in range(7):
            keys = oracles.sorted_compositions(level, domain, signed)
            assert core._pascal_positions(level, r, signed) == {k: i for i, k in enumerate(keys, 1)}


@pytest.fixture
def fresh_step_powers(monkeypatch):
    """An empty step-polynomial cache for one test; the module's own is restored after."""
    monkeypatch.setattr(core, "_step_powers", {})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_polynomial_powers_in_any_order_match_the_from_scratch_loop(k, fresh_step_powers):
    powers = list(range(61))
    random.Random(k).shuffle(powers)
    for power in powers:
        got = step_polynomial_coefficients(k, power)
        assert list(got.items()) == list(oracles.step_poly_from_scratch(k, power).items())


def test_a_step_polynomial_power_beyond_the_recursion_limit_is_built(fresh_step_powers):
    power = sys.getrecursionlimit() + 1
    coeffs = step_polynomial_coefficients(1, power)
    assert sum(coeffs.values()) == 3 ** power
    assert coeffs[power] == coeffs[-power] == 1


def test_ascending_step_polynomial_powers_cost_one_convolution_each(fresh_step_powers, monkeypatch):
    calls = Counter()
    convolve = core._step_convolve

    def counting(coeffs, k):
        calls[k] += 1
        return convolve(coeffs, k)

    monkeypatch.setattr(core, "_step_convolve", counting)
    for m in range(1, 81):
        step_polynomial_coefficients(2, m)
    assert calls == {2: 80}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prefix_sum_powers_up_to_120_in_shuffled_order_match_the_from_scratch_loop(k, fresh_step_powers):
    expected = list(oracles.step_poly_powers(k, 120))
    powers = list(range(121))
    random.Random(100 + k).shuffle(powers)
    for power in powers:
        assert list(step_polynomial_coefficients(k, power).items()) == list(expected[power].items())


def test_a_lower_step_polynomial_power_asked_after_a_higher_one_is_that_power(fresh_step_powers):
    for k in (1, 2, 4):
        for high, low in ((40, 7), (9, 8), (25, 1), (12, 0)):
            step_polynomial_coefficients(k, high)
            got = step_polynomial_coefficients(k, low)
            assert list(got.items()) == list(oracles.step_poly_from_scratch(k, low).items())
            assert sum(got.values()) == (2 * k + 1) ** low
