import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from bratteli.core import (
    BinftyDiagram,
    BoundedDiagram,
    CustomDiagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    TruncationIncompleteError,
    build_subdiagram,
    support_key,
)
from bratteli.linalg import heights, simplex_distance
from bratteli.limits import (
    binfty_limit_vector,
    closed_form_product_row,
    constant_top,
    index_ray,
    limit_along,
    normalized_product_row,
    pascal_limit_vector,
    pascal_ray,
    product_row,
)
from bratteli.measures import PascalMeasure

import oracles


def oracle_row(diagram, n, m, v):
    paths = oracles.enumerate_paths_down(diagram, n + m, v, n)
    return dict(Counter(p[0][0] for p in paths))


def test_product_rows_match_path_enumeration():
    binfty = BinftyDiagram()
    stair = build_subdiagram(binfty, {"kind": "vertex", "rule": "staircase", "k": 2})
    edge = build_subdiagram(binfty, {"kind": "edge", "rule": "pascal", "k": 3})
    cases = [
        (PascalDiagram("n"), 1, 3, PascalDiagram("n").level_vertices(4, 2)),
        (binfty, 2, 3, (1, 3, 6)),
        (BoundedDiagram(1, finite=True), 1, 3, (0, 2, -4)),
        (OdometerChainDiagram(2), 1, 2, (1, 2, 3)),
        (stair, 1, 4, stair.level_vertices(5)),
        (edge, 2, 3, edge.level_vertices(5)),
    ]
    for diagram, n, m, tops in cases:
        for v in tops:
            assert product_row(diagram, n, m, v) == oracle_row(diagram, n, m, v)


def test_closed_form_product_rows_match_recursion():
    binfty = BinftyDiagram()
    for n in (1, 2, 3):
        for m in (1, 2, 4):
            for v in (1, 4, 8):
                assert closed_form_product_row(binfty, n, m, v) == product_row(
                    binfty, n, m, v
                )

    pascal = PascalDiagram("n")
    for n in (0, 1, 2):
        for m in (1, 3):
            for v in pascal.level_vertices(n + m, 2):
                assert closed_form_product_row(pascal, n, m, v) == product_row(
                    pascal, n, m, v
                )

    signed = PascalDiagram("z")
    v = support_key([(-1, 2), (0, 1), (2, 1)])
    assert closed_form_product_row(signed, 1, 3, v) == product_row(signed, 1, 3, v)

    for diagram in (BoundedDiagram(2, finite=True), BoundedDiagram(1, finite=False)):
        for n in (1, 2):
            for v in (0, 1, -2):
                assert closed_form_product_row(diagram, n, 3, v) == product_row(
                    diagram, n, 3, v
                )


def test_binfty_closed_form_rows_follow_the_binomial_recurrence():
    binfty = BinftyDiagram()
    for v in range(1, 41):
        for m in range(1, 41):
            row = closed_form_product_row(binfty, 1, m, v)
            assert list(row.items()) == [(j, comb(v - j + m - 1, m - 1)) for j in range(1, v + 1)]


def test_binfty_ray_limit_is_the_same_by_closed_form_and_by_recursion():
    binfty = BinftyDiagram()
    closed = limit_along(binfty, 1, index_ray(1), m_max=60, method="closed")
    recursion = limit_along(BinftyDiagram(), 1, index_ray(1), m_max=60, method="recursion")
    assert closed.steps == 60 and not closed.converged
    assert closed == recursion


def test_a_ray_slope_below_zero_is_refused():
    with pytest.raises(DiagramError, match="the ray slope must be >= 0, got -1/2"):
        index_ray(Fraction(-1, 2))
    assert [index_ray(0)(m, 1) for m in (1, 5, 50)] == [1, 1, 1]
    assert [index_ray(Fraction(1, 3))(m, 1) for m in (1, 5, 50)] == [1, 2, 17]


def test_binfty_transition_row_sums():
    binfty = BinftyDiagram()
    for m in (1, 2, 5):
        for v in (1, 3, 7):
            row = closed_form_product_row(binfty, 1, m, v)
            assert sum(row.values()) == comb(v + m - 1, m)


def test_closed_form_rejects_unsupported_families():
    stair = build_subdiagram(
        BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": 2}
    )
    with pytest.raises(DiagramError):
        closed_form_product_row(stair, 1, 2, 3)


def test_normalized_rows_sum_to_one():
    d = PascalDiagram("n")
    for v in d.level_vertices(4, 2):
        y = normalized_product_row(d, 1, 3, v)
        assert sum(y.values()) == 1


def test_q_from_y_weights_by_heights():
    binfty = BinftyDiagram()
    q = oracles.q_from_y(binfty, 2, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert q == {1: Fraction(1, 3), 2: Fraction(2, 3)}


def test_limit_along_constant_top_is_point_mass():
    binfty = BinftyDiagram()
    res = limit_along(binfty, 1, constant_top(1), tol=Fraction(1, 10**6), m_max=10)
    assert res.converged
    assert res.vector == {1: Fraction(1)}
    assert res.vector == binfty_limit_vector(0)


def test_limit_along_unit_slope_ray():
    binfty = BinftyDiagram()
    res = limit_along(
        binfty, 1, index_ray(1), tol=Fraction(1, 10**4), m_max=150
    )
    assert res.converged
    target = binfty_limit_vector(1, bound=8)
    for j in range(1, 7):
        assert abs(res.vector[j] - target[j]) < Fraction(2, 100)


def test_limit_along_pascal_ray_reaches_product_masses():
    # successive tops differ by one appended unit, so iterates wobble at
    # scale 1/m; the run must go deep enough for the wobble to sink below tol
    pascal = PascalDiagram("n")
    d = {1: Fraction(1, 2), 2: Fraction(1, 2)}
    res = limit_along(
        pascal, 2, pascal_ray(d), tol=Fraction(1, 10**3), m_max=1500
    )
    assert res.converged
    q = oracles.q_from_y(pascal, 2, res.vector)
    target = pascal_limit_vector(d, 2)
    for key, mass in target.items():
        assert abs(q.get(key, Fraction(0)) - mass) < Fraction(2, 100)


def test_pascal_iterates_tend_to_normalized_cylinder_masses_not_to_the_closed_form_tower_masses():
    d = {1: Fraction(1, 3), 2: Fraction(2, 3)}
    keys = [support_key([(1, 2)]), support_key([(1, 1), (2, 1)]), support_key([(2, 2)])]
    res = limit_along(PascalDiagram("n"), 2, pascal_ray(d), tol=Fraction(1, 10**9), m_max=400)
    assert res.steps == 400
    for key, mass in zip(keys, (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))):  # p_2 / sum(p_2)
        assert abs(res.vector[key] - mass) < Fraction(1, 1000)
    assert [pascal_limit_vector(d, 2)[key] for key in keys] == [Fraction(1, 9), Fraction(4, 9), Fraction(4, 9)]
    mu = PascalMeasure(d)
    for n in (0, 1):  # where every height is 1 the two agree
        total = sum(mu.p(n, key) for key in mu.level_support(n))
        assert pascal_limit_vector(d, n) == {key: mu.p(n, key) / total for key in mu.level_support(n)}


def _staircase_middle(m, level):
    return 2 + (level - 1) // 2


@pytest.mark.parametrize("make,n,top_rule,m_max,method", [
    (BinftyDiagram, 1, index_ray(1), 40, "auto"),
    (lambda: PascalDiagram("n"), 1,
     pascal_ray({1: Fraction(1, 3), 2: Fraction(2, 3)}), 20, "recursion"),
    (lambda: build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": 2}),
     3, _staircase_middle, 20, "auto"),
], ids=["binfty-ray", "pascal-ray", "staircase-2"])
def test_limit_along_equals_its_iterates_rebuilt_from_normalized_rows(make, n, top_rule,
                                                                      m_max, method):
    res = limit_along(make(), n, top_rule, m_max=m_max, method=method)
    assert res.steps == m_max and not res.converged
    d = make()
    ys = [normalized_product_row(d, n, m, top_rule(m, n + m), method=method)
          for m in range(1, m_max + 1)]
    ranks = {w: d.rank(n, w) for y in ys for w in y}
    mass_sums = []
    for y in ys:
        hs = heights(d, n, y)
        mass_sums.append(sum(y[w] * hs[w] for w in y))
    assert res.distances == [simplex_distance(x, y, ranks) for x, y in zip(ys, ys[1:])]
    assert res.mass_sums == mass_sums
    assert res.vector == ys[-1]


def test_a_missing_custom_row_is_truncation_incomplete_in_heights_and_product_rows():
    d = CustomDiagram(
        levels={0: ["a"], 1: ["b", "c"], 2: ["d"]},
        rows={1: {"b": {"a": 1}}, 2: {"d": {"b": 1, "c": 2}}},
    )
    with pytest.raises(TruncationIncompleteError) as exc:
        heights(d, 2, ["d"])
    assert exc.value.missing == [(1, "c")]
    with pytest.raises(TruncationIncompleteError) as exc:
        product_row(d, 0, 2, "d")
    assert exc.value.missing == [(1, "c")]


def test_a_height_walk_names_the_first_missing_row_in_repr_order_and_a_product_row_the_first_read():
    d = CustomDiagram(levels={0: ["a"], 1: ["c", "b"], 2: ["d"]}, rows={2: {"d": {"c": 1, "b": 1}}})
    with pytest.raises(TruncationIncompleteError) as exc:
        heights(d, 2, ["d"])
    assert exc.value.missing == [(1, "b")]
    with pytest.raises(TruncationIncompleteError) as exc:
        product_row(d, 0, 2, "d")
    assert exc.value.missing == [(1, "c")]


@pytest.mark.parametrize("make, n, m, v", [
    (lambda: PascalDiagram("n"), 1, 5, ((1, 2), (2, 2), (3, 2))),
    (BinftyDiagram, 2, 5, 6),
    (lambda: OdometerChainDiagram(2, {1: 3}), 1, 5, 2),
], ids=["pascal-n", "binfty", "odometer-columns"])
def test_product_rows_read_each_cone_row_once(make, n, m, v, monkeypatch):
    d = make()
    reads = Counter()
    original = type(d)._predecessors

    def counting(self, level, u):
        reads[level, u] += 1
        return original(self, level, u)

    monkeypatch.setattr(type(d), "_predecessors", counting)
    row = product_row(d, n, m, v)
    monkeypatch.undo()
    cone, frontier = Counter(), {v}
    for level in range(n + m, n, -1):
        cone.update((level, u) for u in frontier)
        frontier = {w for u in frontier for w in d.predecessors(level, u)}
    assert reads == cone
    assert set(row) == frontier
    assert row == {w: oracles.transition_count(d, n, m, v, w) for w in frontier}


@pytest.mark.parametrize("n, m_max, tol, rows", [
    (1, 60, Fraction(1, 1000), 881),  # the benchmark's 60-step run: 18,992 reads through product_row
    (0, 200, Fraction(1, 10**6), 14),  # the default level-0 run, 6 steps: 41 reads through product_row
], ids=["level-1-60-steps", "level-0-default"])
def test_a_recursion_limit_reads_each_cone_row_once(n, m_max, tol, rows, monkeypatch):
    d = PascalDiagram("n")
    reads = Counter()
    original = type(d)._predecessors

    def counting(self, level, u):
        reads[level, u] += 1
        return original(self, level, u)

    monkeypatch.setattr(type(d), "_predecessors", counting)
    rule = pascal_ray({1: Fraction(1, 3), 2: Fraction(2, 3)})
    result = limit_along(d, n, rule, tol=tol, m_max=m_max, method="recursion")
    monkeypatch.undo()
    assert sum(reads.values()) == len(reads) == rows
    closed = limit_along(PascalDiagram("n"), n, rule, tol=tol, m_max=m_max, method="closed")
    assert (result.vector, result.distances, result.mass_sums) == (closed.vector, closed.distances, closed.mass_sums)


def test_a_limit_whose_rows_run_out_mid_iteration_names_the_first_missing_row_in_repr_order():
    tiers = ["t", "c", "b"]
    d = CustomDiagram(
        levels={0: ["a"], 1: tiers, 2: tiers, 3: tiers},
        rows={1: {v: {"a": 1} for v in tiers}, 2: {"t": {"t": 1}}, 3: {"t": {"c": 1, "b": 1}}})
    for method in ("recursion", "auto"):
        with pytest.raises(TruncationIncompleteError) as exc:
            limit_along(d, 0, constant_top("t"), m_max=5, method=method)
        assert exc.value.missing == [(2, "b")]
        assert str(exc.value) == "no incidence row declared for vertex 'b' at level 2"


def test_a_binfty_recursion_limit_keeps_its_cone_rows_within_bounds():
    # the memo holds about m^3/6 counts on binfty, whose rows are long
    tracemalloc.start()
    try:
        result = limit_along(BinftyDiagram(), 1, index_ray(1), m_max=60, method="recursion")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps == 60
    assert peak <= 10 * 2**20


def test_product_rows_do_not_descend_below_the_base_level():
    with pytest.raises(DiagramError):
        product_row(BinftyDiagram(), 0, 2, 3)


def test_pascal_limit_vector_is_exact_probability():
    cases = [
        {1: Fraction(1, 2), 2: Fraction(1, 2)},
        {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)},
        {2: Fraction(1, 4), 5: Fraction(3, 4)},
    ]
    for d in cases:
        for n in (1, 2, 5):
            vec = pascal_limit_vector(d, n)
            assert sum(vec.values()) == 1
    vec = pascal_limit_vector({1: Fraction(1, 2), 2: Fraction(1, 2)}, 2)
    assert vec[support_key([(1, 1), (2, 1)])] == Fraction(1, 2)
    assert vec[support_key([(1, 2)])] == Fraction(1, 4)


def test_pascal_limit_vector_is_the_multinomial_tower_mass_formula():
    cases = [
        ({2: Fraction(1, 5), 3: Fraction(1, 2), 7: Fraction(3, 10)}, range(5)),
        ({1: Fraction(1, 4), 2: Fraction(3, 4)}, (1, 2, 4)),
    ]
    for d, levels in cases:
        for n in levels:
            expected = {}
            for key in oracles.sorted_compositions(n, sorted(d), False):
                weight, prob = factorial(n), Fraction(1)
                for c, mult in key:
                    weight //= factorial(mult)
                    prob *= d[c] ** mult
                expected[key] = weight * prob
            assert pascal_limit_vector(d, n) == expected


def test_pascal_limit_vector_rejects_bad_directions():
    with pytest.raises(DiagramError):
        pascal_limit_vector({1: Fraction(1, 2)}, 3)
    with pytest.raises(DiagramError):
        pascal_ray({1: Fraction(3, 2), 2: Fraction(-1, 2)})


def test_binfty_limit_vector_values():
    assert binfty_limit_vector(0) == {1: Fraction(1)}
    geo = binfty_limit_vector(1, bound=8)
    assert [geo[j] for j in (1, 2, 3)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    ]
    a, bound = Fraction(1, 2), 12
    partial = sum(binfty_limit_vector(a, bound=bound).values())
    assert partial == 1 - (a / (a + 1)) ** bound


def test_pascal_ray_largest_remainder():
    rule = pascal_ray({1: Fraction(1, 3), 2: Fraction(2, 3)})
    assert rule(1, 5) == support_key([(1, 2), (2, 3)])
    for level in range(1, 30):
        key = rule(1, level)
        assert sum(m for _, m in key) == level
