"""Acceptance gate: twelve end-to-end checks at pinned sizes and tolerances.

Each test is one criterion; the terminal summary (see conftest.py) prints
one PASS/FAIL line per criterion.  All arithmetic is exact unless a
criterion explicitly samples (criterion 9, which uses two fixed seeds).
"""

import time
from collections import Counter
from fractions import Fraction
from math import comb, sqrt

import pytest

import oracles
from bratteli.core import (
    BinftyDiagram,
    BoundedDiagram,
    OdometerChainDiagram,
    PascalDiagram,
    build_subdiagram,
    key_add,
    step_polynomial_coefficients,
    support_key,
)
from bratteli.extension import (
    edge_binomial_extension,
    extension_terms,
    odometer_column_extension,
    restricted_mass_limit,
)
from bratteli.limits import (
    binfty_limit_vector,
    pascal_limit_vector,
    product_row,
)
from bratteli.linalg import (
    continuity_profile,
    heights,
    stochastic_row,
    stochastic_rows,
    weighted_row_norm,
)
from bratteli.measures import (
    BinftyMeasure,
    BinomialEdgeMeasure,
    PascalMeasure,
    StaircaseMeasure,
    difference_table,
    invariance_report,
    sample_paths,
)
from bratteli.vershik import (
    DeepenPrefixError,
    ExtremalClass,
    MaximalPathError,
    MinimalPathError,
    OrderedDiagram,
    PascalConcentrating,
    PascalPathDescriptor,
    PathRep,
    bijection_check,
    classify_descriptor,
    classify_extremal,
    extremal_path_to,
    succ_pred,
    succ_pred_descriptor,
    vershik_inverse,
    vershik_step,
)

F = Fraction


def key(*pairs):
    return support_key(pairs)


def staircase(k=2):
    return build_subdiagram(
        BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": k})


# ---------------------------------------------------------------------------
# 1. height closed forms
# ---------------------------------------------------------------------------

def test_criterion_01_height_closed_forms():
    """Multinomial, binomial, and product closed forms, exactly and fast."""
    start = time.perf_counter()
    pascal = PascalDiagram("n")
    for n in range(9):
        values = heights(pascal, n, bound=8)
        assert values  # the window is never empty
        for v, h in values.items():
            assert h == oracles.multinomial_height(v)
    pascal_seconds = time.perf_counter() - start

    start = time.perf_counter()
    binfty = BinftyDiagram()
    for n in range(1, 31):
        values = heights(binfty, n, bound=30)
        for i in range(1, 31):
            assert values[i] == comb(i + n - 2, n - 1)
    binfty_seconds = time.perf_counter() - start

    # a list rule is a finite truncation: it only reaches its own length
    for rule, levels in ((2, 30), ([2, 3, 4], 3), ("pow2", 30)):
        odometer = OdometerChainDiagram(rule)
        expected = 1
        for n in range(1, levels + 1):
            expected *= odometer.entry(n - 1, 1) + 1
            assert heights(odometer, n, [1])[1] == expected
            assert odometer.closed_form_height(n, 1) == expected

    assert pascal_seconds < 5.0
    assert binfty_seconds < 1.0
    print("criterion 1 PASS: height closed forms exact "
          "(pascal %.2fs, triangular %.2fs)" % (pascal_seconds, binfty_seconds))


# ---------------------------------------------------------------------------
# 2. stochastic identities
# ---------------------------------------------------------------------------

def test_criterion_02_stochastic_rows_sum_to_one_with_pascal_entries():
    """All generated rows sum to exactly 1; pascal entries are t_i / n."""
    pascal = PascalDiagram("n")
    for n in range(1, 9):
        rows = stochastic_rows(pascal, n, pascal.level_vertices(n, 8))
        for v, row in rows.items():
            assert sum(row.values(), F(0)) == 1
            mults = dict(v)
            for w, f in row.items():
                lower = dict(w)
                (c,) = [c for c, m in mults.items() if lower.get(c, 0) == m - 1]
                assert f == F(mults[c], n)

    other_rows = []
    binfty = BinftyDiagram()
    for n in range(2, 11):
        other_rows += list(
            stochastic_rows(binfty, n, binfty.level_vertices(n, 12)).values())
    sub = staircase(2)
    for n in range(2, 11):
        other_rows += list(
            stochastic_rows(sub, n, sub.level_vertices(n)).values())
    odometer = OdometerChainDiagram(2)
    for n in range(1, 9):
        other_rows += list(
            stochastic_rows(odometer, n, odometer.level_vertices(n, 8)).values())
    bounded = BoundedDiagram(1, finite=True)
    for n in range(1, 6):
        other_rows += list(
            stochastic_rows(bounded, n, bounded.level_vertices(n)).values())
    assert all(sum(row.values(), F(0)) == 1 for row in other_rows)
    print("criterion 2 PASS: %d stochastic rows sum to 1 exactly; "
          "pascal entries match t_i/n" % len(other_rows))


# ---------------------------------------------------------------------------
# 3. products against brute-force path enumeration
# ---------------------------------------------------------------------------

def test_criterion_03_product_rows_equal_enumerated_path_counts():
    """Multi-level products equal exhaustive path counts (<= 1e5 paths)."""
    instances = 0
    pascal = PascalDiagram("n")
    for n in range(5):
        for m in range(1, 5):
            for top in pascal.level_vertices(n + m, 4):
                paths = oracles.enumerate_paths_down(pascal, n + m, top, n)
                assert len(paths) <= 100000
                counted = Counter(p[0][0] for p in paths)
                assert product_row(pascal, n, m, top) == counted
                instances += 1

    binfty = BinftyDiagram()
    for n in range(1, 3):
        for m in range(1, 4):
            for top in range(1, 16):
                paths = oracles.enumerate_paths_down(binfty, n + m, top, n)
                assert len(paths) <= 100000
                counted = Counter(p[0][0] for p in paths)
                assert product_row(binfty, n, m, top) == counted
                instances += 1
    print("criterion 3 PASS: %d product rows equal brute-force path counts"
          % instances)


# ---------------------------------------------------------------------------
# 4. pascal measure suite
# ---------------------------------------------------------------------------

def test_criterion_04_pascal_measures_are_invariant_probabilities():
    """Invariance, per-level total mass 1, and limit vectors summing to 1."""
    directions = (
        {1: F(1, 2), 2: F(1, 2)},
        {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)},
        {1: F(1, 4), 2: F(3, 4)},
    )
    for d in directions:
        mu = PascalMeasure(d)
        records = invariance_report(mu, range(7))
        assert records and all(r.ok for r in records)
        for n in range(7):
            assert mu.level_mass(n) == 1
        for n in range(1, 7):
            vector = pascal_limit_vector(d, n)
            assert sum(vector.values(), F(0)) == 1
    print("criterion 4 PASS: pascal measures invariant and probability "
          "for all three directions; limit vectors sum to 1")


# ---------------------------------------------------------------------------
# 5. triangular-diagram measure suite
# ---------------------------------------------------------------------------

def test_criterion_05_binfty_measures_and_geometric_limit_vector():
    """Invariance and exact unit mass for three slopes; geometric vector."""
    for a in (F(1, 2), F(1), F(2)):
        mu = BinftyMeasure(a)
        records = invariance_report(mu, range(1, 11))
        assert records and all(r.ok for r in records)
        for n in range(1, 11):
            assert mu.level_mass(n) == 1
        assert "tail" in mu.level_mass_method  # closed-form tail, not cutoff
    vector = binfty_limit_vector(1)
    assert vector == {j: F(1, 2 ** j) for j in range(1, 21)}
    print("criterion 5 PASS: triangular measures invariant with unit mass "
          "(closed-form tails); slope-1 limit vector is 1/2, 1/4, 1/8, ...")


# ---------------------------------------------------------------------------
# 6. staircase measure identities
# ---------------------------------------------------------------------------

def test_criterion_06_staircase_telescoping_heights_and_differences():
    """Telescoping mass identity, internal-height relation, difference law."""
    k = 2
    sub = staircase(k)
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        nu = StaircaseMeasure(a, k)
        for n in range(1, 11):
            upper = sub.level_vertices(n + 1)
            for low in sub.level_vertices(n):
                total = sum((nu.p(n + 1, j) for j in upper if j >= low), F(0))
                assert total == nu.p(n, low)

    def ambient_height(i, n):
        return comb(i + n - 2, n - 1) if i >= 1 else 0

    for width in (2, 3):
        sub_w = staircase(width)
        for n in range(1, 21):
            internal = heights(sub_w, n)
            for i, h in internal.items():
                assert h == (ambient_height(i - width + 1, n)
                             - ambient_height(i - width, n + 1))

    for a in (F(1, 4), F(1, 2), F(3, 4)):
        nu = StaircaseMeasure(a, k)
        seq = [nu.determining_value(n) for n in range(1, 13)]
        table = difference_table(seq, 5)
        for order, row in enumerate(table):
            for idx, value in enumerate(row):
                n = idx + 1
                assert value == (a ** (n - 1) * (1 + a + a * a) ** order
                                 / (1 + a) ** (2 * n + 2 * order - 2))
    print("criterion 6 PASS: staircase telescoping, internal heights, and "
          "iterated differences all match their closed forms exactly")


# ---------------------------------------------------------------------------
# 7. extension verdicts
# ---------------------------------------------------------------------------

def test_criterion_07_extension_verdict_quartet():
    """Finite 1/6 with verified recursion; zero at slope 1; two divergences;
    one certified geometric tail."""
    verdict = restricted_mass_limit(F(1, 2), 2, n_check=40)
    assert verdict.verdict == "Finite"
    assert verdict.value == F(1, 6)
    assert verdict.evidence["levels_checked"] == 40

    assert restricted_mass_limit(F(1), 2, n_check=40).value == 0

    diverging = edge_binomial_extension(F(1, 2), 3, n_max=60)
    assert diverging.verdict == "Infinite"
    nu = BinomialEdgeMeasure(F(1, 2), 3)
    terms = extension_terms(nu.diagram, nu.p, 60)
    first = next(t for t in terms if t > 0)
    assert sum(terms) > 10 * first
    tail = [t for t in terms if t > 0][-9:]
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    assert min(ratios) >= F(97, 100)  # no decay in the observed tail

    fast = odometer_column_extension("pow2", n_max=30)
    assert fast.verdict == "Finite"
    assert fast.evidence["ratio_bound"] <= F(51, 100)

    assert odometer_column_extension(2, n_max=30).verdict == "Infinite"
    print("criterion 7 PASS: extension quartet — 1/6 exact, 0 at slope 1, "
          "two divergences flagged, geometric tail certified at ratio <= 0.51")


# ---------------------------------------------------------------------------
# 8. bounded-diagram decay probe
# ---------------------------------------------------------------------------

def test_criterion_08_central_coefficient_ratios_decay():
    """K_0^(m)/(2k+1)^m nonincreasing for k=1, below 0.07 by m=60, fast."""
    start = time.perf_counter()
    ratios = [F(step_polynomial_coefficients(1, m)[0], 3 ** m)
              for m in range(1, 61)]
    elapsed = time.perf_counter() - start
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < F(7, 100)
    assert elapsed < 2.0
    print("criterion 8 PASS: 60 central-coefficient ratios nonincreasing, "
          "final %.4f < 0.07 in %.2fs" % (float(ratios[-1]), elapsed))


# ---------------------------------------------------------------------------
# 9. law-of-large-numbers sampling
# ---------------------------------------------------------------------------

def test_criterion_09_sampled_coordinate_frequency_matches_direction():
    """Empirical first-coordinate frequency within 3 standard errors of 0.3
    at depth 500 over 10^4 paths, for the two documented seeds."""
    mu = PascalMeasure({1: F(3, 10), 2: F(7, 10)})
    sigma = sqrt(0.3 * 0.7 / 500) / sqrt(10 ** 4)
    documented_seeds = (20260817, 20260818)
    for seed in documented_seeds:
        report = sample_paths(mu, depth=500, count=10 ** 4, seed=seed)
        deviation = abs(float(report.means[1]) - 0.3)
        assert deviation < 3 * sigma, (seed, deviation, 3 * sigma)
        assert sum(report.means.values(), F(0)) == 1
    print("criterion 9 PASS: |mean - 0.3| < 3 standard errors for seeds "
          "%d and %d" % documented_seeds)


# ---------------------------------------------------------------------------
# 10. adic bijection checks
# ---------------------------------------------------------------------------

def test_criterion_10_adic_step_bijections_and_binary_carry():
    """Exhaustive truncated bijections plus binary increment-with-carry."""
    stair = OrderedDiagram(staircase(2), "left-to-right")
    report = bijection_check(stair, 4)
    assert report.ok
    assert report.total_paths == sum(
        heights(stair.diagram, 5).values())

    pascal = PascalDiagram("n")
    ordered = OrderedDiagram(pascal, "natural")
    tops = pascal.level_vertices(4, 2)
    report = bijection_check(ordered, 4, tops=tops)
    assert report.ok
    assert report.total_paths == 16  # 2^4 two-coordinate paths

    column = build_subdiagram(
        OdometerChainDiagram(2),
        {"kind": "vertex", "rule": "constant", "vertex": 1})
    od = OrderedDiagram(column, "left-to-right")
    path = PathRep(column.base_level, extremal_path_to(od, 5, 1, "min"))
    for value in range(32):
        assert path.edges == tuple(
            (1, 1, ((value >> bit) & 1) + 1) for bit in range(5))
        if value < 31:
            path = vershik_step(od, path)
    with pytest.raises(DeepenPrefixError):
        vershik_step(od, path)  # the carry leaves the truncation
    print("criterion 10 PASS: step bijections exhaustive at depth 4; "
          "odometer column counts in binary with carry")


# ---------------------------------------------------------------------------
# 11. classification and successor/predecessor verdicts
# ---------------------------------------------------------------------------

def _countable_corpus(side, step):
    out = []
    for base in range(-10, 2):
        out.append(PascalPathDescriptor(
            side, (base, base + 2 * step), (1 + abs(base) % 3, None)))
        out.append(PascalPathDescriptor(
            side, (base, base + step, base + 3 * step),
            (2, 1 + abs(base) % 2, None)))
    return out


def _uncountable_corpus(side, step):
    out = []
    for base in range(-10, 2):
        out.append(PascalPathDescriptor(
            side, (base,), (1 + abs(base) % 3,),
            position_tail=(base + 2 * step, 1), value_tail=1))
        out.append(PascalPathDescriptor(
            side, (base, base + step), (1, 2),
            position_tail=(base + 3 * step, 2), value_tail=2))
    return out


def test_criterion_11_descriptor_corpus_reproduces_verdicts():
    """>= 20 paths per class: empty candidate sets for the uncountable
    classes, singletons for the countable ones, and double extremality
    for the special corner paths."""
    max_c = _countable_corpus("max", +1)
    min_c = _countable_corpus("min", -1)
    max_u = _uncountable_corpus("max", +1)
    min_u = _uncountable_corpus("min", -1)
    assert min(len(max_c), len(min_c), len(max_u), len(min_u)) >= 20

    for desc, cls in ([(x, ExtremalClass.MAX_C) for x in max_c]
                      + [(x, ExtremalClass.MIN_C) for x in min_c]):
        assert classify_descriptor(desc, "z") is cls
        candidates = succ_pred_descriptor(desc, "z")
        assert len(candidates) == 1
        (candidate,) = candidates
        assert candidate.positions == (desc.positions[-1],)
        assert candidate.values == (None,)

    for desc, cls in ([(x, ExtremalClass.MAX_U) for x in max_u]
                      + [(x, ExtremalClass.MIN_U) for x in min_u]):
        assert classify_descriptor(desc, "z") is cls
        assert succ_pred_descriptor(desc, "z") == frozenset()

    diagram = PascalDiagram("z")
    od = OrderedDiagram(diagram, "natural")
    corner_paths = []
    for coordinate in range(-10, 10):
        depth = 1 + abs(coordinate) % 3
        edges = tuple(
            (key((coordinate, j)) if j else key(),
             key((coordinate, j + 1)), 1)
            for j in range(depth))
        corner_paths.append(
            PathRep(0, edges, PascalConcentrating(coordinate)))
    assert len(corner_paths) >= 20
    for path in corner_paths:
        assert classify_extremal(od, path) is ExtremalClass.SPECIAL
        assert succ_pred(od, path) == frozenset({path})
        with pytest.raises(MaximalPathError):
            vershik_step(od, path)
        with pytest.raises(MinimalPathError):
            vershik_inverse(od, path)
    print("criterion 11 PASS: %d countable-class descriptors give "
          "singletons, %d uncountable-class give empty sets, %d corner "
          "paths doubly extremal"
          % (len(max_c) + len(min_c), len(max_u) + len(min_u),
             len(corner_paths)))


# ---------------------------------------------------------------------------
# 12. continuity probe
# ---------------------------------------------------------------------------

def test_criterion_12_row_norms_decay_on_binfty_but_not_on_pascal():
    """Rank-weighted norms fall like 2/i on the triangle but stay bounded
    away from zero along pascal rays."""
    binfty = BinftyDiagram()
    norms = continuity_profile(binfty, 2, range(10, 201))
    values = [norms[i] for i in range(10, 201)]
    assert all(norms[i] <= F(2, i) for i in range(10, 201))
    assert all(b < a for a, b in zip(values, values[1:]))

    pascal = PascalDiagram("n")
    checked = 0
    for n in range(2, 7):
        for source in pascal.level_vertices(n, 3):
            source_rank = pascal.rank(n, source)
            floor = F(1, 2 ** source_rank * (n + 1))
            for coordinate in (1, 2, 3):
                target = key_add(source, coordinate)
                row = stochastic_row(pascal, n + 1, target)
                assert row[source] == F(dict(target)[coordinate], n + 1)
                assert row[source] >= floor
                ranks = {w: pascal.rank(n, w) for w in row}
                assert weighted_row_norm(row, ranks) >= floor
                checked += 1
    assert checked >= 100
    print("criterion 12 PASS: triangular norms decay under 2/i over ranks "
          "10..200; %d pascal rows stay above their non-vanishing floor"
          % checked)
