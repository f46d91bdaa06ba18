import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bratteli.core import (
    BinftyDiagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    build_subdiagram,
    support_key,
)
from bratteli import measures
from bratteli.limits import pascal_limit_vector
from bratteli.measures import (
    BinftyMeasure,
    BinomialEdgeMeasure,
    OdometerColumnMeasure,
    PascalMeasure,
    StaircaseMeasure,
    completely_monotone_witness,
    difference_table,
    invariance_report,
    restricted_level_mass,
    sample_paths,
)

import oracles

HALF = Fraction(1, 2)

PASCAL_DIRECTIONS = [
    {1: HALF, 2: HALF},
    {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)},
    {1: Fraction(1, 4), 2: Fraction(3, 4)},
]


@pytest.mark.parametrize("d", PASCAL_DIRECTIONS)
def test_pascal_measure_is_exactly_invariant(d):
    mu = PascalMeasure(d)
    report = invariance_report(mu, range(0, 6))
    assert report and all(r.ok for r in report)


@pytest.mark.parametrize("d", PASCAL_DIRECTIONS)
def test_pascal_measure_levels_are_probabilities(d):
    mu = PascalMeasure(d)
    for n in range(0, 7):
        assert mu.level_mass(n) == 1


def test_pascal_measure_matches_limit_vector():
    d = {1: Fraction(1, 4), 2: Fraction(3, 4)}
    mu = PascalMeasure(d)
    for n in (1, 2, 4):
        vec = pascal_limit_vector(d, n)
        for key, mass in vec.items():
            assert mu.q(n, key) == mass


def test_a_direction_over_1200_coordinates_has_1200_level_one_keys_of_total_tower_mass_one():
    mu = PascalMeasure(dict.fromkeys(range(1, 1201), Fraction(1, 1200)))
    keys = mu.level_support(1)
    assert len(keys) == 1200
    assert sum(mu.q(1, key) for key in keys) == 1


def test_pascal_measure_on_signed_coordinates():
    d = {0: HALF, -1: HALF}
    mu = PascalMeasure(d)
    assert mu.diagram.family == "pascal-z"
    assert all(r.ok for r in invariance_report(mu, range(0, 4)))
    assert mu.level_mass(3) == 1
    assert mu.p(2, support_key([(0, 1), (-1, 1)])) == Fraction(1, 4)
    assert mu.p(1, support_key([(5, 1)])) == 0


def test_pascal_measure_validation():
    with pytest.raises(DiagramError):
        PascalMeasure({1: HALF})
    with pytest.raises(DiagramError):
        PascalMeasure({1: Fraction(3, 2), 2: Fraction(-1, 2)})
    with pytest.raises(DiagramError):
        PascalMeasure({1: HALF, 5: HALF}, PascalDiagram(3))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_binfty_measure_is_exactly_invariant(a):
    mu = BinftyMeasure(a)
    report = invariance_report(mu, range(1, 11))
    assert report and all(r.ok for r in report)


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])
def test_binfty_levels_are_probabilities(a):
    mu = BinftyMeasure(a)
    for n in range(1, 9):
        assert mu.level_mass(n) == 1


def test_binfty_tower_masses_and_tail():
    a = Fraction(1, 2)
    mu = BinftyMeasure(a)
    for n in (1, 3, 6):
        for j in (1, 2, 7):
            assert mu.q(n, j) == comb(n + j - 2, n - 1) * mu.p(n, j)
        partial = sum(mu.p(n, j) for j in range(1, 15))
        assert partial + mu.tail_from(n, 15) == Fraction(1, (a + 1) ** (n - 1))


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(1), Fraction(3)])
def test_binfty_tail_mass_telescopes(a):
    mu = BinftyMeasure(a)
    for n in (1, 2, 5):
        for j in range(1, 30):
            assert mu.level_tail_mass(n, j) - mu.level_tail_mass(n, j + 1) == mu.q(
                n, j + 1
            )


def test_binfty_differences_step_down_one_level():
    mu = BinftyMeasure(Fraction(2, 3))
    for n in (1, 2, 4):
        seq = [mu.p(n, j) for j in range(1, 14)]
        rows = difference_table(seq, 3)
        for k in (1, 2, 3):
            expect = [mu.p(n + k, j) for j in range(1, 14 - k)]
            assert rows[k] == expect


STAIR_PARAMS = [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1), Fraction(2)]


@pytest.mark.parametrize("a", STAIR_PARAMS)
def test_staircase_measure_levels_are_probabilities(a):
    nu = StaircaseMeasure(a, 2)
    for n in range(1, 11):
        assert nu.level_mass(n) == 1


@pytest.mark.parametrize("a", STAIR_PARAMS)
def test_staircase_measure_telescopes(a):
    nu = StaircaseMeasure(a, 2)
    report = invariance_report(nu, range(1, 10))
    assert report and all(r.ok for r in report)


def test_staircase_successor_mass_refuses_a_vertex_beyond_the_level():
    nu = StaircaseMeasure(HALF, 2)  # level 2 is {2, 3}
    with pytest.raises(DiagramError, match="99 is not a vertex of level 2"):
        nu.successor_mass(2, 99)


def test_staircase_successor_mass_names_the_level_asked_about():
    nu = StaircaseMeasure(HALF, 2)
    with pytest.raises(DiagramError, match="1 is not a vertex of level 2"):
        nu.successor_mass(2, 1)


def test_binfty_successor_mass_refuses_level_zero():
    with pytest.raises(DiagramError, match="no level 0"):
        BinftyMeasure(HALF).successor_mass(0, 1)


def test_staircase_determining_sequence_closed_form():
    a = Fraction(2, 5)
    nu = StaircaseMeasure(a, 2)
    for n in range(1, 12):
        assert nu.determining_value(n) == a ** (n - 1) / (1 + a) ** (2 * n - 2)


def test_staircase_difference_closed_form():
    a = Fraction(1, 2)
    nu = StaircaseMeasure(a, 2)
    seq = [nu.determining_value(n) for n in range(1, 16)]
    rows = difference_table(seq, 5)
    for l in range(6):
        for idx, val in enumerate(rows[l]):
            n = idx + 1
            expect = (
                a ** (n - 1)
                * (1 + a + a * a) ** l
                / (1 + a) ** (2 * n + 2 * l - 2)
            )
            assert val == expect


def test_complete_monotonicity_of_determining_sequence():
    nu = StaircaseMeasure(HALF, 2)
    seq = [nu.determining_value(n) for n in range(1, 16)]
    assert completely_monotone_witness(seq, 5) is None


def test_complete_monotonicity_witness_on_flat_sequence():
    seq = [Fraction(1), HALF, Fraction(1, 4), Fraction(1, 4)]
    assert completely_monotone_witness(seq, 2) == (1, 2)


def _weights_at(draw, vertices):
    chosen = draw(st.lists(st.sampled_from(vertices), unique=True, max_size=len(vertices)))
    return {v: draw(st.integers(0, 50)) for v in chosen}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), a=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]))
def test_binfty_mass_sum_equals_the_sum_of_cylinder_masses(data, a):
    mu = BinftyMeasure(a)
    n = data.draw(st.integers(1, 9))
    weights = _weights_at(data.draw, list(range(1, 40)))
    assert mu.mass_sum(n, weights) == sum((w * mu.p(n, v) for v, w in weights.items()), Fraction(0))
    with pytest.raises(DiagramError):
        mu.mass_sum(n, {**weights, 0: 1})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), prob=st.sampled_from([Fraction(1, 4), Fraction(1, 3), HALF, Fraction(5, 7)]),
       k=st.integers(1, 4))
def test_edge_binomial_mass_sum_equals_the_sum_of_cylinder_masses(data, prob, k):
    nu = BinomialEdgeMeasure(prob, k)
    sub = nu.diagram
    n = data.draw(st.integers(1, 12))
    kept = sub.level_vertices(n)
    weights = _weights_at(data.draw, list(kept))
    assert nu.mass_sum(n, weights) == sum((w * nu.p(n, v) for v, w in weights.items()), Fraction(0))
    outside = data.draw(st.sampled_from([k - 1, k + n, k + n + 5]))
    with pytest.raises(DiagramError):
        nu.mass_sum(n, {**weights, outside: 1})


def test_binfty_support_is_cut_to_the_bound_given_even_zero():
    mu = BinftyMeasure(HALF)
    assert mu.level_support(2) == tuple(range(1, 13))
    assert mu.level_support(2, 0) == ()
    assert mu.level_support(2, 3) == (1, 2, 3)


def test_mass_sum_of_no_weights_is_zero():
    assert BinftyMeasure(HALF).mass_sum(3, {}) == 0
    assert BinomialEdgeMeasure(HALF, 2).mass_sum(3, {}) == 0
    assert StaircaseMeasure(HALF, 2).mass_sum(3, {}) == 0


def test_binfty_invariance_reads_one_cylinder_mass_per_record(monkeypatch):
    calls = 0
    original = BinftyMeasure.p

    def counting(self, n, j):
        nonlocal calls
        calls += 1
        return original(self, n, j)

    monkeypatch.setattr(BinftyMeasure, "p", counting)
    records = invariance_report(BinftyMeasure(Fraction(2, 3)), range(1, 9))
    assert len(records) == 96 and all(r.ok for r in records)
    assert calls == 96


def test_restricted_mass_direct_equals_recursion():
    a, k = HALF, 2
    mu = BinftyMeasure(a)
    sub = build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": k})
    mass = a ** (k - 1) / (a + 1) ** k
    assert restricted_level_mass(mu, sub, 1) == mass
    for n in range(1, 9):
        catalan = Fraction(comb(2 * n, n), n + 1)
        nxt = mass - a ** (k + n) / (a + 1) ** (2 * n + k) * catalan
        assert restricted_level_mass(mu, sub, n + 1) == nxt
        mass = nxt


def test_odometer_column_measure():
    m = OdometerColumnMeasure(OdometerChainDiagram([2, 3, 4, 5, 2, 2]), 3)
    assert m.p(0, 3) == 1
    assert m.p(3, 3) == Fraction(1, 2 * 3 * 4)
    for n in range(0, 6):
        assert m.level_mass(n) == 1
    assert all(r.ok for r in invariance_report(m, range(0, 5)))


def test_odometer_column_measure_validation():
    with pytest.raises(DiagramError, match="odometer-chain ambient"):
        OdometerColumnMeasure(BinftyDiagram(), 1)
    with pytest.raises(DiagramError, match="not in the diagram"):
        OdometerColumnMeasure(OdometerChainDiagram(2), 0)
    assert OdometerColumnMeasure(OdometerChainDiagram(2), 4).diagram.level_vertices(3) == (4,)


def test_subdiagram_measures_check_their_offset_before_their_weight():
    for k in (0, "x"):
        with pytest.raises(DiagramError, match="offset k"):
            StaircaseMeasure(-1, k)
        with pytest.raises(DiagramError, match="offset k"):
            BinomialEdgeMeasure(2, k)
    assert StaircaseMeasure(HALF, "3").k == BinomialEdgeMeasure(HALF, "3").k == 3
    with pytest.raises(DiagramError, match="parameter must be > 0"):
        StaircaseMeasure(0, 2)
    with pytest.raises(DiagramError, match="strictly between 0 and 1"):
        BinomialEdgeMeasure(1, 2)


# -- path sampling -------------------------------------------------------------


def test_sample_report_two_coordinate_law_of_large_numbers():
    mu = PascalMeasure({1: Fraction(3, 10), 2: Fraction(7, 10)})
    report = sample_paths(mu, depth=500, count=2000, seed=20260817)
    sigma = report.stderrs[1]
    assert abs(float(report.means[1]) - 0.3) < 3 * sigma
    assert report.means[1] + report.means[2] == 1
    assert sum(report.endpoint_counts.values()) == report.count


def test_exact_endpoint_distribution_at_depth_two():
    mu = PascalMeasure({1: HALF, 2: HALF})
    exact = oracles.endpoint_distribution(mu.d, 2)
    assert exact == {
        support_key([(1, 2)]): Fraction(1, 4),
        support_key([(1, 1), (2, 1)]): Fraction(1, 2),
        support_key([(2, 2)]): Fraction(1, 4),
    }
    report = sample_paths(mu, 2, 4096, seed=7)
    for v, mass in exact.items():
        freq = Fraction(report.endpoint_counts[v], report.count)
        assert abs(float(freq - mass)) < 0.05


def test_sampling_is_reproducible_by_seed():
    mu = PascalMeasure({1: Fraction(1, 3), 2: Fraction(2, 3)})
    a = sample_paths(mu, 50, 100, seed=42)
    b = sample_paths(mu, 50, 100, seed=42)
    assert (a.means, a.endpoint_counts) == (b.means, b.endpoint_counts)
    c = sample_paths(mu, 50, 100, seed=43)
    assert a.endpoint_counts != c.endpoint_counts


def test_sampling_with_three_coordinates():
    mu = PascalMeasure({1: HALF, 2: Fraction(1, 4), 3: Fraction(1, 4)})
    report = sample_paths(mu, 60, 500, seed=11)
    assert sum(report.means.values()) == 1
    for c in (1, 2, 3):
        assert abs(float(report.means[c] - mu.d[c])) < 4 * report.stderrs[c]


class _RecordingRandom(random.Random):
    """A ``Random`` that keeps its seed and every ``getrandbits`` call it answers."""

    made: list = []

    def __init__(self, seed):
        super().__init__(seed)
        self.seed0, self.calls = seed, []
        _RecordingRandom.made.append(self)

    def getrandbits(self, k):
        r = super().getrandbits(k)
        self.calls.append((k, r))
        return r


@pytest.mark.parametrize("d", [
    {1: Fraction(1)},
    {1: HALF, 2: HALF},
    {1: Fraction(1, 3), 2: Fraction(2, 3)},
    {1: Fraction(1, 5), 2: Fraction(2, 5), 3: Fraction(2, 5)},
    {1: HALF, 2: Fraction(1, 5), 3: Fraction(3, 10)},
    {1: Fraction(1, 2**32 + 1), 2: Fraction(2**32, 2**32 + 1)},
    {1: Fraction(2, 2**40 + 1), 2: Fraction(5, 2**40 + 1), 3: Fraction(2**40 - 6, 2**40 + 1)},
], ids=["D=1", "D=2", "D=3", "D=5", "D=10", "D=2^32+1", "D=2^40+1"])
@pytest.mark.parametrize("seed", [0, 7, 42, 20260817])
def test_sampled_draws_are_randrange_draws(d, seed, monkeypatch):
    monkeypatch.setattr(_RecordingRandom, "made", [])
    monkeypatch.setattr(measures, "random", type("random", (), {"Random": _RecordingRandom}))
    mu = PascalMeasure(d)
    denom = max(x.denominator for x in mu.d.values())
    depth, count = 40, 3
    report = sample_paths(mu, depth, count, seed)
    master, *paths = _RecordingRandom.made
    oracle = random.Random(seed)
    assert master.seed0 == seed
    assert [p.seed0 for p in paths] == [oracle.getrandbits(64) for _ in range(count)]
    totals = dict.fromkeys(mu.d, 0)
    for path in paths:
        rng = random.Random(path.seed0)
        draws = [rng.randrange(denom) for _ in range(depth)]
        # randrange(D)'s own stream: D's bit length per call, every value below D taken, no call more
        assert {k for k, _ in path.calls} == {denom.bit_length()}
        assert [r for _, r in path.calls if r < denom] == draws
        assert path.getstate() == rng.getstate()
        for r in draws:  # the first coordinate whose cumulative weight passes r
            acc = 0
            for c in sorted(mu.d):
                acc += mu.d[c] * denom
                if r < acc:
                    totals[c] += 1
                    break
    assert report.means == {c: Fraction(t, depth * count) for c, t in totals.items()}


def test_sampling_validates_arguments():
    mu = PascalMeasure({1: HALF, 2: HALF})
    with pytest.raises(DiagramError):
        sample_paths(mu, 0, 5, seed=1)
    with pytest.raises(DiagramError):
        sample_paths(mu, 5, 0, seed=1)


@pytest.mark.parametrize("measure, n, v", [
    (BinftyMeasure(HALF), 1, 0),
    (PascalMeasure({1: Fraction(1, 3), 2: Fraction(2, 3)}), 1, ((1, -1),)),
], ids=["binfty-vertex-0", "pascal-negative-multiplicity"])
def test_tower_mass_of_a_non_vertex_is_a_domain_error(measure, n, v):
    with pytest.raises(DiagramError):
        measure.q(n, v)
