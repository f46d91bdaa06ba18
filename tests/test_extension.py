from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from bratteli.core import DiagramError, OdometerChainDiagram, Subdiagram
from bratteli.extension import (
    FINITE,
    INCONCLUSIVE,
    INFINITE,
    edge_binomial_extension,
    edge_binomial_terms,
    extended_cylinder_masses,
    extension_terms,
    odometer_column_extension,
    restricted_mass_limit,
    run_extension_case,
    series_verdict,
    staircase_extension,
    staircase_terms,
)
from bratteli.measures import (
    BinftyMeasure,
    BinomialEdgeMeasure,
    OdometerColumnMeasure,
    StaircaseMeasure,
)

HALF = Fraction(1, 2)


def test_series_verdict_certifies_geometric_tails():
    terms = [Fraction(1, 2**n) for n in range(1, 21)]
    v = series_verdict(terms)
    assert v.verdict == FINITE
    assert v.method == "certified-geometric-tail"
    assert sum(terms) < v.value <= Fraction(1, 1) + Fraction(1, 2**19)
    assert v.evidence["ratio_bound"] == HALF


def test_series_verdict_flags_growth():
    terms = [Fraction(3, 2) ** n for n in range(1, 15)]
    v = series_verdict(terms)
    assert v.verdict == INFINITE
    assert v.method == "divergence-heuristic"


def test_series_verdict_on_slow_series_is_inconclusive():
    terms = [Fraction(1, n) for n in range(1, 111)]
    v = series_verdict(terms)
    assert v.verdict == INCONCLUSIVE


def test_series_verdict_reads_the_last_eight_ratios():
    # the last 6 ratios are 1/2, which alone would certify a geometric tail; the 2 before them are 2
    terms = [Fraction(1), Fraction(2), Fraction(4)] + [Fraction(4, 2**n) for n in range(1, 7)]
    v = series_verdict(terms)
    assert v.verdict == INCONCLUSIVE
    assert v.evidence["ratio_bound"] == 2


@pytest.mark.parametrize("ratio, verdict", [(Fraction(99, 100), FINITE), (Fraction(199, 200), INCONCLUSIVE)])
def test_series_verdict_certifies_ratio_bars_up_to_99_100(ratio, verdict):
    # nine terms: partial sums stay below 10x the first, so a bar above the cap decides nothing
    v = series_verdict([ratio ** n for n in range(9)])
    assert (v.verdict, v.evidence["ratio_bound"]) == (verdict, ratio)


@pytest.mark.parametrize("last, verdict", [(Fraction(97, 100), INFINITE), (Fraction(24, 25), INCONCLUSIVE)])
def test_series_verdict_calls_divergence_down_to_a_97_100_ratio(last, verdict):
    # a bar of 1 certifies nothing and the partial sum passes 10x the first term; the smallest
    # recent ratio decides whether the ratios count as non-decaying
    v = series_verdict([Fraction(1)] * 12 + [last])
    assert (v.verdict, v.evidence["ratio_bound"]) == (verdict, 1)


def test_series_verdict_edge_cases():
    assert series_verdict([]).verdict == INCONCLUSIVE
    zero = series_verdict([Fraction(0)] * 5)
    assert (zero.verdict, zero.value) == (FINITE, 0)
    with pytest.raises(DiagramError):
        series_verdict([Fraction(-1)])


def test_staircase_extension_first_term_by_hand():
    nu = StaircaseMeasure(HALF, 2)
    terms = extension_terms(nu.diagram, nu.p, 1)
    assert terms == [Fraction(11, 9)]


@pytest.mark.parametrize("a", [Fraction(1, 4), HALF, Fraction(3, 4), Fraction(2)])
def test_staircase_extension_is_finite_away_from_one(a):
    v = staircase_extension(a, 2, n_max=60)
    assert v.verdict == FINITE
    assert v.method == "certified-geometric-tail"
    assert v.evidence["ratio_bound"] < 1


def test_staircase_extension_diverges_at_one():
    v = staircase_extension(Fraction(1), 2, n_max=150)
    assert v.verdict == INFINITE
    assert v.method == "divergence-heuristic"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [Fraction(1, 3), HALF, Fraction(2, 3), Fraction(3, 4),
                               Fraction(3, 5), Fraction(1), Fraction(2), Fraction(5, 2)])
def test_staircase_closed_form_terms_equal_the_generic_sum(a, k):
    nu = StaircaseMeasure(a, k)
    assert staircase_terms(nu, 40) == extension_terms(nu.diagram, nu.p, 40)


def _count_calls(monkeypatch, cls, name):
    calls = Counter()
    original = getattr(cls, name)

    def wrapped(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapped)
    return calls


def test_staircase_extension_reads_two_masses_per_term(monkeypatch):
    masses = _count_calls(monkeypatch, StaircaseMeasure, "p")
    rows = _count_calls(monkeypatch, Subdiagram, "outside_predecessors")
    staircase_extension(HALF, 2, n_max=200)
    assert masses["p"] <= 2 * 200 + 4
    assert rows["outside_predecessors"] == 0


def test_edge_binomial_terms_match_direct_formula():
    prob, k = HALF, 3
    nu = BinomialEdgeMeasure(prob, k)
    terms = extension_terms(nu.diagram, nu.p, 12)
    assert terms[:4] == [Fraction(3, 2), Fraction(5, 2), Fraction(35, 8), Fraction(63, 8)]
    for idx, t in enumerate(terms):
        n = idx + 1
        direct = sum(
            prob ** (n - j) * (1 - prob) ** j * comb(k + j + n - 3, n)
            for j in range(n + 1)
        )
        assert t == direct


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("prob", [Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3),
                                  Fraction(3, 4)])
def test_edge_binomial_closed_form_terms_equal_the_generic_sum(prob, k):
    nu = BinomialEdgeMeasure(prob, k)
    assert edge_binomial_terms(nu, 40) == extension_terms(nu.diagram, nu.p, 40)


def test_edge_binomial_extension_reads_no_rows_and_no_single_masses(monkeypatch):
    rows = _count_calls(monkeypatch, Subdiagram, "deleted_predecessors")
    masses = _count_calls(monkeypatch, BinomialEdgeMeasure, "p")
    edge_binomial_extension(HALF, 2, n_max=60)
    assert rows["deleted_predecessors"] == 0
    assert masses["p"] == 0


def test_restricted_mass_limit_reads_no_single_masses(monkeypatch):
    masses = _count_calls(monkeypatch, BinftyMeasure, "p")
    assert restricted_mass_limit(HALF, 2, n_check=40).value == Fraction(1, 6)
    assert masses["p"] == 0


def test_edge_binomial_extension_diverges():
    v = edge_binomial_extension(HALF, 3, n_max=60)
    assert v.verdict == INFINITE
    assert v.evidence["partial_sum"] >= 10 * Fraction(3, 2)
    assert v.evidence["ratio_bound"] >= 1


def test_odometer_extension_terms_and_verdicts():
    entries = [2, 3, 4, 5, 2, 2, 3, 3, 2, 2, 2, 2]
    m = OdometerColumnMeasure(OdometerChainDiagram(entries), 1)
    terms = extension_terms(m.diagram, m.p, 10)
    prod_a, prod_a1 = 1, 1
    for n, t in enumerate(terms):
        assert t == Fraction(prod_a1, prod_a * entries[n])
        prod_a *= entries[n]
        prod_a1 *= entries[n] + 1

    stationary = odometer_column_extension(2, n_max=30)
    assert stationary.verdict == INFINITE

    fast = odometer_column_extension("pow2", n_max=30)
    assert fast.verdict == FINITE
    assert fast.evidence["ratio_bound"] <= Fraction(51, 100)
    assert fast.value < 2


def test_odometer_extension_partial_sums_telescope():
    m = OdometerColumnMeasure(OdometerChainDiagram("pow2"), 4)
    n_max = 12
    terms = extension_terms(m.diagram, m.p, n_max)
    prod = Fraction(1)
    for j in range(n_max):
        prod *= 1 + Fraction(1, 2 ** (j + 1))
    assert sum(terms) == prod - 1


def test_restricted_mass_limit_values():
    assert restricted_mass_limit(HALF, 2).value == Fraction(1, 6)
    assert restricted_mass_limit(Fraction(1), 2).value == 0
    assert restricted_mass_limit(Fraction(2), 2).value == 0
    assert restricted_mass_limit(Fraction(0), 1).value == 1
    assert restricted_mass_limit(Fraction(0), 3).value == 0
    assert restricted_mass_limit(Fraction(1, 3), 4, n_check=25).value == Fraction(1, 4) ** 3 * Fraction(2, 3)


def test_run_extension_case_dispatch():
    v = run_extension_case("mu-a-pascal-edge", a=HALF, k=2)
    assert v.to_json()["verdict"] == "Finite"
    assert v.to_json()["value"] == "1/6"
    with pytest.raises(DiagramError):
        run_extension_case("no-such-case")


def test_extended_cylinder_masses_on_odometer_columns():
    n = 2
    for rule, entry_at in [(2, lambda s: 2), ("pow2", lambda s: 2 ** (s + 1))]:
        m = OdometerColumnMeasure(OdometerChainDiagram(rule), 1)
        approx = extended_cylinder_masses(m.diagram, m.p, n, 2, range(1, 9))
        denom = 1
        for j in range(n):
            denom *= entry_at(j)
        for mm, value in approx:
            expect = sum(Fraction(1, entry_at(s)) for s in range(n, n + mm))
            assert value == expect / denom
        values = [v for _, v in approx]
        assert values == sorted(values)


def test_extended_cylinder_masses_on_staircase():
    nu = StaircaseMeasure(HALF, 2)
    approx = extended_cylinder_masses(nu.diagram, nu.p, 1, 1, [1, 2, 3, 6])
    values = [v for _, v in approx]
    assert all(v > 0 for v in values)
    assert values == sorted(values)
