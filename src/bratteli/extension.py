"""Does a measure on a subdiagram extend to a finite measure on the whole diagram?

A tail-invariant measure on a vertex or edge subdiagram extends to a
(sigma-)finite tail-invariant measure on the ambient diagram; the extension
has finite total mass exactly when a positive series converges:

* vertex subdiagrams — sum over levels of (kept cylinder mass at level n+1)
  times (ambient heights of the discarded predecessors);
* edge subdiagrams — the same with the deleted edges per kept target.

Series terms are exact rationals.  ``extension_terms`` is the generic sum
over every kept vertex; it serves only the odometer-column case and
referees the closed forms in the tests.  ``staircase_terms`` is the
staircase's closed-form route: tail invariance folds each level's sum into
two cylinder masses, so a term costs O(k) exact operations, not O(n).
``edge_binomial_terms`` is the edge subdiagram's: each kept vertex's deleted
edges weigh one ambient height, and the level's sum is one ``mass_sum``.
Verdicts distinguish closed forms from certified geometric tail bounds and
from divergence heuristics, and say which one they used.

Ambient heights are read through ``linalg.height``, the one
closed-form-else-recursion route; ``linalg.heights`` is the one recursion
behind it, and its memo on the ambient diagram is the only height cache.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Sequence

from .core import (
    BinftyDiagram,
    DiagramError,
    OdometerChainDiagram,
    Subdiagram,
    build_subdiagram,
)
from .linalg import height
from .limits import _transition_row
from .measures import (
    BinftyMeasure,
    BinomialEdgeMeasure,
    OdometerColumnMeasure,
    StaircaseMeasure,
    restricted_level_mass,
)

FINITE = "Finite"
INFINITE = "Infinite"
INCONCLUSIVE = "Inconclusive"


@dataclass
class SeriesVerdict:
    verdict: str
    method: str
    value: Fraction | None = None
    note: str = ""
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "method": self.method}
        if self.value is not None:
            out["value"] = str(self.value)
        if self.note:
            out["note"] = self.note
        out.update(
            {k: (str(v) if isinstance(v, Fraction) else v) for k, v in self.evidence.items()}
        )
        return out


def extension_terms(sub: Subdiagram, p_func: Callable[[int, object], Fraction],
                    n_max: int) -> list[Fraction]:
    """The extension series terms for levels base, base+1, ..., base+n_max-1.

    ``p_func(n, v)`` gives the subdiagram cylinder masses.  For a vertex
    subdiagram the discarded edges into a kept target are those from outside
    the kept level below; for an edge subdiagram they are the ambient edges
    minus the retained ones.
    """
    discarded = (
        sub.outside_predecessors if sub.kind == "vertex" else sub.deleted_predecessors
    )
    terms = []
    for n in range(sub.base_level, sub.base_level + n_max):
        total = Fraction(0)
        for v in sub.level_vertices(n + 1):
            row = discarded(n + 1, v)
            if not row:
                continue
            pv = Fraction(p_func(n + 1, v))
            if not pv:
                continue
            weight = sum(mult * height(sub.ambient, n, w) for w, mult in row.items())
            total += pv * weight
        terms.append(total)
    return terms


def staircase_terms(nu: StaircaseMeasure, n_max: int) -> list[Fraction]:
    """``extension_terms(sub, nu.p, n_max)`` for a staircase measure, in closed form.

    On the staircase W_n = {k, ..., k+n-1} every kept vertex of W_{n+1} has
    the discarded sources {1, ..., k-1}; the top vertex k+n has itself
    besides.  Every vertex of W_{n+1} is a successor of k, so tail invariance
    gives sum_{v in W_{n+1}} p_{n+1}(v) = p_n(k), and

        term_n = (sum_{w<k} H_n(w)) * p_n(k) + H_n(k+n) * p_{n+1}(k+n),

    the same rational as the generic sum, in O(k) exact operations.
    """
    sub, k = nu.diagram, nu.k
    terms = []
    for n in range(sub.base_level, sub.base_level + n_max):
        below = sum(height(sub.ambient, n, w) for w in range(1, k))
        top = k + n
        terms.append(below * nu.p(n, k) + height(sub.ambient, n, top) * nu.p(n + 1, top))
    return terms


def edge_binomial_terms(nu: BinomialEdgeMeasure, n_max: int) -> list[Fraction]:
    """``extension_terms(sub, nu.p, n_max)`` for the two-edge subdiagram, in closed form.

    A kept vertex v of W_{n+1} retains the edges from v-1 and v, so its
    deleted sources are {1, ..., v-2}: exactly the B_inf predecessors of v-2
    at level n+1.  Their height sum is H_{n+1}(v-2), and

        term_n = sum_{v in W_{n+1}, v >= 3} H_{n+1}(v-2) * p_{n+1}(v),

    one ``nu.mass_sum`` per level, the same rational as the generic sum.
    """
    sub = nu.diagram
    return [
        nu.mass_sum(n + 1, {v: height(sub.ambient, n + 1, v - 2)
                            for v in sub.level_vertices(n + 1) if v >= 3})
        for n in range(sub.base_level, sub.base_level + n_max)
    ]


RATIO_WINDOW = 8
GEOMETRIC_CAP = Fraction(99, 100)
DECAY_FLOOR = Fraction(97, 100)
CEILING_FACTOR = 10


def series_verdict(terms: Sequence[Fraction]) -> SeriesVerdict:
    """Judge a positive series from its first terms.

    Finite when the last ``RATIO_WINDOW`` term ratios stay below a bar r < 1
    (tail bounded by the geometric series, assuming the bar persists);
    Infinite when partial sums pass ``CEILING_FACTOR`` times the first term
    while the recent ratios show no decay.  Anything else is Inconclusive.
    """
    terms = [Fraction(t) for t in terms]
    if any(t < 0 for t in terms):
        raise DiagramError("extension series terms must be nonnegative")
    if not terms:
        return SeriesVerdict(INCONCLUSIVE, "no-terms")
    if all(t == 0 for t in terms):
        return SeriesVerdict(FINITE, "exact-zero", value=Fraction(0))
    nonzero = [t for t in terms if t > 0]
    first = nonzero[0]
    partial = sum(terms)
    evidence: dict = {"terms_used": len(terms), "partial_sum": partial}
    if len(nonzero) >= RATIO_WINDOW + 1:
        window = nonzero[-(RATIO_WINDOW + 1):]
        ratios = [b / a for a, b in zip(window, window[1:])]
        bar = max(ratios)
        evidence["ratio_bound"] = bar
        if bar < 1 and bar <= GEOMETRIC_CAP:
            tail_bound = nonzero[-1] * bar / (1 - bar)
            return SeriesVerdict(
                FINITE,
                "certified-geometric-tail",
                value=partial + tail_bound,
                note=(
                    "upper bound; assumes the observed ratio bar %s persists"
                    % bar
                ),
                evidence=evidence,
            )
        if min(ratios) >= DECAY_FLOOR and partial >= CEILING_FACTOR * first:
            return SeriesVerdict(
                INFINITE,
                "divergence-heuristic",
                note="partial sums passed %dx the first term with non-decaying ratios"
                % CEILING_FACTOR,
                evidence=evidence,
            )
    return SeriesVerdict(INCONCLUSIVE, "undecided", evidence=evidence)


# -- named scenarios ----------------------------------------------------------


def restricted_mass_limit(a, k: int, n_check: int = 40) -> SeriesVerdict:
    """Mass left on the staircase by the slope-``a`` triangle measure.

    The level masses fall by Catalan-weighted steps; their limit has the
    closed form (a/(a+1))^(k-1) (1-a) for a < 1 and 0 for a >= 1.  The
    closed form is validated against the step recursion for ``n_check``
    levels before being returned.
    """
    mu = BinftyMeasure(a)
    a = mu.a
    sub = build_subdiagram(
        BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": k}
    )
    mass = a ** (k - 1) / (a + 1) ** k
    if restricted_level_mass(mu, sub, 1) != mass:
        raise DiagramError("restricted mass mismatch at the first level")
    for n in range(1, n_check):
        catalan = Fraction(comb(2 * n, n), n + 1)
        mass = mass - a ** (k + n) / (a + 1) ** (2 * n + k) * catalan
        direct = restricted_level_mass(mu, sub, n + 1)
        if direct != mass:
            raise DiagramError("restricted mass recursion broke at level %d" % (n + 1))
    value = (a / (a + 1)) ** (k - 1) * (1 - a) if a < 1 else Fraction(0)
    return SeriesVerdict(
        FINITE,
        "closed-form",
        value=value,
        evidence={"levels_checked": n_check, "last_level_mass": mass},
    )


def staircase_extension(a, k: int, n_max: int = 60) -> SeriesVerdict:
    """Extension verdict for the staircase boundary measure with parameter ``a``."""
    return series_verdict(staircase_terms(StaircaseMeasure(a, k), n_max))


def edge_binomial_extension(prob, k: int, n_max: int = 60) -> SeriesVerdict:
    """Extension verdict for the binomial measure on the two-edge subdiagram."""
    return series_verdict(edge_binomial_terms(BinomialEdgeMeasure(prob, k), n_max))


def odometer_column_extension(a, column: int = 1, n_max: int = 30) -> SeriesVerdict:
    """Extension verdict for the invariant measure on one odometer column."""
    m = OdometerColumnMeasure(OdometerChainDiagram(a), column)
    return series_verdict(extension_terms(m.diagram, m.p, n_max))


EXTENSION_CASES = {
    "mu-a-pascal-edge": restricted_mass_limit,
    "nu-a-staircase": staircase_extension,
    "nu-p-pascal-edge": edge_binomial_extension,
    "odometer-column": odometer_column_extension,
}


def run_extension_case(case: str, **params) -> SeriesVerdict:
    """Dispatch one of the named extension scenarios."""
    fn = EXTENSION_CASES.get(case)
    if fn is None:
        raise DiagramError(
            "unknown extension case %r (expected one of %s)"
            % (case, ", ".join(sorted(EXTENSION_CASES)))
        )
    return fn(**params)


def extended_cylinder_masses(sub: Subdiagram, p_func, n: int, w,
                             m_values: Iterable[int]) -> list[tuple[int, Fraction]]:
    """Partial masses of an ambient cylinder under the extended measure.

    For a cylinder ending at ambient vertex ``w`` at level ``n``, the m-th
    approximation sums (ambient transition count from w up to v) times the
    kept cylinder mass over kept vertices v at level n+m.  The approximations
    are nondecreasing in m; their limit is the extended measure's value.
    """
    out = []
    for m in m_values:
        total = Fraction(0)
        for v in sub.level_vertices(n + m):
            count = _transition_row(sub.ambient, n, m, v).get(w, 0)
            if count:
                total += count * Fraction(p_func(n + m, v))
        out.append((m, total))
    return out
