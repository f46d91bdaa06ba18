"""Tail-invariant measures on the built-in diagram families.

A tail-invariant measure assigns every path-cylinder through a level-``n``
vertex ``v`` the same mass p_n(v), subject to the balance rule: p_n(w)
equals the multiplicity-weighted sum of p_(n+1) over the successors of w.
Tower masses q_n(v) = H_v p_n(v) then describe how much of the path space
sits over each vertex.  Each measure is built from its parameters alone and
builds its own diagram, or the subdiagram it lives on.

Every number here is a ``fractions.Fraction``; invariance and probability
checks are exact identities, with geometric or binomial-tail closed forms
standing in for the infinite parts of the sums.

``p`` checks the vertex and ``_p`` is each measure's formula.  ``mass_sum``
is the one exact weighted sum of cylinder masses, behind every successor,
level and restricted mass; closed-form measures add integer numerators over
one denominator and build a single ``Fraction``.

Heights are read through ``linalg.height``, the one closed-form-else-recursion
route; ``linalg.heights`` is the one recursion behind it.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, sqrt
from typing import Iterable, Mapping, Sequence

from .core import (
    BinftyDiagram,
    Diagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    Subdiagram,
    _compositions,
    build_subdiagram,
    key_add,
    support_key,
)
from .linalg import height


class TailInvariantMeasure:
    """Base interface: exact cylinder masses plus family-specific sum rules."""

    name = "abstract"

    def __init__(self, diagram: Diagram):
        self.diagram = diagram

    def p(self, n: int, v) -> Fraction:
        """Mass of one cylinder through vertex ``v`` at level ``n``; checked."""
        self.diagram.check_vertex(n, v)
        return self._p(n, v)

    def _p(self, n: int, v) -> Fraction:
        """``p`` unchecked, the measure's formula: ``v`` must be a vertex at level ``n``."""
        raise NotImplementedError

    def q(self, n: int, v) -> Fraction:
        """Tower mass H_v * p_n(v); ``p`` validates the vertex first."""
        return self.p(n, v) * height(self.diagram, n, v)

    def mass_sum(self, n: int, weights: Mapping) -> Fraction:
        """Exact sum of weights[v] * p_n(v) over a {vertex: int} map, each vertex checked as ``p`` checks it."""
        return sum((w * self.p(n, v) for v, w in weights.items()), Fraction(0))

    def successor_mass(self, n: int, w) -> Fraction:
        """Multiplicity-weighted sum of p_(n+1) over the successors of ``w``, checked as ``p`` checks."""
        self.diagram.check_vertex(n, w)
        return self._successor_mass(n, w)

    def _successor_mass(self, n: int, w) -> Fraction:
        """Unchecked; the default sums over ``diagram.successors``, the transposed rows of a finite
        next level, and measures on infinite levels override it with an exact closed form."""
        return self.mass_sum(n + 1, self.diagram.successors(n, w))

    def level_support(self, n: int, bound: int | None = None) -> tuple:
        """Vertices carrying mass at level ``n`` (cut to ``bound`` if infinite)."""
        return self.diagram.level_vertices(n, bound)

    def level_mass(self, n: int) -> Fraction:
        """Total tower mass of level ``n``: the exact sum of q over ``level_support``."""
        return self.mass_sum(n, {v: height(self.diagram, n, v) for v in self.level_support(n)})

    level_mass_method = "exact-finite-sum"


@dataclass
class BalanceRecord:
    level: int
    vertex: object
    cylinder_mass: Fraction
    successor_mass: Fraction

    @property
    def ok(self) -> bool:
        return self.cylinder_mass == self.successor_mass


def invariance_report(measure: TailInvariantMeasure, levels: Iterable[int],
                      bound: int | None = None) -> list[BalanceRecord]:
    """Exact balance check p_n(w) == successor mass, vertex by vertex."""
    out = []
    for n in levels:
        for w in measure.level_support(n, bound):
            out.append(
                BalanceRecord(n, w, measure.p(n, w), measure.successor_mass(n, w))
            )
    return out


class PascalMeasure(TailInvariantMeasure):
    """Product measure on a multinomial diagram with direction ``d``.

    ``d`` maps coordinates to positive rationals summing to 1.  A cylinder
    through the key ``v`` has mass prod d_c^(mult_c); keys touching
    coordinates outside supp(d) carry no mass.
    """

    name = "pascal-mu"

    def __init__(self, d: Mapping[int, Fraction], diagram: PascalDiagram | None = None):
        self.d = {int(c): Fraction(x) for c, x in d.items()}
        if not self.d or any(x <= 0 for x in self.d.values()):
            raise DiagramError("direction weights must be positive")
        if sum(self.d.values()) != 1:
            raise DiagramError("direction weights must sum to exactly 1")
        if diagram is None:
            diagram = PascalDiagram("z" if min(self.d) <= 0 else "n")
        for c in self.d:
            if not diagram.coord_in_domain(c):
                raise DiagramError("coordinate %d is outside %s" % (c, diagram.family))
        super().__init__(diagram)

    def _p(self, n: int, v) -> Fraction:
        mass = Fraction(1)
        for c, mult in v:
            if c not in self.d:
                return Fraction(0)
            mass *= self.d[c] ** mult
        return mass

    def _successor_mass(self, n: int, w) -> Fraction:
        coords = set(self.d) | {c for c, _ in w}
        return self.mass_sum(n + 1, {key_add(w, c): 1 for c in coords})

    def level_support(self, n: int, bound: int | None = None) -> tuple:
        self.diagram.check_level(n)
        return tuple(_compositions(n, sorted(self.d)))


class BinftyMeasure(TailInvariantMeasure):
    """The slope-``a`` geometric measure on the triangular diagram.

    p_n(j) = a^(j-1) / (a+1)^(n+j-1) for j >= 1, n >= 1.  At a = 0 this is
    the point mass on the leftmost vertical path.
    """

    name = "binfty-mu"

    #: how many successor terms are summed explicitly before the geometric tail
    EXPLICIT_TERMS = 25

    def __init__(self, a):
        self.a = Fraction(a)
        if self.a < 0:
            raise DiagramError("the slope parameter must be >= 0")
        super().__init__(BinftyDiagram())

    def _p(self, n: int, j) -> Fraction:
        a = self.a
        return a ** (j - 1) / (a + 1) ** (n + j - 1)

    def mass_sum(self, n: int, weights: Mapping) -> Fraction:
        """With a = s/t, p_n(j) = s^(j-1) t^n / (s+t)^(n+j-1): integers over (s+t)^(n+J-1), J the largest j."""
        if not weights:
            return Fraction(0)
        _check_vertices(self.diagram, n, weights)
        s, t = self.a.numerator, self.a.denominator
        top = max(weights)
        spow, upow = [s ** e for e in range(top)], [(s + t) ** e for e in range(top)]
        num = sum(w * spow[j - 1] * upow[top - j] for j, w in weights.items())
        return Fraction(t ** n * num, (s + t) ** (n + top - 1))

    def tail_from(self, n: int, j_from: int) -> Fraction:
        """Exact sum of p_n(j) for j >= j_from (a geometric series)."""
        a = self.a
        x = a / (a + 1)
        return x ** (j_from - 1) / (a + 1) ** (n - 1)

    def _successor_mass(self, n: int, w) -> Fraction:
        cut = w + self.EXPLICIT_TERMS
        partial = self.mass_sum(n + 1, dict.fromkeys(range(w, cut), 1))
        return partial + self.tail_from(n + 1, cut)

    def level_support(self, n: int, bound: int | None = None) -> tuple:
        return self.diagram.level_vertices(n, 12 if bound is None else bound)

    def level_tail_mass(self, n: int, j_max: int) -> Fraction:
        """Exact tower mass above index ``j_max``: sum_{j > j_max} q_n(j).

        Uses the binomial-tail identity: with x = a/(a+1), the tail equals
        sum_{i=0}^{n-1} C(n+J-1, i) x^(n+J-1-i) (1-x)^i at J = j_max.
        """
        x = self.a / (self.a + 1)
        big = n + j_max - 1
        return sum(
            (comb(big, i) * x ** (big - i) * (1 - x) ** i for i in range(n)),
            Fraction(0),
        )

    def level_mass(self, n: int) -> Fraction:
        """Exact sum of q_n(j) for j <= 40 plus ``level_tail_mass`` above 40."""
        weights = {j: height(self.diagram, n, j) for j in range(1, 41)}
        return self.mass_sum(n, weights) + self.level_tail_mass(n, 40)

    level_mass_method = "finite sum plus exact binomial tail"


class StaircaseMeasure(TailInvariantMeasure):
    """The boundary measures on the staircase subdiagram of the triangle.

    The measure builds its own subdiagram, the offset-``k`` staircase.  On
    its levels W_n = {k, ..., k+n-1} the cylinder masses are
    p_n(j) = a^(j-k) / (1+a)^(n+j-k) * T(n+k-j+1), with the truncated
    geometric total T(s) = 1 + a + ... + a^(s-1).  Every level has total
    tower mass exactly 1, for every a > 0.
    """

    name = "staircase-nu"

    def __init__(self, a, k: int):
        super().__init__(build_subdiagram(BinftyDiagram(), {"kind": "vertex", "rule": "staircase", "k": k}))
        self.k = self.diagram.k
        self.a = Fraction(a)
        if self.a <= 0:
            raise DiagramError("the staircase parameter must be > 0")

    def _t(self, s: int) -> Fraction:
        a = self.a
        if a == 1:
            return Fraction(s)
        return (1 - a**s) / (1 - a)

    def _p(self, n: int, j) -> Fraction:
        a, k = self.a, self.k
        return a ** (j - k) / (1 + a) ** (n + j - k) * self._t(n + k - j + 1)

    def determining_value(self, n: int) -> Fraction:
        """p_n at the top vertex k+n-1: a^(n-1)/(1+a)^(2n-2)."""
        return self.p(n, self.k + n - 1)


class BinomialEdgeMeasure(TailInvariantMeasure):
    """Binomial measure on the two-edge (pascal) subdiagram of the triangle.

    The measure builds its own subdiagram, the offset-``k`` two-edge cone.
    A cylinder through vertex ``i`` of level ``n`` (cone {k, ..., k+n-1}) has
    mass prob^(k+n-1-i) (1-prob)^(i-k): each level chooses the vertical
    edge with probability ``prob`` and the diagonal with ``1-prob``.
    """

    name = "edge-binomial"

    def __init__(self, prob, k: int):
        super().__init__(build_subdiagram(BinftyDiagram(), {"kind": "edge", "rule": "pascal", "k": k}))
        self.k = self.diagram.k
        self.prob = Fraction(prob)
        if not 0 < self.prob < 1:
            raise DiagramError("the edge weight must lie strictly between 0 and 1")

    def _p(self, n: int, i) -> Fraction:
        pr, k = self.prob, self.k
        return pr ** (k + n - 1 - i) * (1 - pr) ** (i - k)

    def mass_sum(self, n: int, weights: Mapping) -> Fraction:
        """With prob = s/t, p_n(i) = s^(k+n-1-i) (t-s)^(i-k) / t^(n-1): integers over t^(n-1)."""
        if not weights:
            return Fraction(0)
        _check_vertices(self.diagram, n, weights, set(self.diagram.level_vertices(n)))
        s, t, k = self.prob.numerator, self.prob.denominator, self.k
        spow, dpow = [s ** e for e in range(n)], [(t - s) ** e for e in range(n)]
        num = sum(w * spow[k + n - 1 - i] * dpow[i - k] for i, w in weights.items())
        return Fraction(num, t ** (n - 1))


class OdometerColumnMeasure(TailInvariantMeasure):
    """The unique invariant measure on one vertical column of an odometer chain.

    The measure builds its own subdiagram, the constant column ``i`` of the
    odometer chain ``ambient``.  There the level-``L`` cylinder mass is
    1 / (a_0(i) a_1(i) ... a_(L-1)(i)); every level has tower mass 1.
    """

    name = "odometer-column"

    def __init__(self, ambient: OdometerChainDiagram, column: int):
        if not isinstance(ambient, OdometerChainDiagram):
            raise DiagramError("the column measure needs an odometer-chain ambient")
        super().__init__(build_subdiagram(ambient, {"kind": "vertex", "rule": "constant", "vertex": column}))
        self.column = column

    def _p(self, n: int, v) -> Fraction:
        denom = 1
        for j in range(self.diagram.base_level, n):
            denom *= self.diagram.ambient.entry(j, self.column)
        return Fraction(1, denom)


def _check_vertices(diagram: Diagram, n: int, vertices: Iterable, kept: set | None = None) -> None:
    """Raise as ``check_vertex`` would at the first of ``vertices`` outside ``kept`` (default: level ``n``)."""
    diagram.check_level(n)
    for v in vertices:
        if not (v in kept if kept is not None else diagram.level_contains(n, v)):
            diagram.check_vertex(n, v)


def restricted_level_mass(measure: TailInvariantMeasure, sub: Subdiagram, n: int) -> Fraction:
    """Mass the ambient ``measure`` leaves on a subdiagram level.

    Sums internal heights times ambient cylinder masses over the kept level:
    the portion of the ambient path space that has stayed inside the
    subdiagram through level ``n``.
    """
    return measure.mass_sum(n, {v: height(sub, n, v) for v in sub.level_vertices(n)})


# -- difference tables and complete monotonicity ------------------------------


def difference_table(seq: Sequence[Fraction], max_order: int) -> list[list[Fraction]]:
    """Rows 0..max_order of forward differences, row k using (c_i - c_(i+1))."""
    rows = [[Fraction(x) for x in seq]]
    for _ in range(max_order):
        prev = rows[-1]
        rows.append([prev[i] - prev[i + 1] for i in range(len(prev) - 1)])
    return rows


def completely_monotone_witness(seq: Sequence[Fraction], max_order: int):
    """None if every available difference is positive, else the first (k, i) failing."""
    rows = difference_table(seq, max_order)
    for k, row in enumerate(rows):
        for i, val in enumerate(row):
            if val <= 0:
                return (k, i)
    return None


# -- path sampling -------------------------------------------------------------


@dataclass
class SampleReport:
    """Summary of a Monte Carlo draw of product-measure paths.

    ``means`` holds, per coordinate, the exact average of (increments at the
    coordinate) / depth over the sampled paths; ``stderrs`` the matching
    standard errors sqrt(d_c (1 - d_c) / depth) / sqrt(count) as floats.
    """

    depth: int
    count: int
    seed: int
    coordinates: tuple
    means: dict
    stderrs: dict
    endpoint_counts: dict


def sample_paths(measure: PascalMeasure, depth: int, count: int, seed: int) -> SampleReport:
    """Draw ``count`` independent depth-``depth`` paths of a product measure.

    Each level adds one unit at coordinate c with probability d_c,
    independently of the past.  The draws are integer-exact: a step draws
    randrange(D), by randrange's own rejection of getrandbits, and bisects the
    cumulative numerators over the common denominator D of the weights, so no
    floating point enters the sampling.  Every path runs on its own generator
    seeded from the master stream, which makes any single path reproducible
    independent of ``count``.
    """
    if not isinstance(measure, PascalMeasure):
        raise DiagramError("path sampling is defined for product measures")
    if depth < 1 or count < 1:
        raise DiagramError("sampling needs positive depth and count")
    coords = sorted(measure.d)
    denom = lcm(*(measure.d[c].denominator for c in coords))
    thresholds = list(accumulate(int(measure.d[c] * denom) for c in coords))
    bits = denom.bit_length()
    master = random.Random(seed)
    totals = [0] * len(coords)
    endpoints: dict = {}
    for _ in range(count):
        draw = random.Random(master.getrandbits(64)).getrandbits
        hits = [0] * len(coords)
        for _ in range(depth):
            r = draw(bits)
            while r >= denom:  # randrange(denom)'s own rejection, so the stream is the same
                r = draw(bits)
            hits[bisect_right(thresholds, r)] += 1
        end = support_key(tuple((c, m) for c, m in zip(coords, hits) if m))
        endpoints[end] = endpoints.get(end, 0) + 1
        totals = [t + m for t, m in zip(totals, hits)]
    means = {c: Fraction(t, depth * count) for c, t in zip(coords, totals)}
    stderrs = {
        c: sqrt(float(measure.d[c] * (1 - measure.d[c])) / depth / count) for c in coords
    }
    return SampleReport(depth, count, seed, tuple(coords), means, stderrs, endpoints)
