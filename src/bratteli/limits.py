"""Inverse-limit vectors: multi-level transition counts and their normalized limits.

``product_row(diagram, n, m, v)`` counts the paths from each level-``n``
vertex up to ``v`` at level ``n + m`` (the row of the m-fold incidence
product).  One-shot, it descends with its own dict of counts and reads each
row of the cone once: pushing one row's counts through ``linalg._cone_walk``
measured 1.2-1.8 times slower on narrow cones.  Normalizing such a row gives
a point of the level-``n`` simplex; following a sequence of top vertices
upward and watching these points stabilize is the engine used to locate
tail-invariant measures.  On the recursion route an iteration shares one
memo of rows (``_memo_product_row``), filled through ``_cone_walk``, so it
reads each cone row once in all.  Iterates are exact rationals; only the
stopping rule is heuristic, and results say so.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, islice
from math import factorial, floor
from typing import Callable, Mapping

from .core import (
    BinftyDiagram,
    BoundedDiagram,
    Diagram,
    DiagramError,
    PascalDiagram,
    _compositions,
    key_mult,
    step_polynomial_coefficients,
    support_key,
)
from .linalg import _cone_walk, _heights, count_distance


def product_row(diagram: Diagram, n: int, m: int, v) -> dict:
    """Path counts from each level-``n`` vertex to ``v`` at level ``n + m``.

    Computed by descending through the predecessor lists, so it is exact for
    every family and subdiagram.  Only ``v`` is validated; the one-shot descent
    reads each cone row once, unchecked, into its own dict, not ``_cone_walk``.
    """
    if m < 0:
        raise DiagramError("m must be >= 0")
    diagram.check_vertex(n + m, v)
    diagram.check_level(n)
    cur = {v: 1}
    for lvl in range(n + m, n, -1):
        nxt: dict = {}
        for u, c in cur.items():
            for w, mult in diagram._predecessors(lvl, u).items():
                nxt[w] = nxt.get(w, 0) + c * mult
        cur = nxt
    return cur


def closed_form_product_row(diagram: Diagram, n: int, m: int, v) -> dict:
    """Closed-form transition counts for the families that admit one."""
    if m < 0:
        raise DiagramError("m must be >= 0")
    diagram.check_vertex(n + m, v)
    if m == 0:
        return {v: 1}
    if isinstance(diagram, BinftyDiagram):
        # entry j is C(k+m-1, m-1) with k = v-j, and k -> k+1 multiplies it by (k+m)/(k+1)
        by_k = list(accumulate(range(v - 1), lambda c, k: c * (k + m) // (k + 1), initial=1))
        return {j: by_k[v - j] for j in range(1, v + 1)}
    if isinstance(diagram, PascalDiagram):
        out = {}
        for s in _compositions(n, [c for c, _ in v], [mult for _, mult in v]):
            count = factorial(m)
            for c, t_mult in v:
                count //= factorial(t_mult - key_mult(s, c))
            out[s] = count
        return out
    if isinstance(diagram, BoundedDiagram):
        coeffs = step_polynomial_coefficients(diagram.k, m)
        out = {}
        for delta, count in coeffs.items():
            w = v - delta
            if diagram.level_contains(n, w):
                out[w] = count
        return out
    raise DiagramError("%s has no closed-form transition counts" % diagram.family)


def _memo_product_row(diagram: Diagram, n: int, m: int, v, memo: dict) -> dict:
    """``product_row`` (m >= 1) through ``memo``: level -> {vertex: its row down to level ``n``}.

    ``v`` and ``n`` are checked as ``product_row`` checks them.  ``_cone_walk``
    then reads only the rows of cone vertices the memo lacks, and their rows
    are summed upward from their sources' and kept; do not change them.
    """
    diagram.check_vertex(n + m, v)
    diagram.check_level(n)
    lvl = n + m
    steps, bottom = _cone_walk(diagram, lvl, [] if v in memo.get(lvl, ()) else [v], memo, n)
    lvl -= len(steps)
    below = [{w: 1} for w in bottom] if lvl == n else list(map(memo[lvl].__getitem__, bottom))
    while steps:
        src, keys, flat, lens, mults = steps.pop()
        lvl += 1
        sources = map(below.__getitem__, flat)
        if mults is not None:
            sources = ({w: c * k for w, c in s.items()} if k > 1 else s for s, k in zip(sources, mults))
        filled = memo.setdefault(lvl, {})
        for key, length in zip(keys, lens):
            filled[key] = row = {}
            get = row.get
            for w, c in chain.from_iterable(map(dict.items, islice(sources, length))):
                row[w] = get(w, 0) + c
        below = list(map(filled.__getitem__, src))
    return memo[n + m][v]


def _transition_row(diagram: Diagram, n: int, m: int, v, method: str = "auto",
                    recursion: Callable | None = None) -> dict:
    """The transition counts from ``v`` down to level ``n`` by ``method``.

    "closed" and "recursion" pick ``closed_form_product_row`` or
    ``recursion`` (``product_row`` when None, looked up at the call);
    "auto" uses the closed form when the family has one.
    """
    if method == "closed":
        return closed_form_product_row(diagram, n, m, v)
    if method == "recursion":
        return (recursion or product_row)(diagram, n, m, v)
    try:
        return closed_form_product_row(diagram, n, m, v)
    except DiagramError:
        return (recursion or product_row)(diagram, n, m, v)


def _path_counts(diagram: Diagram, n: int, m: int, v, method: str,
                 recursion: Callable | None = None) -> tuple[dict, int]:
    """The nonzero transition counts from ``v`` down to level ``n``, and their total."""
    row = _transition_row(diagram, n, m, v, method, recursion)
    total = sum(row.values())
    if total == 0:
        raise DiagramError("no paths reach level %d from %r" % (n, v))
    return {w: c for w, c in row.items() if c}, total


def normalized_product_row(diagram: Diagram, n: int, m: int, v,
                           method: str = "auto") -> dict:
    """The transition row scaled to total mass 1 (a level-``n`` simplex point)."""
    counts, total = _path_counts(diagram, n, m, v, method)
    return {w: Fraction(c, total) for w, c in counts.items()}


@dataclass
class LimitResult:
    """Outcome of the inverse-limit iteration at one level.

    ``vector`` is the last normalized iterate (exact rationals), ``distances``
    the successive simplex distances, ``mass_sums`` the successive values of
    sum(y_w H_w).  ``converged`` reports the heuristic stopping rule: five
    consecutive distances below tolerance with the mass sum relatively stable.
    The iterates themselves are exact; only the convergence claim is evidence.
    """

    level: int
    vector: dict
    steps: int
    distances: list = field(default_factory=list)
    mass_sums: list = field(default_factory=list)
    converged: bool = False
    note: str = "exact iterates; stopping rule is numerical evidence, not a proof"


STABLE_STEPS = 5


def limit_along(diagram: Diagram, n: int, top_rule: Callable[[int, int], object],
                tol: Fraction = Fraction(1, 10**6), m_max: int = 200,
                method: str = "auto") -> LimitResult:
    """Follow normalized transition rows up a vertex ray and watch them settle.

    ``top_rule(m, level)`` names the top vertex at ``level = n + m`` for each
    m >= 1.  Stops once the last ``STABLE_STEPS`` successive simplex distances
    fall below ``tol`` and the mass sums are relatively stable at the same
    scale, or at ``m_max``.  Iterates stay integer path counts and their
    total; only the last becomes a vector of fractions.  Recursion rows share
    one memo for the call, so each cone row is read once over the iteration.
    """
    tol = Fraction(tol)
    recursion = partial(_memo_product_row, memo={})  # the iterates share the cone rows read so far
    prev = None
    distances: list = []
    mass_sums: list = []
    ranks: dict = {}
    converged = False
    for m in range(1, m_max + 1):
        v = top_rule(m, n + m)
        counts, total = _path_counts(diagram, n, m, v, method, recursion)
        for w in counts:
            if w not in ranks:
                ranks[w] = diagram.rank(n, w)
        hs = _heights(diagram, n, counts)
        mass_sums.append(Fraction(sum(c * hs[w] for w, c in counts.items()), total))
        if prev is not None:
            distances.append(count_distance(*prev, counts, total, ranks))
        prev = counts, total
        if len(distances) >= STABLE_STEPS and all(d < tol for d in distances[-STABLE_STEPS:]):
            sums = mass_sums[-(STABLE_STEPS + 1):]
            if all((abs(a - b) / b if b else abs(a - b)) < tol for a, b in zip(sums, sums[1:])):
                converged = True
                break
    return LimitResult(
        level=n,
        vector={w: Fraction(c, prev[1]) for w, c in prev[0].items()} if prev else {},
        steps=len(mass_sums),
        distances=distances,
        mass_sums=mass_sums,
        converged=converged,
    )


# -- top-vertex rules -------------------------------------------------------


def constant_top(v) -> Callable[[int, int], object]:
    return lambda m, level: v


def index_ray(slope) -> Callable[[int, int], int]:
    """Integer-index tops growing like slope * m (at least 1)."""
    slope = Fraction(slope)
    return lambda m, level: max(1, floor(slope * m + Fraction(1, 2)))


def pascal_ray(d: Mapping[int, Fraction]) -> Callable[[int, int], tuple]:
    """Support keys tracking the direction ``d`` by largest-remainder rounding.

    ``d`` maps coordinates to positive rationals summing to 1; the top at
    ``level`` is the level-``level`` key whose multiplicities apportion
    ``level`` among the coordinates proportionally to ``d``.
    """
    d = {int(c): Fraction(x) for c, x in d.items()}
    if sum(d.values()) != 1 or any(x <= 0 for x in d.values()):
        raise DiagramError("direction weights must be positive and sum to 1")
    coords = sorted(d)

    def rule(m: int, level: int) -> tuple:
        quotas = {c: d[c] * level for c in coords}
        base = {c: floor(quotas[c]) for c in coords}
        remaining = level - sum(base.values())
        by_remainder = sorted(coords, key=lambda c: (base[c] - quotas[c], c))
        for c in by_remainder[:remaining]:
            base[c] += 1
        return support_key((c, mult) for c, mult in base.items() if mult)

    return rule


# -- closed-form limit vectors ----------------------------------------------


def binfty_limit_vector(a, bound: int = 20) -> dict:
    """The limit of normalized rows along the slope-``a`` ray: y_j = a^(j-1)/(a+1)^j.

    The same vector works at every level; entries are reported for
    j = 1..bound (the full vector has infinite support when a > 0 and total
    mass exactly 1).
    """
    a = Fraction(a)
    if a < 0:
        raise DiagramError("the ray parameter must be >= 0")
    out = {}
    for j in range(1, bound + 1):
        val = a ** (j - 1) / (a + 1) ** j
        if val:
            out[j] = val
    if a == 0:
        out = {1: Fraction(1)}
    return out


def pascal_limit_vector(d: Mapping[int, Fraction], n: int) -> dict:
    """Tower masses of the direction-``d`` limit at level ``n``.

    Entries are multinomial(key) * prod d_c^(mult_c) over the level-``n``
    keys supported inside supp(d); they sum to exactly 1.
    """
    d = {int(c): Fraction(x) for c, x in d.items()}
    if sum(d.values()) != 1 or any(x <= 0 for x in d.values()):
        raise DiagramError("direction weights must be positive and sum to 1")
    out = {}
    for key in _compositions(n, sorted(d)):
        weight = factorial(n)
        prob = Fraction(1)
        for c, mult in key:
            weight //= factorial(mult)
            prob *= d[c] ** mult
        out[key] = weight * prob
    return out
