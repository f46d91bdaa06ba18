"""Exact linear algebra on diagram levels: heights, stochastic rows, simplex metric.

All quantities are integers or ``fractions.Fraction``; nothing here rounds.
Heights are computed by the downward cone recursion, so they are exact for
every built-in family; ``heights_closed_form`` exposes the per-family closed
forms so the two routes can be compared.

``heights`` is the one height recursion.  It stores what it computes in the
diagram's height memo (level -> {vertex: H}, made in ``Diagram.__init__``),
so calls on one diagram instance share their cones: a query walks down only
through vertices the memo lacks.  Stochastic rows and the continuity
profile read their source heights from it.

``height`` is the one closed-form-else-recursion route: the family's closed
form when it has one, else ``heights``.  Closed forms are never written into
the memo, so ``heights`` stays an independent check on them.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .core import Diagram, DiagramError, vertex_window


def heights(diagram: Diagram, level: int, vertices: Iterable | None = None,
            bound: int | None = None) -> dict:
    """Exact heights H^(level)_v (number of paths down to the base level).

    Computed by the cone recursion H^(base) = 1, H^(n+1)_v = sum of
    multiplicities times the heights one level down.  ``vertices`` defaults
    to the canonical window at ``level``.

    Results are memoized on ``diagram``: the level and every requested
    vertex not yet in the memo are validated once here, the walk down stops
    at vertices the memo already holds, and the missing heights are then
    filled level by level from the bottom, reading rows unchecked through
    ``_predecessors``.  Nothing is stored until the walk
    has succeeded, so a call that raises (for example
    ``TruncationIncompleteError`` where declared data runs out) leaves the
    memo as it was and raises again the same way.
    """
    diagram.check_level(level)
    if vertices is None:
        vertices = vertex_window(diagram, level, bound)
    vertices = list(vertices)
    memo = diagram._height_memo
    todo = set(vertices).difference(memo.get(level, ()))
    for v in todo:
        diagram.check_vertex(level, v)
    need = {level: todo}
    lowest = level
    while todo and lowest > diagram.base_level:
        below: set = set()
        for v in todo:
            below.update(diagram._predecessors(lowest, v))
        lowest -= 1
        todo = below.difference(memo.get(lowest, ()))
        need[lowest] = todo
    for lvl in range(lowest, level + 1):
        filled = memo.setdefault(lvl, {})
        if lvl == diagram.base_level:
            filled.update(dict.fromkeys(need.pop(lvl), 1))
            continue
        h = memo.get(lvl - 1, {})
        for v in need.pop(lvl):
            filled[v] = sum(m * h[w] for w, m in diagram._predecessors(lvl, v).items())
    h = memo[level]
    return {v: h[v] for v in vertices}


def height(diagram: Diagram, level: int, v) -> int:
    """H^(level)_v: the family's closed form, else ``heights``.  A closed form does not check ``v``."""
    h = diagram.closed_form_height(level, v)
    if h is None:
        h = heights(diagram, level, [v])[v]
    return h


def heights_closed_form(diagram: Diagram, level: int, vertices: Iterable | None = None,
                        bound: int | None = None) -> dict:
    """Closed-form heights for families that have one; DiagramError otherwise.

    Validates the level and each vertex not in the height memo (memo entries were).
    """
    diagram.check_level(level)
    if vertices is None:
        vertices = vertex_window(diagram, level, bound)
    vertices = list(vertices)
    for v in set(vertices).difference(diagram._height_memo.get(level, ())):
        diagram.check_vertex(level, v)
    out = {}
    for v in vertices:
        value = diagram.closed_form_height(level, v)
        if value is None:
            raise DiagramError("%s has no closed-form height" % diagram.family)
        out[v] = value
    return out


def stochastic_row(diagram: Diagram, level: int, v) -> dict:
    """The stochastic row f_(v w) = f'_(v w) H_w / H_v for target ``v`` at ``level``.

    H_v is the row's total weight, the sum of f'_(v w) H_w, so rows sum to
    exactly 1.  Source heights come from the diagram's height memo, so
    repeated calls share work.
    """
    row = diagram.predecessors(level, v)
    h = heights(diagram, level - 1, row)
    weights = {w: m * h[w] for w, m in row.items()}
    hv = sum(weights.values())
    return {w: Fraction(x, hv) for w, x in weights.items()}


def stochastic_rows(diagram: Diagram, level: int, targets: Iterable) -> dict:
    """Stochastic rows for several targets at one level."""
    return {v: stochastic_row(diagram, level, v) for v in targets}


def simplex_distance(x: Mapping, y: Mapping, ranks: Mapping[object, int]) -> Fraction:
    """d(x, y) = sum over v of 2^(-a(v)) |x_v - y_v|, with a = ``ranks``.

    The exact reference, term by term; ``count_distance`` is the fast kernel.
    """
    total = Fraction(0)
    for v in set(x) | set(y):
        diff = Fraction(x.get(v, 0)) - Fraction(y.get(v, 0))
        if diff:
            total += abs(diff) * Fraction(1, 2 ** ranks[v])
    return total


def count_distance(c: Mapping, t: int, c2: Mapping, t2: int,
                   ranks: Mapping[object, int]) -> Fraction:
    """The simplex distance between c / t and c2 / t2 (integer maps, positive totals).

    With R the largest rank where they differ, it is sum |c_v t2 - c2_v t|
    2^(R - a(v)) over t t2 2^R: integer work and one ``Fraction``.
    """
    diffs = {v: abs(c.get(v, 0) * t2 - c2.get(v, 0) * t) for v in c.keys() | c2.keys()}
    diffs = {v: d for v, d in diffs.items() if d}
    if not diffs:
        return Fraction(0)
    top = max(ranks[v] for v in diffs)
    return Fraction(sum(d << (top - ranks[v]) for v, d in diffs.items()), (t * t2) << top)


def weighted_row_norm(row: Mapping, ranks: Mapping[object, int]) -> Fraction:
    """|g_v| = sum over sources w of 2^(-a(w)) f_(v w).

    The transpose of the stochastic incidence acts continuously on the
    simplex metric exactly when these norms tend to 0 as the target rank
    grows; this is the quantity the continuity probe tracks.
    """
    return sum(
        (Fraction(f) * Fraction(1, 2 ** ranks[w]) for w, f in row.items()),
        Fraction(0),
    )


def continuity_profile(diagram: Diagram, level: int, targets: Iterable) -> dict:
    """|g_v| for each target v at ``level`` (sources ranked at ``level - 1``)."""
    out = {}
    ranks: dict = {}
    for v in targets:
        row = stochastic_row(diagram, level, v)
        for w in row:
            if w not in ranks:
                ranks[w] = diagram.rank(level - 1, w)
        out[v] = weighted_row_norm(row, ranks)
    return out
