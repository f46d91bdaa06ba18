"""Exact linear algebra on diagram levels: heights, stochastic rows, simplex metric.

All quantities are integers or ``fractions.Fraction``; nothing here rounds.
``heights`` computes heights by the downward cone recursion, so they are
exact for every built-in family; ``heights_closed_form`` exposes the
per-family closed forms so the two routes can be compared.

``_heights`` is the one height recursion, and it checks nothing.  Its
``_cone_walk`` reads each row of the cone once, unchecked, and keeps it as
integer indices into the next level's source list (multiplicities only
where some entry is not 1), so no row dict and no fresh key tuple outlives
the level that read it; the heights are then filled upward by list
indexing.  The walk stops at the vertices of a given memo and at a given
floor level, so ``limits.limit_along`` fills its per-call memo of count
rows through it too.  They are stored in the diagram's height memo (level -> {vertex:
H}, made in ``Diagram.__init__``) only once the walk has succeeded, so
calls on one diagram instance share their cones: a query walks down only
through vertices the memo lacks.

A whole window of a Pascal diagram takes a second route through the same
recursion, ``_pascal_window_heights``, which pushes path counts over integer
codes of the coordinate multisets and reads no row.  Explicit lists,
subdiagrams and every other family keep ``_cone_walk``.  Both routes are
recursions over the diagram's edges, independent of the closed forms.

Validation happens once, at entry.  A whole window (``vertices`` or
``targets`` left ``None``, cut by ``bound``) is trusted, because
``vertex_window`` lists vertices; an explicit list is checked.
``_weighted_rows`` is the one row reader: it reads each target row once,
takes each source height from the family's closed form, fills the sources
that have none with one ``_heights`` call, and yields each row as integer
weights f'_(v w) H_w over H_v, the target's closed-form height where the
family has one and the row's total where it has none.  ``Fraction``s appear
only at the public ``stochastic_rows`` boundary; the continuity profile and
the CLI work on the integers.

``height`` is the one closed-form-else-recursion route for a single vertex:
the family's closed form when it has one, else ``heights``.  Closed forms
are never written into the memo, so ``heights`` stays the recursion and an
independent check on them (the ``heights`` command's ``closed_form_agrees``).
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, count, filterfalse, islice, repeat
from operator import mul
from typing import Iterable, Mapping

from .core import Diagram, DiagramError, PascalDiagram, TruncationIncompleteError, vertex_window


def heights(diagram: Diagram, level: int, vertices: Iterable | None = None,
            bound: int | None = None) -> dict:
    """Exact heights H^(level)_v (number of paths down to the base level).

    Computed by the cone recursion H^(base) = 1, H^(n+1)_v = sum of
    multiplicities times the heights one level down.  ``vertices`` defaults
    to the canonical window at ``level``, whose vertices are not checked; an
    explicit list is checked once per vertex not yet in the height memo.

    A whole Pascal window takes ``_pascal_window_heights``: its cone is every
    multiset of its coordinates at each lower level, so coding them all
    wastes nothing.  Every other call walks the cone's rows (``_heights``).  An
    explicit Pascal list keeps the walk, because its cone can be far smaller
    than the coded levels: a level-8 vertex over 8 distinct coordinates has a
    256-vertex cone, against 12,870 codes.
    """
    if vertices is None and isinstance(diagram, PascalDiagram):
        return _pascal_window_heights(diagram, level, bound)
    return _heights(diagram, level, _entry_vertices(diagram, level, vertices, bound))


def _pascal_window_heights(diagram: PascalDiagram, level: int, bound: int | None) -> dict:
    """The heights of the Pascal window at ``level``, by the cone recursion on integer codes.

    The window's i-th coordinate weighs B^i with B = level + 1, and a key codes
    as the sum of m B^i over its pairs (c, m).  A multiplicity never exceeds
    the level, so two keys of one level never share a code, and an edge adds
    one coordinate's weight.  From the base vertex's code 0, each level pushes
    every count to u + B^i for every coordinate i, and each window key reads
    its height at its code.  Only the top level is stored in the height memo,
    and a window the memo already holds is read from it, pushing nothing.
    """
    bound = diagram.truncation_bound if bound is None else bound  # ``vertex_window``'s rule
    keys = vertex_window(diagram, level, bound)
    held = diagram._height_memo.get(level)
    if held and all(map(held.__contains__, keys)):
        return {v: held[v] for v in keys}
    domain = diagram._coord_domain(bound)
    weights = [(level + 1) ** i for i in range(len(domain))]
    counts = {0: 1}
    for _ in range(level):
        pushed = {}
        get = pushed.get
        for s in weights:
            for u, h in counts.items():
                u += s
                pushed[u] = get(u, 0) + h
        counts = pushed
    code = {(c, m): m * s for c, s in zip(domain, weights) for m in range(1, level + 1)}.__getitem__
    out = {v: counts[sum(map(code, v))] for v in keys}
    diagram._height_memo.setdefault(level, {}).update(out)
    return out


def _entry_vertices(diagram: Diagram, level: int, vertices: Iterable | None,
                    bound: int | None):
    """The window at ``level`` (trusted), else ``vertices`` checked where the height memo lacks them."""
    diagram.check_level(level)
    if vertices is None:
        return vertex_window(diagram, level, bound)
    vertices = list(vertices)
    for v in set(vertices).difference(diagram._height_memo.get(level, ())):
        diagram.check_vertex(level, v)
    return vertices


def _heights(diagram: Diagram, level: int, vertices: Iterable) -> dict:
    """``heights`` unchecked: ``vertices`` must be vertices of ``level``.

    ``_cone_walk`` reads each missing row once, and the heights are then
    filled upward by list indexing.  Nothing is stored until the walk has
    succeeded, so a call that raises (for example
    ``TruncationIncompleteError`` where declared data runs out) leaves the
    memo as it was and raises again the same way.
    """
    memo = diagram._height_memo
    held = memo.get(level, {})
    steps, bottom = _cone_walk(diagram, level, list(filterfalse(held.__contains__, dict.fromkeys(vertices))),
                               memo, diagram.base_level)
    lvl = level - len(steps)  # the base level, or one where the memo holds every source
    held = memo.setdefault(lvl, {})
    if lvl == diagram.base_level:
        held.update(dict.fromkeys(bottom, 1))
        h = [1] * len(bottom)
    else:
        h = list(map(held.__getitem__, bottom))
    while steps:
        src, keys, flat, lens, mults = steps.pop()
        lvl += 1
        terms = map(h.__getitem__, flat)
        if mults is not None:
            terms = map(mul, terms, mults)
        h = list(map(sum, map(islice, repeat(terms), lens)))  # each row sums the next len terms
        filled = memo.setdefault(lvl, {})
        filled.update(zip(keys, h))
        if keys is not src:  # some sources were held: align with the rows above
            h = list(map(filled.__getitem__, src))
    h = memo[level]
    return dict(zip(vertices, map(h.__getitem__, vertices)))


_UNIT = frozenset((1,))
_CHUNK = 64  # rows read at once: enough to amortize the bookkeeping, few dicts alive


def _cone_walk(diagram: Diagram, level: int, keys: list, memo: Mapping, floor: int):
    """Read the rows of ``keys`` at ``level``, then those of their sources, down to level ``floor``.

    Each row is read once, unchecked, and kept as indices into the next
    level's source list, with the level's multiplicities only when one is
    not 1; no row of a vertex that ``memo`` (level -> {vertex: value}) holds
    is read.  Returns
    ``(steps, bottom)``: per level from the top, ``(src, keys, flat, lens,
    mults)``, where the rows of ``keys`` (``src``, or its members the memo
    lacks) lie one after another in ``flat`` with lengths ``lens``;
    ``bottom`` is the source list of the last.  A missing row raises
    ``TruncationIncompleteError`` naming the level's first missing row in
    ``repr`` order, so not one that depends on the hash seed.
    """
    read = diagram._predecessors
    values, flatten = dict.values, chain.from_iterable
    steps: list = []
    src = keys
    while keys and level > floor:
        index = defaultdict(count().__next__)  # a new source gets the next index
        at = index.__getitem__
        flat, lens, mults = [], [], []
        parts = ([keys] if len(keys) <= _CHUNK
                 else [keys[i:i + _CHUNK] for i in range(0, len(keys), _CHUNK)])
        for part in parts:
            try:
                rows = list(map(read, repeat(level), part))
            except TruncationIncompleteError:
                for v in sorted(keys, key=repr):  # raises at the first missing row
                    read(level, v)
                raise
            flat += map(at, flatten(rows))
            lens += map(len, rows)
            mults += flatten(map(values, rows))
        steps.append((src, keys, flat, lens, None if _UNIT.issuperset(mults) else mults))
        level -= 1
        src = keys = list(index)
        held = memo.get(level)
        if held:
            keys = list(filterfalse(held.__contains__, src))
    return steps, src


def height(diagram: Diagram, level: int, v) -> int:
    """H^(level)_v: the family's closed form, else ``heights``.

    A closed form does not check ``v``, so ``v`` must be a vertex of ``level``;
    ``_weighted_rows`` takes its source heights the same way, for many at once.
    """
    h = diagram.closed_form_height(level, v)
    if h is None:
        h = heights(diagram, level, [v])[v]
    return h


def heights_closed_form(diagram: Diagram, level: int, vertices: Iterable) -> dict:
    """Closed-form heights of ``vertices``, each checked as ``heights`` checks a list;
    DiagramError for a family with no closed form."""
    out = {}
    for v in _entry_vertices(diagram, level, vertices, None):
        value = diagram.closed_form_height(level, v)
        if value is None:
            raise DiagramError("%s has no closed-form height" % diagram.family)
        out[v] = value
    return out


def stochastic_row(diagram: Diagram, level: int, v) -> dict:
    """The stochastic row f_(v w) = f'_(v w) H_w / H_v for target ``v`` at ``level``."""
    return stochastic_rows(diagram, level, [v])[v]


def stochastic_rows(diagram: Diagram, level: int, targets: Iterable | None = None,
                    bound: int | None = None) -> dict:
    """Stochastic rows for several targets at one level, the window by default.

    Targets are taken, and rows read, as ``_weighted_rows`` does, and each
    row is divided by the H_v it yields: the closed form where the family
    has one, else the row's total weight.  Rows sum to exactly 1 whenever
    the closed forms are right.
    """
    return {v: {w: Fraction(x, hv) for w, x in weights.items()}
            for v, weights, hv in _weighted_rows(diagram, level, targets, bound)}


def _weighted_rows(diagram: Diagram, level: int, targets: Iterable | None,
                   bound: int | None):
    """Yield (v, {w: f'_(v w) H_w}, H_v) for each target v at ``level``, one row at a time.

    An explicit target is checked as ``predecessors`` checks it; a window's
    targets are trusted.  Each row is read once.  A source height is the
    family's closed form; the sources that have none (custom specs, odometer
    chains with column rules, explicit subdiagrams) share one ``_heights`` call.
    H_v is the target's closed form too, so it equals the row's total only
    when the closed forms of both levels satisfy the height identity; where
    there is none, H_v is the row's total.
    """
    read = diagram.predecessors
    if targets is None:
        targets = vertex_window(diagram, level, bound)
        if level > diagram.base_level:  # at the base level the checked read refuses
            read = diagram._predecessors
    rows = {v: read(level, v) for v in targets}
    sources = set().union(*rows.values())
    h = dict(zip(sources, map(diagram.closed_form_height, repeat(level - 1), sources)))
    missing = [w for w, x in h.items() if x is None]
    if missing:
        h.update(_heights(diagram, level - 1, missing))
    for v, row in rows.items():
        weights = {w: m * h[w] for w, m in row.items()}
        hv = diagram.closed_form_height(level, v)
        yield v, weights, sum(weights.values()) if hv is None else hv


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


def continuity_profile(diagram: Diagram, level: int, targets: Iterable | None = None,
                       bound: int | None = None) -> dict:
    """|g_v| for each target v at ``level`` (sources ranked at ``level - 1``).

    Targets are taken, and rows read, as ``_weighted_rows`` does.  With R the
    largest source rank of a row, its norm is sum f'_(v w) H_w 2^(R - a(w))
    over H_v 2^R: integer work and one ``Fraction``.
    """
    out = {}
    ranks: dict = {}
    for v, weights, hv in _weighted_rows(diagram, level, targets, bound):
        for w in weights:
            if w not in ranks:
                ranks[w] = diagram.rank(level - 1, w)
        top = max((ranks[w] for w in weights), default=0)
        num = sum(x << (top - ranks[w]) for w, x in weights.items())
        out[v] = Fraction(num, hv << top) if weights else Fraction(0)
    return out
