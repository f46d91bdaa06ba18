"""Generalized Bratteli diagrams: vertex keys, diagram families, windows, subdiagrams.

A diagram is an infinite sequence of countable vertex levels joined by
row-finite incidence matrices.  Levels are numbered from ``base_level``
upward; the incidence matrix between level ``n`` and level ``n+1`` is read
through ``predecessors(n+1, v)``, the multiset of level-``n`` sources of the
edges whose range is ``v``.  Every vertex has finitely many predecessors, so
any quantity defined by downward recursion (heights, path counts) is exactly
computable without truncation error for the built-in families.

Vertex keys are either plain integers (index-labelled levels) or "support
keys": tuples of ``(coordinate, multiplicity)`` pairs with strictly
increasing coordinates and positive multiplicities, encoding a finitely
supported multiplicity vector whose total is the level number.

Public methods (``predecessors``, ``successors``, ``rank``) validate their
level and vertex.  ``_predecessors`` reads rows unchecked, for callers that
validated a vertex once and descend from it (``linalg.heights``,
``limits.product_row``, a subdiagram reading its ambient rows): a
predecessor of a vertex is a vertex.
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate, chain
from math import comb, factorial
from operator import sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

FAMILIES = (
    "pascal-n",
    "pascal-z",
    "pascal-k",
    "binfty",
    "bounded-finite",
    "bounded-generalized",
    "odometer-io",
    "custom",
)


class DiagramError(ValueError):
    """Invalid diagram specification or out-of-domain request."""


class TruncationIncompleteError(DiagramError):
    """A computation needs vertices or rows outside the declared data.

    ``missing`` lists ``(level, vertex)`` pairs that would be required.
    """

    def __init__(self, message: str, missing: Sequence[tuple] = ()):
        super().__init__(message)
        self.missing = list(missing)


def zigzag(i: int) -> int:
    """Enumeration of the signed integers: 0->1, 1->2, -1->3, 2->4, -2->5, ..."""
    if i == 0:
        return 1
    if i > 0:
        return 2 * i
    return 2 * (-i) + 1


def support_key(pairs: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """Build a canonical support key from (coordinate, multiplicity) pairs."""
    try:
        items = [(int(c), int(m)) for c, m in pairs]
    except (TypeError, ValueError):
        raise DiagramError("a support key is a list of [coordinate, multiplicity] "
                           "integer pairs, got %r" % (pairs,)) from None
    items.sort()
    coords = [c for c, _ in items]
    if len(set(coords)) != len(coords):
        raise DiagramError("support key has a repeated coordinate: %r" % (items,))
    if any(m < 1 for _, m in items):
        raise DiagramError("support key multiplicities must be >= 1: %r" % (items,))
    return tuple(items)


def key_level(key: tuple[tuple[int, int], ...]) -> int:
    return sum(m for _, m in key)


def key_mult(key: tuple[tuple[int, int], ...], coord: int) -> int:
    for c, m in key:
        if c == coord:
            return m
    return 0


def key_add(key: tuple[tuple[int, int], ...], coord: int) -> tuple[tuple[int, int], ...]:
    """The key with one more unit at ``coord``."""
    out = []
    placed = False
    for c, m in key:
        if c == coord:
            out.append((c, m + 1))
            placed = True
        else:
            out.append((c, m))
    if not placed:
        out.append((coord, 1))
        out.sort()
    return tuple(out)


def _coord_rank(coord: int, signed: bool) -> int:
    return zigzag(coord) if signed else coord


def _pascal_keys(level: int, top: int, signed: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """The level-``level`` keys whose coordinates have enumeration rank <= ``top``, in rank order.

    The order is the largest coordinate rank, then the support size, then the
    (rank, multiplicity) pairs lexicographically.  Keys of one largest rank are
    grown one lower pair at a time from heads already in order, so no sort is
    needed; signed keys are then re-sorted by coordinate.
    """
    if level == 0:
        yield ()
        return
    for t in range(1, top + 1):
        heads = [((), 0, 0)]  # (pairs of rank below t, their total, their last rank)
        while heads:
            keys = [head + ((t, level - used),) for head, used, _ in heads]
            yield from (tuple(sorted((-(r // 2) if r % 2 else r // 2, m) for r, m in key))
                        for key in keys) if signed else keys
            heads = [(head + ((r, m),), used + m, r) for head, used, last in heads
                     for r in range(last + 1, t) for m in range(1, level - used)]


def _compositions(total: int, coords: Sequence[int],
                  caps: Sequence[int] | None = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """Support keys of level ``total`` over ``coords``, each multiplicity within its ``caps`` entry.

    Capping keeps the uncapped order: at each coordinate, multiplicity 0 first, then 1, 2, ...
    The walk is depth-first on an explicit stack, not recursive, so any number of
    coordinates can be walked; multiplicity 0 is pushed last so that it is taken first.
    """
    coords = list(coords)
    stack = [(0, total, ())]
    while stack:
        i, remaining, acc = stack.pop()
        if remaining == 0:
            yield tuple(sorted(acc))
        elif i < len(coords):
            top = remaining if caps is None else min(caps[i], remaining)
            stack.extend((i + 1, remaining - m, acc + ((coords[i], m),)) for m in range(top, 0, -1))
            stack.append((i + 1, remaining, acc))


@lru_cache(maxsize=None)
def _pascal_positions(level: int, r: int, signed: bool) -> dict:
    """Rank of every level-``level`` key whose coordinates stay within the
    first ``r`` enumeration ranks.

    The level enumeration orders primarily by the largest coordinate rank,
    so this finite slice is a prefix of the whole level and positions in it
    are the global ranks.
    """
    return {k: i for i, k in enumerate(_pascal_keys(level, r, signed), 1)}


def _pascal_rank(key: tuple[tuple[int, int], ...], level: int, signed: bool) -> int:
    if level == 0:
        return 1
    r = max(_coord_rank(c, signed) for c, _ in key)
    return _pascal_positions(level, r, signed)[key]


class Diagram:
    """Base class for diagram families.  Instances are immutable.

    ``_height_memo`` maps level -> {vertex: H}: heights are a pure function
    of the diagram, so ``linalg.heights`` fills it once per vertex and every
    later query on the same instance reuses it.
    """

    family: str = "abstract"
    base_level: int = 0
    integer_keys: bool = True

    def __init__(self, params: Mapping | None = None):
        self.params = dict(params or {})
        self._height_memo: dict[int, dict] = {}

    # -- structure ---------------------------------------------------------

    def predecessors(self, level: int, v) -> dict:
        """Sources (with multiplicities) of the edges whose range is ``v`` at ``level``; checked."""
        self.check_vertex(level, v)
        if level == self.base_level:
            raise DiagramError("base level vertices have no predecessors")
        return self._predecessors(level, v)

    def _predecessors(self, level: int, v) -> dict:
        """``predecessors`` unchecked: ``v`` must be a vertex above the base level."""
        raise NotImplementedError

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        """Targets (with multiplicities) at ``level+1`` of edges with source ``w``.

        Families with infinitely many successors require ``bound``.
        """
        raise NotImplementedError

    def level_contains(self, level: int, v) -> bool:
        raise NotImplementedError

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        """The level's vertices within the truncation bound, in rank order."""
        raise NotImplementedError

    def rank(self, level: int, v) -> int:
        """The enumeration a(v) of the level: distinct positive integers."""
        raise NotImplementedError

    # -- conveniences -------------------------------------------------------

    def check_level(self, level: int) -> None:
        if level < self.base_level:
            raise DiagramError(
                "%s has no level %d (base level is %d)"
                % (self.family, level, self.base_level)
            )

    def check_vertex(self, level: int, v) -> None:
        self.check_level(level)
        if not self.level_contains(level, v):
            raise DiagramError("%r is not a vertex of level %d of %s" % (v, level, self.family))

    def closed_form_height(self, level: int, v):
        """Exact closed-form height, or None when the family has none."""
        return None


class PascalDiagram(Diagram):
    """Multinomial diagrams: vertices are multiplicity vectors summing to the level.

    ``coords`` is one of "n" (positive integer coordinates), "z" (signed
    integers), or a fixed finite count k >= 1 (coordinates 1..k).  An edge
    joins s-bar to s-bar + e^(i) for every coordinate i in the domain.
    """

    integer_keys = False
    base_level = 0

    def __init__(self, coords="n"):
        if coords not in ("n", "z") and (not isinstance(coords, int) or coords < 1):
            raise DiagramError("pascal coords must be 'n', 'z', or a positive integer")
        self.coords = coords
        if coords == "n":
            self.family = "pascal-n"
        elif coords == "z":
            self.family = "pascal-z"
        else:
            self.family = "pascal-k"
        super().__init__({"coords": coords})

    @property
    def signed(self) -> bool:
        return self.coords == "z"

    def coord_in_domain(self, c: int) -> bool:
        if self.coords == "n":
            return c >= 1
        if self.coords == "z":
            return True
        return 1 <= c <= self.coords

    def _coord_domain(self, bound: int | None) -> list[int]:
        if isinstance(self.coords, int):
            cap = self.coords if bound is None else min(self.coords, bound)
            return list(range(1, cap + 1))
        if bound is None:
            raise DiagramError("%s needs a truncation bound to list coordinates" % self.family)
        if self.coords == "n":
            return list(range(1, bound + 1))
        return list(range(-bound, bound + 1))

    def _predecessors(self, level: int, v) -> dict:
        # one unit removed at each position, ascending; a pair at 1 drops out
        return {v[:i] + ((c, m - 1),) + v[i + 1:] if m > 1 else v[:i] + v[i + 1:]: 1
                for i, (c, m) in enumerate(v)}

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_vertex(level, w)
        if isinstance(self.coords, int):
            domain = range(1, self.coords + 1)
        else:
            if bound is None:
                raise DiagramError("successor set is infinite; pass a coordinate bound")
            domain = self._coord_domain(bound)
        return {key_add(w, c): 1 for c in domain}

    def level_contains(self, level: int, v) -> bool:
        if not isinstance(v, tuple):
            return False
        try:
            canon = support_key(v)
        except DiagramError:
            return False
        if canon != tuple(v):
            return False
        return key_level(canon) == level and all(self.coord_in_domain(c) for c, _ in canon)

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        return tuple(_pascal_keys(level, len(self._coord_domain(bound)), self.signed))

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return _pascal_rank(v, level, self.signed)

    def closed_form_height(self, level: int, v):
        num = factorial(level)
        denom = 1
        for _, m in v:
            denom *= factorial(m)
        return num // denom


class BinftyDiagram(Diagram):
    """The triangular diagram: every level is 1, 2, 3, ...; an edge i -> j
    exists for every pair j <= i of consecutive-level vertices.  Levels start
    at 1, where all heights are 1.
    """

    family = "binfty"
    base_level = 1

    def __init__(self):
        super().__init__()

    def _predecessors(self, level: int, v) -> dict:
        return {w: 1 for w in range(1, v + 1)}

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_vertex(level, w)
        if bound is None:
            raise DiagramError("successor set is infinite; pass an index bound")
        return {v: 1 for v in range(w, bound + 1)}

    def level_contains(self, level: int, v) -> bool:
        return isinstance(v, int) and v >= 1

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        if bound is None:
            raise DiagramError("binfty levels are infinite; pass an index bound")
        return tuple(range(1, bound + 1))

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return v

    def closed_form_height(self, level: int, v):
        return comb(v + level - 2, level - 1)


class BoundedDiagram(Diagram):
    """Integer levels with steps of size at most k.

    ``finite=True``: level n is {-nk..nk} (single root 0), and the height of
    v is the coefficient of x^v in (x^-k + ... + x^k)^n; only v = 0 is central.
    ``finite=False``: every level is all signed integers, heights (2k+1)^n.
    """

    def __init__(self, k: int, finite: bool):
        if not isinstance(k, int) or k < 1:
            raise DiagramError("bounded-size parameter k must be a positive integer")
        self.k = k
        self.finite = finite
        self.family = "bounded-finite" if finite else "bounded-generalized"
        super().__init__({"k": k})

    def _predecessors(self, level: int, v) -> dict:
        lo, hi = v - self.k, v + self.k
        if self.finite:
            cap = (level - 1) * self.k
            lo, hi = max(lo, -cap), min(hi, cap)
        return {w: 1 for w in range(lo, hi + 1)}

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_vertex(level, w)
        return {v: 1 for v in range(w - self.k, w + self.k + 1)}

    def level_contains(self, level: int, v) -> bool:
        if not isinstance(v, int):
            return False
        if self.finite:
            return abs(v) <= level * self.k
        return True

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        if self.finite:
            cap = level * self.k if bound is None else min(level * self.k, bound)
        else:
            if bound is None:
                raise DiagramError("levels are infinite; pass a bound")
            cap = bound
        return tuple(sorted(range(-cap, cap + 1), key=zigzag))

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return zigzag(v)

    def closed_form_height(self, level: int, v):
        if not self.finite:
            return (2 * self.k + 1) ** level
        return step_polynomial_coefficients(self.k, level).get(v, 0)


#: k -> {power: coefficients}, holding only the powers callers asked for
_step_powers: dict[int, dict[int, dict[int, int]]] = {}


def step_polynomial_coefficients(k: int, power: int) -> dict[int, int]:
    """Coefficients of (x^-k + ... + 1 + ... + x^k)^power as {exponent: coefficient}.

    Built from the largest power already cached for ``k`` by one
    ``_step_convolve`` per missing power, so ascending calls for 1..m cost m
    convolutions in all.  Every dict has the key order of the from-scratch
    loop, ascending, which is the order each step writes its window sums in.
    """
    cached = _step_powers.setdefault(k, {})
    coeffs = cached.get(power)
    if coeffs is None:
        start = max((p for p in cached if 0 < p < power), default=0)
        coeffs = cached[start] if start else {0: 1}
        for _ in range(start, power):
            coeffs = _step_convolve(coeffs, k)
        cached[power] = coeffs
    return coeffs


def _step_convolve(coeffs: dict[int, int], k: int) -> dict[int, int]:
    """``coeffs`` times x^-k + ... + x^k: the next power's coefficients.

    The keys of ``coeffs`` ascend with no gaps, so each is a window sum, taken as a difference of prefix sums.
    """
    lo, pad = next(iter(coeffs)), (0,) * (2 * k)
    sums = list(accumulate(chain(pad, coeffs.values(), pad), initial=0))
    return dict(zip(range(lo - k, lo + len(coeffs) + k), map(sub, sums[2 * k + 1:], sums)))


class OdometerChainDiagram(Diagram):
    """Countably many odometer columns, each linked to the next by one edge.

    Every level is 1, 2, 3, ...; the vertex i at level n+1 receives a_n(i)
    edges from vertex i and one edge from vertex i+1 at level n.  Entry rules:
    an integer (stationary), an explicit list (level-indexed from 0), or the
    name "pow2" (a_n = 2^(n+1)), each also as CLI text.  ``columns``
    optionally overrides the rule for individual columns.
    """

    family = "odometer-io"
    base_level = 0

    def __init__(self, a, columns: Mapping[int, object] | None = None):
        self._default_rule = _parse_entry_rule(a)
        self._column_rules = {as_int(i, "an odometer column"): _parse_entry_rule(r)
                              for i, r in _object(columns or {}, "odometer columns").items()}
        super().__init__({"a": a, "columns": dict(columns or {})})

    def entry(self, level: int, column: int) -> int:
        """a_level(column): the vertical multiplicity between levels level, level+1."""
        if level < self.base_level:
            raise DiagramError("no entries below the base level")
        rule = self._column_rules.get(column, self._default_rule)
        return rule(level)

    def _predecessors(self, level: int, v) -> dict:
        return {v: self.entry(level - 1, v), v + 1: 1}

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_vertex(level, w)
        out = {w: self.entry(level, w)}
        if w > 1:
            out[w - 1] = 1
        return out

    def level_contains(self, level: int, v) -> bool:
        return isinstance(v, int) and v >= 1

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        if bound is None:
            raise DiagramError("levels are infinite; pass an index bound")
        return tuple(range(1, bound + 1))

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return v

    def closed_form_height(self, level: int, v):
        if self._column_rules:
            return None  # column-dependent entries: use the recursion
        h = 1
        for j in range(self.base_level, level):
            h *= self.entry(j, v) + 1
        return h


def _parse_entry_rule(a) -> Callable[[int], int]:
    """An odometer entry rule: an integer, a list, "pow2", or CLI text ("3", "2,3,4") for one of these."""
    if a == "pow2":
        return lambda n: 2 ** (n + 1)
    if isinstance(a, str) and "," in a:
        a = a.split(",")
    if not isinstance(a, (list, tuple)):
        a = as_int(a, "an odometer entry")
        if a < 2:
            raise DiagramError("odometer entries must be >= 2, got %d" % a)
        return lambda n: a
    vals = [as_int(x, "an odometer entry") for x in a]
    if any(x < 2 for x in vals):
        raise DiagramError("odometer entries must be >= 2: %r" % (vals,))

    def from_list(n: int) -> int:
        if n >= len(vals):
            raise TruncationIncompleteError(
                "odometer entry sequence exhausted at index %d" % n,
                missing=[("entry", n)],
            )
        return vals[n]

    return from_list


class CustomDiagram(Diagram):
    """A diagram given by explicit finite level lists and predecessor rows."""

    family = "custom"
    integer_keys = True

    def __init__(self, levels: Mapping[int, Sequence], rows: Mapping[int, Mapping], base_level: int = 0):
        self.base_level = int(base_level)
        self._levels = {int(n): tuple(vs) for n, vs in levels.items()}
        self._rows = {
            int(n): {v: dict(preds) for v, preds in level_rows.items()}
            for n, level_rows in rows.items()
        }
        for n, vs in self._levels.items():
            if not vs:
                raise DiagramError("custom level %d is empty" % n)
            if any(isinstance(v, tuple) for v in vs):
                self.integer_keys = False
        for n, level_rows in self._rows.items():  # so a row's sources are vertices
            below = set(self._levels.get(n - 1, ()))
            for v, preds in level_rows.items():
                stray = [w for w in preds if w not in below]
                if stray:
                    raise DiagramError("custom row of %r at level %d names %r, which is not "
                                       "a vertex of level %d" % (v, n, stray[0], n - 1))
        super().__init__({"base_level": base_level})

    def predecessors(self, level: int, v) -> dict:
        # level only: a vertex beyond the declared data is a missing row
        self.check_level(level)
        if level == self.base_level:
            raise DiagramError("base level vertices have no predecessors")
        return self._predecessors(level, v)

    def _predecessors(self, level: int, v) -> dict:
        row = self._rows.get(level, {}).get(v)
        if row is None:
            raise TruncationIncompleteError(
                "no incidence row declared for vertex %r at level %d" % (v, level),
                missing=[(level, v)],
            )
        return dict(row)

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_level(level)
        rows = self._rows.get(level + 1)
        if rows is None:
            raise TruncationIncompleteError(
                "no incidence rows declared between levels %d and %d" % (level, level + 1),
                missing=[(level + 1, None)],
            )
        out = {}
        for v, preds in rows.items():
            if w in preds:
                out[v] = preds[w]
        return out

    def level_contains(self, level: int, v) -> bool:
        return v in self.level_vertices(level)

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        if level not in self._levels:
            raise TruncationIncompleteError(
                "custom diagram declares no level %d" % level, missing=[(level, None)]
            )
        vs = self._levels[level]
        return vs if bound is None else vs[:bound]

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return self._levels[level].index(v) + 1


class Subdiagram(Diagram):
    """A vertex or edge subdiagram, itself usable as a diagram.

    Vertex kind: keeps the declared vertex sets W_n with every ambient edge
    between kept vertices.  ``outside_predecessors`` lists the ambient
    sources of a kept target that fall outside W_{n-1}.

    Edge kind: keeps a declared subset of edges (here: the retained sources
    per target).  Its own levels are the forward cone of the declared seed
    under retained edges; ``deleted_predecessors`` lists ambient sources per
    kept target with retained multiplicities subtracted, over the ambient
    vertex sets.  Explicit seeds and retained rows are checked against the
    ambient diagram when the subdiagram is built, at every declared level.
    """

    def __init__(self, ambient: Diagram, kind: str, spec: Mapping):
        if kind not in ("vertex", "edge"):
            raise DiagramError("subdiagram kind must be 'vertex' or 'edge'")
        self.ambient = ambient
        self.kind = kind
        self.spec = dict(spec)
        self.base_level = ambient.base_level
        self.integer_keys = ambient.integer_keys
        self.family = "%s-sub-%s" % (ambient.family, kind)
        rule = spec.get("rule")
        if kind == "vertex":
            if rule == "staircase":
                if ambient.family != "binfty":
                    raise DiagramError("staircase subdiagrams live inside binfty")
                k = as_int(_spec_field(spec, "k", "a staircase subdiagram"), "staircase offset k")
                if k < 1:
                    raise DiagramError("staircase offset k must be >= 1")
                self.k = k
                self._level_set = lambda n: tuple(range(k, k + (n - self.base_level) + 1))
            elif rule == "constant":
                vtx = vertex_from_json(_spec_field(spec, "vertex", "a constant subdiagram"))
                if not ambient.level_contains(ambient.base_level, vtx):
                    raise DiagramError("constant subdiagram vertex %r not in the diagram" % (vtx,))
                self._level_set = lambda n: (vtx,)
            elif rule == "explicit":
                levels = _levels(_spec_field(spec, "levels", "an explicit subdiagram"))
                if any(len(vs) == 0 for vs in levels.values()):
                    raise DiagramError("vertex subdiagram levels must be nonempty")
                for n, vs in levels.items():
                    for v in vs:
                        ambient.check_vertex(n, v)
                        if n - 1 in levels and ambient.predecessors(n, v).keys().isdisjoint(levels[n - 1]):
                            raise DiagramError("kept vertex %r at level %d has no kept source" % (v, n))

                def lookup(n: int) -> tuple:
                    if n not in levels:
                        raise TruncationIncompleteError(
                            "subdiagram declares no level %d" % n, missing=[(n, None)]
                        )
                    return levels[n]

                self._level_set = lookup
            else:
                raise DiagramError("unknown vertex subdiagram rule: %r" % (rule,))
        else:
            if rule == "pascal":
                if ambient.family != "binfty":
                    raise DiagramError("the pascal edge subdiagram lives inside binfty")
                k = as_int(_spec_field(spec, "k", "a pascal edge subdiagram"), "edge offset k")
                if k < 1:
                    raise DiagramError("pascal edge subdiagram offset k must be >= 1")
                self.k = k
                self._level_set = lambda n: tuple(range(k, k + (n - self.base_level) + 1))
                self._retained = lambda n, v: {
                    w: 1 for w in (v - 1, v) if ambient.level_contains(n - 1, w)
                }
            elif rule == "explicit":
                retained = _rows(_spec_field(spec, "retained", "an explicit edge subdiagram"))
                seeds = _list(_spec_field(spec, "seed", "an explicit edge subdiagram"), "an explicit seed")
                seeds = tuple(map(vertex_from_json, seeds))
                if not seeds:
                    raise DiagramError("an explicit edge subdiagram needs a nonempty seed")
                for v in seeds:
                    ambient.check_vertex(self.base_level, v)
                for n, level_rows in retained.items():  # so every retained edge is an ambient edge
                    for v, srcs in level_rows.items():
                        ambient_row = ambient.predecessors(n, v)
                        for w, m in srcs.items():
                            if not 1 <= m <= ambient_row.get(w, 0):
                                raise DiagramError(
                                    "retained multiplicity %d at %r is outside 1..%d, the ambient "
                                    "edge count" % (m, (n, v, w), ambient_row.get(w, 0)))

                known = {self.base_level: seeds}  # errors are not kept: they recur on every call

                def level_set(n: int) -> tuple:
                    if n in known:
                        return known[n]
                    for lvl in range(max(known) + 1, n + 1):  # upward from the highest known level
                        prev = set(known[lvl - 1])
                        rows = retained.get(lvl)
                        if rows is None:
                            raise TruncationIncompleteError(
                                "no retained rows declared at level %d" % lvl, missing=[(lvl, None)]
                            )
                        out = [v for v, srcs in rows.items() if any(w in prev for w in srcs)]
                        if not out:
                            raise DiagramError("edge subdiagram cone dies at level %d" % lvl)
                        known[lvl] = tuple(out)
                    return known[n]

                self._level_set = level_set
                self._retained = lambda n, v: dict(retained.get(n, {}).get(v, {}))
            else:
                raise DiagramError("unknown edge subdiagram rule: %r" % (rule,))
        super().__init__(spec)

    # -- Diagram interface --------------------------------------------------

    def _predecessors(self, level: int, v) -> dict:
        kept = set(self._level_set(level - 1))
        if self.kind == "vertex":
            amb = self.ambient._predecessors(level, v)
            return {w: m for w, m in amb.items() if w in kept}
        return {w: m for w, m in self._retained(level, v).items() if w in kept}

    def successors(self, level: int, w, bound: int | None = None) -> dict:
        self.check_vertex(level, w)
        out = {}
        for v in self._level_set(level + 1):
            mult = self.predecessors(level + 1, v).get(w, 0)
            if mult:
                out[v] = mult
        return out

    def level_contains(self, level: int, v) -> bool:
        return v in self._level_set(level)

    def level_vertices(self, level: int, bound: int | None = None) -> tuple:
        self.check_level(level)
        vs = self._level_set(level)
        return vs if bound is None else vs[:bound]

    def rank(self, level: int, v) -> int:
        self.check_vertex(level, v)
        return self.ambient.rank(level, v)

    def closed_form_height(self, level: int, v):
        if self.kind == "vertex" and self.spec.get("rule") == "staircase":
            n = level
            if v == self.k:
                return 1
            a = self.ambient.closed_form_height(n, v - self.k + 1)
            b = self.ambient.closed_form_height(n + 1, v - self.k)
            return a - b
        if self.kind == "edge" and self.spec.get("rule") == "pascal":
            return comb(level - self.base_level, v - self.k)
        return None

    # -- complement views ----------------------------------------------------

    def outside_predecessors(self, level: int, v) -> dict:
        """Ambient predecessors of kept vertex ``v`` lying outside the kept level below."""
        if self.kind != "vertex":
            raise DiagramError("outside_predecessors applies to vertex subdiagrams")
        self.check_vertex(level, v)
        kept = set(self._level_set(level - 1))
        amb = self.ambient.predecessors(level, v)
        return {w: m for w, m in amb.items() if w not in kept}

    def deleted_predecessors(self, level: int, v) -> dict:
        """Ambient-minus-retained edge multiset into kept vertex ``v``."""
        if self.kind != "edge":
            raise DiagramError("deleted_predecessors applies to edge subdiagrams")
        self.check_vertex(level, v)
        amb = self.ambient.predecessors(level, v)
        kept = self._retained(level, v)
        out = {}
        for w, m in amb.items():
            d = m - kept.get(w, 0)
            if d > 0:
                out[w] = d
        return out


def build_diagram(spec) -> Diagram:
    """Build a diagram from a spec mapping or its JSON text: family, params,
    an optional truncation and an optional ``sub`` block (see ``build_subdiagram``)."""
    spec = _object(read_json(spec, "a diagram spec") if isinstance(spec, str) else spec, "a diagram spec")
    family = spec.get("family")
    params = _object(spec.get("params", {}), "a spec's params")
    if family == "pascal-n":
        d = PascalDiagram("n")
    elif family == "pascal-z":
        d = PascalDiagram("z")
    elif family == "pascal-k":
        d = PascalDiagram(as_int(params.get("k", 0), "k"))
    elif family == "binfty":
        d = BinftyDiagram()
    elif family == "bounded-finite":
        d = BoundedDiagram(as_int(params.get("k", 0), "k"), finite=True)
    elif family == "bounded-generalized":
        d = BoundedDiagram(as_int(params.get("k", 0), "k"), finite=False)
    elif family == "odometer-io":
        if "a" not in params:
            raise DiagramError("odometer-io needs an entry rule 'a'")
        d = OdometerChainDiagram(params["a"], params.get("columns"))
    elif family == "custom":
        levels = _levels(_spec_field(params, "levels", "a custom spec"))
        rows = _rows(_spec_field(params, "rows", "a custom spec"))
        base = as_int(params.get("base_level", 0), "base_level")
        for n, level_rows in rows.items():  # every vertex above the base has an incoming edge
            empty = [v for v, srcs in level_rows.items() if not srcs]
            if n > base and empty:
                raise DiagramError("custom row of %r at level %d is empty" % (empty[0], n))
        d = CustomDiagram(levels, rows, base_level=base)
    else:
        raise DiagramError("unknown family %r (expected one of %s)" % (family, ", ".join(FAMILIES)))
    trunc = spec.get("truncation")
    if trunc:
        trunc = _object(trunc, "a spec's truncation")
        if trunc.get("bound") is not None:
            trunc["bound"] = as_int(trunc["bound"], "a truncation bound")
        d.params["truncation"] = trunc
    if spec.get("sub"):
        d = build_subdiagram(d, spec["sub"])
    return d


def as_int(value, what: str) -> int:
    """An integer field of outside input: an int, or the text of one (JSON object keys are text).

    DiagramError for anything else, booleans and floats included.
    """
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise DiagramError("%s must be an integer, got %r" % (what, value))


def read_json(text: str, what: str):
    """The value ``text`` holds as JSON; DiagramError naming ``what`` if it is malformed."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError("malformed JSON in %s: %s" % (what, exc)) from None


def _spec_field(spec: Mapping, name: str, what: str):
    """``spec[name]``, or a DiagramError saying that ``what`` lacks the field."""
    if name not in spec:
        raise DiagramError("%s needs a %r field" % (what, name))
    return spec[name]


def _object(value, what: str) -> dict:
    """``value`` as a dict; DiagramError unless it is a JSON object."""
    if not isinstance(value, Mapping):
        raise DiagramError("%s must be a JSON object, got %r" % (what, value))
    return dict(value)


def _list(value, what: str) -> list:
    """``value`` as a list; DiagramError unless it is a JSON array."""
    if not isinstance(value, (list, tuple)):
        raise DiagramError("%s must be a JSON array, got %r" % (what, value))
    return list(value)


def _levels(value) -> dict:
    """A spec's ``{level: [vertex, ...]}`` object as ``{level: (vertex, ...)}``."""
    return {as_int(n, "a level"): tuple(map(vertex_from_json, _list(vs, "a level's vertices")))
            for n, vs in _object(value, "levels").items()}


def _rows(value) -> dict:
    """A spec's ``{level: {target: {source: multiplicity}}}`` object, its vertex keys read as text.

    A multiplicity counts edges, so it is at least 1; an absent edge is omitted.
    """
    return {
        as_int(n, "a level"): {
            vertex_from_text(v): {
                vertex_from_text(w): _multiplicity(m) for w, m in _object(srcs, "a row").items()
            }
            for v, srcs in _object(level_rows, "a level's rows").items()
        }
        for n, level_rows in _object(value, "rows").items()
    }


def _multiplicity(value) -> int:
    """An edge count of outside input: an integer of at least 1."""
    m = as_int(value, "a multiplicity")
    if m < 1:
        raise DiagramError("a multiplicity counts edges and must be at least 1, got %d" % m)
    return m


def vertex_from_json(v):
    """A vertex of parsed JSON: an integer, or a list of [coordinate, multiplicity] pairs."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, (list, tuple)) and all(isinstance(p, (list, tuple)) for p in v):
        return support_key([[as_int(x, "a vertex entry") for x in p] for p in v])
    raise DiagramError("vertices must be integers or [coordinate, multiplicity] pair lists, got %r" % (v,))


def vertex_from_text(v):
    """A vertex written as text, on the command line or as a JSON object key.

    The text is an integer or the JSON of a vertex; a value that is not text
    is taken as already parsed.
    """
    if not isinstance(v, str):
        return vertex_from_json(v)
    try:
        return int(v)
    except ValueError:
        return vertex_from_json(read_json(v, "vertex %r" % v))


def vertex_window(diagram: Diagram, level: int, bound: int | None = None) -> tuple:
    """The level's vertices in rank order, cut by ``bound`` or else by the spec's truncation bound."""
    diagram.check_level(level)
    if bound is None:
        trunc = diagram.params.get("truncation") or {}
        bound = trunc.get("bound")
    return diagram.level_vertices(level, bound)


def build_subdiagram(diagram: Diagram, spec: Mapping) -> Subdiagram:
    """Build a vertex or edge subdiagram from a spec mapping or its JSON text.

    Vertex kinds: {"kind": "vertex", "rule": "staircase", "k": 2}
                  {"kind": "vertex", "rule": "constant", "vertex": 3}
                  {"kind": "vertex", "rule": "explicit", "levels": {...}}
    Edge kinds:   {"kind": "edge", "rule": "pascal", "k": 2}
                  {"kind": "edge", "rule": "explicit", "seed": [...], "retained": {...}}
    """
    spec = _object(read_json(spec, "a subdiagram spec") if isinstance(spec, str) else spec, "a subdiagram spec")
    kind = spec.get("kind")
    body = {k: v for k, v in spec.items() if k != "kind"}
    return Subdiagram(diagram, kind, body)
