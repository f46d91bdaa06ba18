"""Ordered diagrams and the adic successor map on their path spaces.

An edge order assigns to every vertex ``v`` a total order on the finite set
of edges into ``v`` (pairs ``(source, slot)``, where ``slot`` numbers
parallel edges from 1).  The adic successor of a path replaces its first
non-maximal edge by the next edge in that order and rebuilds the segment
below with the minimal path to the new source; the predecessor map mirrors
this with minimal edges and maximal refills.

Paths are finite prefixes plus an optional symbolic tail.  Because levels
never end, a path whose explicit edges are all maximal is not necessarily
maximal: the answer lives in the unspecified remainder.  Symbolic tails make
that remainder exact.  Each tail kind owns the families it is defined on,
its anchor and its edges, so materializing and scanning a tail read its
``edges`` without asking which kind it is.  Likewise each edge order owns
its tail analysis and its candidate rule: on the families it has a rule for,
it either proves every tail edge extremal or bounds the search for the first
non-extremal tail edge, up to which the prefix is materialized; tails with
no such analysis raise ``DeepenPrefixError`` instead of guessing, and an
order refuses a diagram it is not defined on.  Edges are normalized at the
boundary: ``path_from_json`` builds tuples of ``(source, target, slot)``
tuples and ``PathRep`` stores them as given.  Paths are validated once, at
the public entry points, where ``validate_path`` also refuses any other
edge container; the step engine ``_step`` trusts its input, since a step
maps valid paths to valid paths.  ``_step`` rewrites an edge list in place,
only the refill below the first non-extremal edge and that edge.
``OrderedDiagram`` memoizes what a step reads: the order of the edges into
each vertex, whose first and last entries are its extremal edges.
``orbit_walk`` steps one live list, so an orbit runs in constant memory.
``orbit_end`` jumps instead: in the tower of a vertex (its paths from the start
level, in order) a step adds 1 to a path's index, so it decodes the index plus
the steps and takes a single ``_step`` only where the orbit leaves its prefix's tower.

Extremal paths that no finite prefix-plus-tail can carry (multinomial paths
whose support grows forever) are handled by ``PascalPathDescriptor``: the
pair of position and multiplicity data that pins down a maximal or minimal
path exactly.  Descriptors classify into countable and uncountable extremal
classes, answer successor/predecessor candidate queries, and reflect from
the maximal side to the minimal side.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    BinftyDiagram,
    Diagram,
    DiagramError,
    OdometerChainDiagram,
    PascalDiagram,
    Subdiagram,
    TruncationIncompleteError,
    as_int,
    key_add,
    refuse_unknown_keys,
    support_key,
    vertex_from_json,
)


class MaximalPathError(DiagramError):
    """The path is provably maximal: it has no adic successor."""


class MinimalPathError(DiagramError):
    """The path is provably minimal: it has no adic predecessor."""


class DeepenPrefixError(TruncationIncompleteError):
    """Every specified edge is extremal and the tail decides nothing.

    Recoverable: extend the prefix (or attach a symbolic tail) and retry.
    """


# ---------------------------------------------------------------------------
# symbolic tails


class _Tail:
    """A symbolic remainder beyond a path's explicit prefix.

    A tail kind declares the ``families`` (``_family_kind`` values) it is
    defined on and its ``anchor``, the vertex an empty prefix starts from;
    ``edges`` unfolds it upward from a given level and vertex.
    """

    families: tuple = ()

    @property
    def anchor(self):
        return self.vertex

    def edges(self, diagram: Diagram, level: int, v) -> Iterator:
        """The tail's ``(source, target, slot)`` edges above vertex ``v`` at ``level``."""
        raise NotImplementedError

    def moved_to(self, v) -> "_Tail":
        """The same tail once the prefix has grown to end at ``v``."""
        return self


@dataclass(frozen=True)
class Unspecified(_Tail):
    """No information beyond the explicit prefix."""

    kind = "unspecified"
    anchor = None

    def edges(self, diagram, level, v):
        raise DiagramError("cannot materialize an unspecified tail")


@dataclass(frozen=True)
class VerticalAt(_Tail):
    """Beyond the prefix the path repeats the vertex forever.

    ``slot`` picks among parallel edges: "first" / "last" in the level's
    edge order (integer-multiplicity families only ever need these two).
    """

    vertex: object
    slot: str = "first"
    kind = "vertical"
    families = ("binfty", "staircase", "column-binfty", "column-odometer")

    def __post_init__(self):
        if self.slot not in ("first", "last"):
            raise DiagramError("vertical tail slot must be 'first' or 'last'")

    def edges(self, diagram, level, v):
        for lvl in count(level + 1):
            yield (v, v, 1 if self.slot == "first" else diagram.predecessors(lvl, v)[v])


@dataclass(frozen=True)
class DiagonalFrom(_Tail):
    """Beyond the prefix the path slants: v -> v+1 -> v+2 -> ..."""

    vertex: int
    kind = "diagonal"
    families = ("binfty", "staircase")

    def edges(self, diagram, level, v):
        return ((w, w + 1, 1) for w in count(v))

    def moved_to(self, v):
        return DiagonalFrom(v)


@dataclass(frozen=True)
class PascalConcentrating(_Tail):
    """Beyond the prefix every step adds one unit at the same coordinate."""

    coordinate: int
    kind = "concentrating"
    families = ("pascal",)
    anchor = ()  # an empty concentrating path starts at the root key

    def edges(self, diagram, level, v):
        while True:
            w, v = v, key_add(v, self.coordinate)
            yield (w, v, 1)


# ---------------------------------------------------------------------------
# path representation


@dataclass(frozen=True, slots=True)
class PathRep:
    """A finite path prefix plus a symbolic tail.

    ``start`` is the level of the path's first vertex; ``edges`` is a tuple
    of ``(source, target, slot)`` tuples, level by level, slots numbering
    parallel edges from 1.  They are stored as given: ``path_from_json``
    builds them, and ``validate_path`` refuses any other edge container.
    """

    start: int
    edges: tuple = ()
    tail: object = Unspecified()

    @property
    def end_level(self) -> int:
        return self.start + len(self.edges)

    @property
    def end_vertex(self):
        """The deepest known vertex: prefix end, or the tail's anchor."""
        return self.edges[-1][1] if self.edges else self.tail.anchor

    def vertex_at(self, level: int):
        if not self.start <= level <= self.end_level:
            raise DiagramError(
                "path covers levels %d..%d, not %d" % (self.start, self.end_level, level)
            )
        return _vertex_at(self.start, self.edges, self.tail, level)


def _vertex_at(start: int, edges: Sequence, tail, level: int):
    """The vertex at a covered ``level`` of a path; an empty prefix sits at its tail's anchor."""
    if level == start:
        return edges[0][0] if edges else tail.anchor
    return edges[level - start - 1][1]


def validate_path(diagram: Diagram, path: PathRep) -> None:
    """Check edge shape, composition, membership, slot bounds, and tail admissibility."""
    diagram.check_level(path.start)
    edges = path.edges
    if not isinstance(edges, tuple) or not all(isinstance(e, tuple) and len(e) == 3 for e in edges):
        raise DiagramError("path edges must be a tuple of (source, target, slot) tuples: %r" % (edges,))
    prev = None
    for j, (w, v, slot) in enumerate(edges):
        level = path.start + j + 1
        if prev is not None and w != prev:
            raise DiagramError("edges %d and %d of the path do not compose" % (j - 1, j))
        preds = diagram.predecessors(level, v)
        mult = preds.get(w, 0)
        if mult == 0:
            raise DiagramError("no edge %r -> %r between levels %d and %d" % (w, v, level - 1, level))
        if not 1 <= slot <= mult:
            raise DiagramError("slot %d outside 1..%d for edge %r -> %r" % (slot, mult, w, v))
        prev = v
    _validate_tail(diagram, path)


def _validate_tail(diagram: Diagram, path: PathRep) -> None:
    tail = path.tail
    if not isinstance(tail, _Tail):
        raise DiagramError("unknown tail %r" % (tail,))
    if isinstance(tail, Unspecified):
        if not path.edges:
            raise DiagramError("an empty path needs a symbolic tail to anchor it")
        return
    if _family_kind(diagram) not in tail.families:
        raise DiagramError("%s tails are not defined on %s" % (tail.kind, diagram.family))
    if isinstance(tail, PascalConcentrating):
        if not diagram.coord_in_domain(tail.coordinate):
            raise DiagramError("coordinate %d is outside %s" % (tail.coordinate, diagram.family))
        if not path.edges and path.start != diagram.base_level:
            raise DiagramError("an empty concentrating path must start at the base level")
        return
    if not diagram.level_contains(path.end_level, tail.vertex):
        raise DiagramError("%s tail vertex %r is not at level %d" % (tail.kind, tail.vertex, path.end_level))
    if path.edges and path.edges[-1][1] != tail.vertex:
        raise DiagramError("%s tail must anchor at the prefix end" % tail.kind)


def _family_kind(diagram: Diagram) -> str:
    if isinstance(diagram, PascalDiagram):
        return "pascal"
    if isinstance(diagram, BinftyDiagram):
        return "binfty"
    if isinstance(diagram, Subdiagram):
        if diagram.rule == "staircase":
            return "staircase"
        if diagram.rule == "constant":
            if isinstance(diagram.ambient, OdometerChainDiagram):
                return "column-odometer"
            if isinstance(diagram.ambient, BinftyDiagram):
                return "column-binfty"
    return "other"


# ---------------------------------------------------------------------------
# edge orders


class EdgeOrder:
    """A rule giving, per vertex, the edges into it in increasing order.

    An order also owns what it knows about infinite paths on the family kinds
    (``_family_kind`` values) it has a rule for: ``tail_cap`` decides a
    symbolic tail and ``candidates`` names the step candidates of an extremal
    class.  The base class knows nothing beyond the Special class.
    """

    name = "abstract"

    def check_diagram(self, diagram: Diagram) -> None:
        """Refuse a diagram the order is not defined on."""

    def edges_into(self, diagram: Diagram, level: int, v) -> tuple:
        raise NotImplementedError

    def tail_cap(self, diagram: Diagram, kind: str, tail, level: int, anchor, side: str):
        """Decide a specified tail anchored at ``anchor`` on ``level``: "all" (every tail edge is
        extremal on ``side``), a search cap, or "unknown".

        A finite cap is justified by the order's shape: a witness edge of the
        opposite kind occurs within that many levels whenever one occurs at all.
        """
        return "unknown"

    def candidates(self, diagram: Diagram, kind: str, cls, path) -> frozenset:
        """The successor (maximal side) or predecessor (minimal side) candidates of an extremal ``path``."""
        if cls is ExtremalClass.SPECIAL:
            return frozenset({path})
        raise DiagramError("no candidate rule for class %s under order %s" % (cls.value, self.name))


def _slots_ascending(items: Iterable) -> list:
    return [(w, slot) for w, mult in items for slot in range(1, mult + 1)]


def _rank_sorted_slots(diagram: Diagram, level: int, v) -> list:
    """The edges into ``v``, sources in rank order, parallel slots ascending."""
    preds = diagram.predecessors(level, v)
    return _slots_ascending(sorted(preds.items(), key=lambda wm: diagram.rank(level - 1, wm[0])))


class LeftToRightOrder(EdgeOrder):
    """Sources in increasing enumeration order, parallel slots ascending."""

    name = "left-to-right"

    def edges_into(self, diagram, level, v):
        return tuple(_rank_sorted_slots(diagram, level, v))

    def tail_cap(self, diagram, kind, tail, level, anchor, side):
        if isinstance(tail, VerticalAt):
            if kind == "column-odometer":
                return "all" if (side == "min") == (tail.slot == "first") else 1
            return "all" if side == "max" or anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 1
        if isinstance(tail, DiagonalFrom):
            if side == "max" and kind == "staircase" and anchor == diagram.k + level - diagram.base_level:
                return "all"  # the frontier diagonal is the level's last edge
            return 2
        return "unknown"

    def candidates(self, diagram, kind, cls, path):
        base = diagram.base_level
        if kind == "column-odometer":
            flipped = "last" if path.tail.slot == "first" else "first"
            return frozenset({PathRep(base, (), VerticalAt(path.tail.vertex, flipped))})
        if cls is ExtremalClass.MAX_C:
            return frozenset({PathRep(base, (), VerticalAt(diagram.level_vertices(base, 1)[0]))})
        return super().candidates(diagram, kind, cls, path)


class AlternatingOrder(EdgeOrder):
    """Left-to-right into odd levels, right-to-left into even levels."""

    name = "alternating"

    def edges_into(self, diagram, level, v):
        flat = _rank_sorted_slots(diagram, level, v)
        return tuple(reversed(flat) if level % 2 == 0 else flat)

    def tail_cap(self, diagram, kind, tail, level, anchor, side):
        if isinstance(tail, VerticalAt):
            if kind == "column-odometer":
                return 2
            return "all" if anchor == diagram.level_vertices(diagram.base_level, 1)[0] else 2
        return 4 if isinstance(tail, DiagonalFrom) else "unknown"


class NaturalPascalOrder(EdgeOrder):
    """Multinomial edges ordered by removal position, ascending.

    The edges into a key are its single-unit removals; the edge removing at
    position i precedes the edge removing at position j exactly when i < j
    (signed positions use the integer order).
    """

    name = "natural-pascal"

    def check_diagram(self, diagram):
        if not isinstance(diagram, PascalDiagram):
            raise DiagramError("the natural order is defined on multinomial diagrams")

    def edges_into(self, diagram, level, v):
        diagram.check_vertex(level, v)
        if level == diagram.base_level:
            raise DiagramError("base level vertices have no incoming edges")
        return tuple(diagram._predecessors(level, v).items())

    def tail_cap(self, diagram, kind, tail, level, anchor, side):
        # a concentrating tail is maximal (minimal) exactly when no support coordinate lies above (below) it
        i = tail.coordinate
        support = [c for c, _ in anchor]
        if side == "max":
            return "all" if i >= max(support, default=i) else 1
        return "all" if i <= min(support, default=i) else 1

    def candidates(self, diagram, kind, cls, path):
        if cls is ExtremalClass.SPECIAL:
            return super().candidates(diagram, kind, cls, path)
        return frozenset({PathRep(diagram.base_level, (), PascalConcentrating(path.tail.coordinate))})


class CyclicBinftyOrder(EdgeOrder):
    """The stationary cyclic order on the triangular diagram.

    Edges into vertex i are ordered (i-1) < 1 < 2 < ... < (i-2) < i; vertex 2
    gets 1 < 2 and vertex 1 has its single edge.  The diagonal edge is always
    first and the vertical edge always last.
    """

    name = "cyclic-binfty"

    def check_diagram(self, diagram):
        # an odometer chain and each of its columns have parallel vertical edges into every vertex
        odometer = isinstance(diagram, OdometerChainDiagram) or _family_kind(diagram) == "column-odometer"
        if odometer or not diagram.integer_keys:
            raise DiagramError("the cyclic order needs simple integer-indexed edges")

    def edges_into(self, diagram, level, v):
        preds = diagram.predecessors(level, v)
        if any(m != 1 for m in preds.values()) or not all(isinstance(w, int) for w in preds):
            raise DiagramError("the cyclic order needs simple integer-indexed edges")
        if v == 1:
            seq = [1]
        elif v == 2:
            seq = [1, 2]
        else:
            seq = [v - 1] + list(range(1, v - 1)) + [v]
        present = [w for w in seq if w in preds]
        if len(present) != len(preds):
            raise DiagramError("cyclic order expects sources among 1..%d" % v)
        return tuple((w, 1) for w in present)

    def tail_cap(self, diagram, kind, tail, level, anchor, side):
        if kind != "binfty":
            return "unknown"
        if isinstance(tail, VerticalAt):
            return "all" if side == "max" or anchor == 1 else 1
        return "all" if side == "min" else 1  # diagonal edges are first in the cyclic order: minimal forever

    def candidates(self, diagram, kind, cls, path):
        return frozenset()


class CustomOrder(EdgeOrder):
    """An explicit per-vertex permutation rule.

    ``rule(diagram, level, v)`` must return every edge into ``v`` exactly
    once, in increasing order.
    """

    name = "custom"

    def __init__(self, rule: Callable):
        self.rule = rule

    def edges_into(self, diagram, level, v):
        seq = tuple(tuple(e) for e in self.rule(diagram, level, v))
        expected = set(_slots_ascending(diagram.predecessors(level, v).items()))
        if set(seq) != expected or len(seq) != len(expected):
            raise DiagramError("custom order is not a permutation of the edges into %r" % (v,))
        return seq


_ORDER_NAMES = {
    "natural": NaturalPascalOrder,
    "natural-pascal": NaturalPascalOrder,
    "left-to-right": LeftToRightOrder,
    "ltr": LeftToRightOrder,
    "alternating": AlternatingOrder,
    "cyclic": CyclicBinftyOrder,
    "cyclic-binfty": CyclicBinftyOrder,
}


def make_order(spec) -> EdgeOrder:
    """An order from its name, an EdgeOrder instance, or a callable rule."""
    if isinstance(spec, EdgeOrder):
        return spec
    if isinstance(spec, str):
        cls = _ORDER_NAMES.get(spec)
        if cls is None:
            raise DiagramError("unknown order %r (choose from %s)" % (spec, sorted(set(_ORDER_NAMES))))
        return cls()
    if callable(spec):
        return CustomOrder(spec)
    raise DiagramError("cannot interpret %r as an edge order" % (spec,))


class _OrderTable(dict):
    """``(level, vertex)`` -> the vertex's ``(source, slot)`` edges in increasing order, read
    from the order on a miss."""

    def __init__(self, diagram: Diagram, order: EdgeOrder):
        super().__init__()
        self.diagram, self.order = diagram, order

    def __missing__(self, key):
        got = self[key] = self.order.edges_into(self.diagram, *key)
        return got


class OrderedDiagram:
    """A diagram together with an edge order, and the order table the adic step reads.

    ``_cache`` maps ``(level, vertex)`` to the vertex's edges in increasing order, so its first
    and last entries are its minimal and maximal edges; it is filled on first use and stores
    nothing when a lookup raises.
    """

    def __init__(self, diagram: Diagram, order):
        self.diagram, self.order = diagram, make_order(order)
        self.order.check_diagram(diagram)
        self._cache = _OrderTable(diagram, self.order)

    def edges_into(self, level: int, v) -> tuple:
        return self._cache[level, v]


# ---------------------------------------------------------------------------
# extremality of single edges and extremal refills


def _first_nonextremal_index(od: OrderedDiagram, level: int, edges: Iterable, side: str):
    """Index of the first of ``edges`` not extremal on ``side``; ``edges[0]`` enters ``level + 1``."""
    order, end = od._cache, 0 if side == "min" else -1
    for j, (w, v, slot) in enumerate(edges):
        if order[level + j + 1, v][end] != (w, slot):
            return j
    return None


def extremal_path_to(od: OrderedDiagram, level: int, vertex, side: str,
                     stop_level: int | None = None) -> tuple:
    """The minimal ("min") or maximal ("max") path from ``stop_level`` up to
    ``vertex``, as an edge tuple: walking down, the first or last edge of
    the order at every level.
    """
    stop = od.diagram.base_level if stop_level is None else stop_level
    if level < stop:
        raise DiagramError("vertex level %d below the stop level %d" % (level, stop))
    order, end = od._cache, 0 if side == "min" else -1
    edges = []
    u = vertex
    for lvl in range(level, stop, -1):
        w, slot = order[lvl, u][end]
        edges.append((w, u, slot))
        u = w
    return tuple(reversed(edges))


# ---------------------------------------------------------------------------
# symbolic tail analysis


def scan_tail(od: OrderedDiagram, path: PathRep, side: str):
    """Resolve the tail by the order's ``tail_cap``: ("all", None), ("found", depth), or ("unknown", None)."""
    tail = path.tail
    if isinstance(tail, Unspecified):
        return ("unknown", None)
    d = od.diagram
    level, anchor = path.end_level, path.end_vertex
    decision = od.order.tail_cap(d, _family_kind(d), tail, level, anchor, side)
    if decision in ("all", "unknown"):
        return (decision, None)
    j = _first_nonextremal_index(od, level, islice(tail.edges(d, level, anchor), decision), side)
    if j is not None:
        return ("found", j + 1)
    raise DiagramError(
        "internal: tail scan cap %d exhausted for %r under %s" % (decision, tail, od.order.name)
    )


def materialize(od: OrderedDiagram, path: PathRep, depth: int) -> PathRep:
    """Append ``depth`` tail edges to the prefix, keeping the tail; trusts ``path`` as ``_step`` does."""
    if depth < 0:
        raise DiagramError("materialize depth must be >= 0")
    new = tuple(islice(path.tail.edges(od.diagram, path.end_level, path.end_vertex), depth))
    tail = path.tail.moved_to(new[-1][1]) if new else path.tail
    return PathRep(path.start, path.edges + new, tail)


# ---------------------------------------------------------------------------
# the adic step


def _step(od: OrderedDiagram, start: int, edges: list, tail, side: str):
    """One adic step on the trusted edge list ``edges`` of a path from ``start`` with ``tail``, in place:
    it writes the first edge not extremal on ``side`` and the refill below it (after materializing any
    tail it needs onto the list), and raises a refusal before any write.  Returns the new tail."""
    m = _first_nonextremal_index(od, start, edges, side)
    if m is None:
        path = PathRep(start, tuple(edges), tail)
        state, depth = scan_tail(od, path, side)
        extreme = "maximal" if side == "max" else "minimal"
        if state == "unknown":
            raise DeepenPrefixError("every specified edge is %s; extend the prefix beyond level %d"
                                    % (extreme, path.end_level), missing=[("prefix-level", path.end_level + 1)])
        if state == "all":
            raise (MaximalPathError if side == "max" else MinimalPathError)(
                "the path is %s: every edge, tail included, is %s" % (extreme, extreme))
        grown = materialize(od, path, depth)
        edges += grown.edges[len(edges):]
        tail, m = grown.tail, len(edges) - 1
    w, v, slot = edges[m]
    level = start + m + 1
    seq = od.edges_into(level, v)
    u, u_slot = seq[seq.index((w, slot)) + (1 if side == "max" else -1)]
    edges[:m] = extremal_path_to(od, level - 1, u, "min" if side == "max" else "max", start)
    edges[m] = (u, v, u_slot)
    return tail


def _stepped(od: OrderedDiagram, path: PathRep, side: str) -> PathRep:
    """The step of the trusted ``path`` on ``side``, on a copy of its edges."""
    edges = list(path.edges)
    tail = _step(od, path.start, edges, path.tail, side)
    return PathRep(path.start, tuple(edges), tail)


def vershik_step(od: OrderedDiagram, path: PathRep) -> PathRep:
    """The adic successor of ``path`` as a new ``PathRep``, leaving ``path`` as it is.

    Raises ``MaximalPathError`` when the path is provably maximal and ``DeepenPrefixError``
    when the explicit prefix is exhausted without a decision."""
    validate_path(od.diagram, path)
    return _stepped(od, path, "max")


def vershik_inverse(od: OrderedDiagram, path: PathRep) -> PathRep:
    """The adic predecessor of ``path`` (mirror of ``vershik_step``)."""
    validate_path(od.diagram, path)
    return _stepped(od, path, "min")


# ---------------------------------------------------------------------------
# extremal classification


class ExtremalClass(enum.Enum):
    NOT_EXTREMAL = "NotExtremal"
    MAX_U = "MaxU"
    MAX_C = "MaxC"
    MIN_U = "MinU"
    MIN_C = "MinC"
    SPECIAL = "Special"


def _provably_extremal(od: OrderedDiagram, path: PathRep, side: str) -> bool:
    return _first_nonextremal_index(od, path.start, path.edges, side) is None and scan_tail(od, path, side)[0] == "all"


def classify_extremal(od: OrderedDiagram, path: PathRep) -> ExtremalClass:
    """Classify a prefix-plus-tail path.

    Paths proved maximal and minimal at once are Special.  Every extremal
    path a finite prefix plus symbolic tail can carry belongs to a countable
    class, so one-sided results are MaxC / MinC; the uncountable classes
    arrive through ``classify_descriptor``.  Unspecified tails never certify
    extremality: the verdict NotExtremal then means "not extremal as far as
    the prefix shows".
    """
    validate_path(od.diagram, path)
    mx = _provably_extremal(od, path, "max")
    mn = _provably_extremal(od, path, "min")
    if mx and mn:
        return ExtremalClass.SPECIAL
    if mx:
        return ExtremalClass.MAX_C
    if mn:
        return ExtremalClass.MIN_C
    return ExtremalClass.NOT_EXTREMAL


# ---------------------------------------------------------------------------
# descriptors for multinomial extremal paths


@dataclass(frozen=True)
class PascalPathDescriptor:
    """Exact data for an extremal path of a multinomial diagram.

    ``positions`` lists the occupied coordinates in filling order: strictly
    increasing for side "max", strictly decreasing for side "min".
    ``values`` gives the final multiplicity at each position; ``None`` in the
    last slot marks an unbounded final multiplicity.  ``position_tail =
    (start, step)`` continues the positions arithmetically forever (away
    from the first position), each carrying ``value_tail``; a descriptor
    with a position tail describes a path whose support never stops growing.
    """

    side: str
    positions: tuple
    values: tuple
    position_tail: tuple | None = None
    value_tail: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(as_int(i, "a descriptor position") for i in self.positions))
        object.__setattr__(
            self, "values", tuple(None if x is None else as_int(x, "a descriptor value") for x in self.values)
        )
        if self.position_tail is not None:
            tail = tuple(as_int(x, "a position tail entry") for x in self.position_tail)
            if len(tail) != 2:
                raise DiagramError("a position tail is [start, step], got %r" % (self.position_tail,))
            object.__setattr__(self, "position_tail", tail)
        if self.value_tail is not None:
            object.__setattr__(self, "value_tail", as_int(self.value_tail, "a descriptor value tail"))


def classify_descriptor(desc: PascalPathDescriptor, domain: str = "z") -> ExtremalClass:
    """Validate a descriptor and name its extremal class.

    Growing support gives the uncountable classes MaxU / MinU; a finite
    position list whose last multiplicity is unbounded gives MaxC / MinC;
    a single position with unbounded multiplicity is the Special class of
    vertical paths, maximal and minimal simultaneously.
    """
    if domain not in ("z", "n"):
        raise DiagramError("domain must be 'z' or 'n'")
    if desc.side not in ("max", "min"):
        raise DiagramError("descriptor side must be 'max' or 'min'")
    ps, vs = desc.positions, desc.values
    if not ps or len(ps) != len(vs):
        raise DiagramError("descriptor needs matching nonempty positions and values")
    direction = 1 if desc.side == "max" else -1
    for a, b in zip(ps, ps[1:]):
        if (b - a) * direction <= 0:
            raise DiagramError("positions must be strictly %s" %
                               ("increasing" if direction > 0 else "decreasing"))
    if domain == "n" and any(i < 1 for i in ps):
        raise DiagramError("positions must be >= 1 in the unsigned domain")
    for j, x in enumerate(vs):
        if x is None:
            if j != len(vs) - 1:
                raise DiagramError("only the final multiplicity may be unbounded")
        elif x < 1:
            raise DiagramError("multiplicities must be positive")
    if desc.position_tail is not None:
        start, step = desc.position_tail
        if step < 1:
            raise DiagramError("position tail step must be >= 1")
        if (start - ps[-1]) * direction <= 0:
            raise DiagramError("position tail must continue past the listed positions")
        if vs[-1] is None:
            raise DiagramError("an unbounded multiplicity leaves no room for more positions")
        if desc.value_tail is None or desc.value_tail < 1:
            raise DiagramError("a position tail needs a positive value_tail")
        if domain == "n" and desc.side == "min":
            raise DiagramError(
                "positions cannot decrease forever in the unsigned domain: "
                "no uncountable-class minimal paths exist there"
            )
        return ExtremalClass.MAX_U if desc.side == "max" else ExtremalClass.MIN_U
    if vs[-1] is not None:
        raise DiagramError(
            "a finite position list needs an unbounded final multiplicity "
            "to describe an infinite path"
        )
    if len(ps) == 1:
        return ExtremalClass.SPECIAL
    return ExtremalClass.MAX_C if desc.side == "max" else ExtremalClass.MIN_C


def _descriptor_entry(desc: PascalPathDescriptor, idx: int):
    ps = desc.positions
    if idx < len(ps):
        return ps[idx], desc.values[idx]
    if desc.position_tail is None:
        raise DiagramError("descriptor has only %d positions" % len(ps))
    start, step = desc.position_tail
    direction = 1 if desc.side == "max" else -1
    return start + direction * step * (idx - len(ps)), desc.value_tail


def descriptor_vertex(desc: PascalPathDescriptor, n: int):
    """The vertex at level ``n`` of the path the descriptor pins down.

    Positions fill in listed order: the level-``n`` vertex carries the first
    completed multiplicities plus the remainder at the currently filling
    position.
    """
    if n < 0:
        raise DiagramError("levels start at 0")
    remaining = n
    pairs = []
    idx = 0
    while remaining > 0:
        pos, val = _descriptor_entry(desc, idx)
        if val is None or val >= remaining:
            pairs.append((pos, remaining))
            remaining = 0
        else:
            pairs.append((pos, val))
            remaining -= val
        idx += 1
    return support_key(pairs)


def descriptor_prefix(desc: PascalPathDescriptor, diagram: PascalDiagram, depth: int) -> PathRep:
    """The depth-``depth`` prefix of the descriptor's path as a ``PathRep``.

    Once the prefix has entered the final unbounded position, the remainder
    is exactly a concentrating tail; before that point (and for descriptors
    whose support keeps growing) the tail stays unspecified.
    """
    if not isinstance(diagram, PascalDiagram):
        raise DiagramError("descriptors describe multinomial paths")
    cls = classify_descriptor(desc, "z" if diagram.signed else "n")
    vertices = [descriptor_vertex(desc, n) for n in range(depth + 1)]
    edges = []
    for u, v in zip(vertices, vertices[1:]):
        grown = [c for c, _ in v if dict(v)[c] != dict(u).get(c, 0)]
        edges.append((u, v, 1))
        if len(grown) != 1:
            raise DiagramError("internal: consecutive descriptor vertices differ oddly")
    tail: object = Unspecified()
    if cls in (ExtremalClass.MAX_C, ExtremalClass.MIN_C, ExtremalClass.SPECIAL):
        settled = sum(x for x in desc.values if x is not None)
        if depth >= settled:
            tail = PascalConcentrating(desc.positions[-1])
    return PathRep(diagram.base_level, tuple(edges), tail)


def succ_pred_descriptor(desc: PascalPathDescriptor, domain: str = "z") -> frozenset:
    """Successor (side "max") or predecessor (side "min") candidate set.

    Uncountable-class paths admit no candidates at all.  A countable-class
    path with final unbounded position i has exactly one candidate: the
    vertical path at i.  Special paths are their own candidate: they are the
    fixed targets of the continuous extension.
    """
    cls = classify_descriptor(desc, domain)
    if cls in (ExtremalClass.MAX_U, ExtremalClass.MIN_U):
        return frozenset()
    if cls is ExtremalClass.SPECIAL:
        return frozenset({desc})
    pivot = desc.positions[-1]
    return frozenset({PascalPathDescriptor(desc.side, (pivot,), (None,))})


def mirror_descriptor(desc: PascalPathDescriptor, domain: str = "z"):
    """Reflect a maximal descriptor through its first position.

    Positions map by i -> 2*i_1 - i (the first position is fixed), values
    ride along, and the result is a minimal descriptor.  On the unsigned
    domain a reflected final position below 1 is clamped to 1 per the stated
    rule — the returned flag reports the clamp — and any deeper excursion
    below 1 has no stated image, so it raises.

    Returns ``(descriptor, clipped)``.
    """
    cls = classify_descriptor(desc, domain)
    if desc.side != "max":
        raise DiagramError("the reflection maps maximal descriptors to minimal ones")
    i1 = desc.positions[0]
    mirrored = tuple(2 * i1 - i for i in desc.positions)
    tail = desc.position_tail
    if tail is not None:
        start, step = tail
        tail = (2 * i1 - start, step)
    clipped = False
    if domain == "n":
        if cls is ExtremalClass.MAX_U:
            raise DiagramError(
                "reflecting an ever-growing descriptor drops below position 1 "
                "infinitely often; only a single clamped position is defined"
            )
        below = [i for i in mirrored if i < 1]
        if below:
            if len(below) == 1 and len(mirrored) >= 2 and mirrored[-2] > 1:
                mirrored = mirrored[:-1] + (1,)
                clipped = True
            else:
                raise DiagramError(
                    "reflection sends %d positions below 1; only a single "
                    "clamped position is defined" % len(below)
                )
    out = PascalPathDescriptor("min", mirrored, desc.values, tail, desc.value_tail)
    classify_descriptor(out, domain)
    return out, clipped


# ---------------------------------------------------------------------------
# successor / predecessor candidate sets on paths


def succ_pred(od: OrderedDiagram, x) -> frozenset:
    """Candidate successor (maximal side) or predecessor (minimal side) set.

    Accepts a descriptor (multinomial diagrams under the natural order) or a
    classified extremal ``PathRep``, whose candidates come from the order's
    ``candidates`` rule: the natural order sends countable-class paths to the
    vertical path at their final position; the left-to-right order sends
    every maximal path to the leftmost vertical path; the cyclic order leaves
    every extremal path without candidates.  Non-extremal input is rejected.
    """
    if isinstance(x, PascalPathDescriptor):
        if not isinstance(od.order, NaturalPascalOrder):
            raise DiagramError("descriptors pair with multinomial diagrams under the natural order")
        return succ_pred_descriptor(x, "z" if od.diagram.signed else "n")
    cls = classify_extremal(od, x)
    if cls is ExtremalClass.NOT_EXTREMAL:
        raise DiagramError("the path is not provably extremal; it has an ordinary adic image")
    return od.order.candidates(od.diagram, _family_kind(od.diagram), cls, x)


# ---------------------------------------------------------------------------
# exhaustive truncated checks


def enumerate_prefixes(od: OrderedDiagram, depth: int, tops: Sequence | None = None,
                       stop_level: int | None = None) -> dict:
    """All depth-``depth`` paths grouped by top vertex, as ``PathRep`` values."""
    d = od.diagram
    stop = d.base_level if stop_level is None else stop_level
    if depth < 1:
        raise DiagramError("depth must be >= 1")
    top_level = stop + depth
    if tops is None:
        tops = d.level_vertices(top_level)

    def paths_to(level, v):
        if level == stop:
            return [()]
        out = []
        for w, mult in sorted(d.predecessors(level, v).items(), key=repr):
            for below in paths_to(level - 1, w):
                for slot in range(1, mult + 1):
                    out.append(below + ((w, v, slot),))
        return out

    return {v: [PathRep(stop, e) for e in paths_to(top_level, v)] for v in tops}


@dataclass
class TowerCheck:
    top_vertex: object
    paths: int
    unique_extremes: bool
    bijective: bool
    inverse_ok: bool
    cycle_ok: bool

    @property
    def ok(self) -> bool:
        return self.unique_extremes and self.bijective and self.inverse_ok and self.cycle_ok


@dataclass
class BijectionReport:
    depth: int
    stop_level: int
    towers: list
    total_paths: int

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.towers)


def bijection_check(od: OrderedDiagram, depth: int, tops: Sequence | None = None,
                    stop_level: int | None = None) -> BijectionReport:
    """Verify the adic step on every truncated path of the given depth.

    Per top vertex: exactly one all-maximal and one all-minimal prefix, the
    step is a bijection from the non-maximal onto the non-minimal prefixes,
    the inverse undoes it, and iterating from the minimal prefix walks the
    whole tower before running out.
    """
    stop = od.diagram.base_level if stop_level is None else stop_level
    towers = []
    for v, paths in enumerate_prefixes(od, depth, tops, stop).items():
        keyed = {p.edges: p for p in paths}
        maxes = [p for p in paths if _first_nonextremal_index(od, stop, p.edges, "max") is None]
        mins = [p for p in paths if _first_nonextremal_index(od, stop, p.edges, "min") is None]
        unique = len(maxes) == 1 and len(mins) == 1
        images = [(p, _stepped(od, p, "max")) for p in paths if p not in maxes]  # built, so trusted
        inverse_ok = all(y.edges in keyed and _stepped(od, y, "min").edges == p.edges for p, y in images)
        distinct = {y.edges for _, y in images}
        expected = set(keyed) - {mins[0].edges} if unique else None
        bijective = unique and len(distinct) == len(images) and distinct == expected
        cycle_ok = False
        if unique:  # the walk from the minimal prefix must run out exactly at the maximal one
            seen = set()
            try:
                for edges, _ in orbit_walk(od, mins[0], len(paths)):
                    seen.add(tuple(edges))
            except DeepenPrefixError:
                cycle_ok = len(seen) == len(paths) and tuple(edges) == maxes[0].edges
            except DiagramError:
                cycle_ok = False
        towers.append(TowerCheck(v, len(paths), unique, bijective, inverse_ok, cycle_ok))
    return BijectionReport(depth, stop, towers, sum(t.paths for t in towers))


# ---------------------------------------------------------------------------
# orbits


@dataclass
class OrbitResult:
    paths: list
    visit_level: int | None
    visits: dict


def _numbered_step(od: OrderedDiagram, start: int, edges: list, tail, i: int):
    """``_step`` on the maximal side as an orbit's step ``i``: a refusal carries ``step_index`` and says so."""
    try:
        return _step(od, start, edges, tail, "max")
    except DiagramError as e:
        e.step_index = i
        e.args = ("step %d: %s" % (i, e.args[0]),) + e.args[1:]
        raise


def orbit_walk(od: OrderedDiagram, path: PathRep, steps: int) -> Iterator[tuple]:
    """Yield ``(edges, tail)`` for ``path`` and each of its first ``steps`` adic successors.

    ``edges`` is one live list, the same object on every yield, which each step rewrites in
    place: copy it to keep a path, and never change it.  Only ``path`` is validated, and a failed
    step leaves the list at the last path yielded and carries its step's index as ``step_index``."""
    if steps < 0:
        raise DiagramError("steps must be >= 0")
    validate_path(od.diagram, path)
    start, edges, tail = path.start, list(path.edges), path.tail
    yield edges, tail
    for i in range(steps):
        tail = _numbered_step(od, start, edges, tail, i)
        yield edges, tail


def orbit_paths(od: OrderedDiagram, path: PathRep, steps: int) -> Iterator[PathRep]:
    """``orbit_walk`` as a stream of ``PathRep`` snapshots: each yielded path is a
    new immutable value that later steps do not change."""
    return (PathRep(path.start, tuple(edges), tail) for edges, tail in orbit_walk(od, path, steps))


def orbit(od: OrderedDiagram, path: PathRep, steps: int,
          visit_level: int | None = None) -> OrbitResult:
    """The ``orbit_paths`` snapshots of ``orbit_walk``, collected; with a ``visit_level``, also
    how often the orbit sits over each vertex of that level."""
    paths = list(orbit_paths(od, path, steps))
    visits = {} if visit_level is None else dict(Counter(p.vertex_at(visit_level) for p in paths))
    return OrbitResult(paths, visit_level, visits)


class _TowerTable(dict):
    """``(level, vertex)`` -> ``leaf(vertex)`` at ``floor``, above it the sum of the entries of the sources
    in its order; filled on a miss without recursion, and refusing to grow past ``budget`` entries."""

    def __init__(self, order: _OrderTable, floor: int, leaf: Callable, zero=0, budget=float("inf")):
        super().__init__()
        self.order, self.floor, self.leaf, self.zero, self.budget = order, floor, leaf, zero, budget

    def __missing__(self, key):
        todo = [key]
        while todo:
            if len(self) > self.budget:
                raise DiagramError("the towers exceed the orbit's work budget")
            level, v = todo.pop()
            below = () if level == self.floor else [(level - 1, w) for w, _ in self.order[level, v]]
            missing = [k for k in below if k not in self]
            if missing:
                todo += [(level, v), *missing]
            else:
                self[level, v] = sum(map(self.__getitem__, below), self.zero) if below else self.leaf(v)
        return self[key]


def _decode(order: _OrderTable, size: _TowerTable, level: int, v, idx: int, stop: int, below=None) -> tuple:
    """The path with index ``idx`` in the tower of ``v`` at ``level`` down to ``stop``, top edge first, and
    the visits at ``stop`` of the tower's first ``idx`` paths, given whole-tower visit counts ``below``."""
    edges, passed = [], Counter()
    for level in range(level, stop, -1):
        for u, slot in order[level, v]:
            if idx < size[level - 1, u]:
                break
            idx -= size[level - 1, u]
            if below is not None:
                passed.update(below[level - 1, u])
        edges.append((u, v, slot))
        v = u
    passed[v] += idx
    return edges, passed


def orbit_end(od: OrderedDiagram, path: PathRep, steps: int, visit_level: int | None = None) -> tuple:
    """``(edges, tail, visits)``: the last path of ``orbit_walk(od, path, steps)`` and how often the
    orbit sits over each vertex at ``visit_level`` ({} without one), by tower arithmetic.

    A segment takes the lowest tower at or above ``visit_level`` with more room than steps left, else
    the prefix's, and decodes ``idx + j`` there; its visits are the first ``idx + j + 1`` paths' less
    the first ``idx + 1``.  Leaving the prefix's tower, a failed lookup and towers larger than the walk
    could read are left to one ``_step``, which materializes a tail or raises as the walk's step does."""
    if visit_level is not None:
        path.vertex_at(visit_level)  # refuses a level the start path does not cover, before any step
    if steps < 0:
        raise DiagramError("steps must be >= 0")
    validate_path(od.diagram, path)
    start, edges, tail, order = path.start, list(path.edges), path.tail, od._cache
    floor = start if visit_level is None else visit_level
    size = _TowerTable(order, start, lambda v: 1, budget=(steps + 1) * (len(edges) + 1))
    below = _TowerTable(order, floor, lambda v: Counter({v: size[floor, v]}), Counter())
    visits, done = Counter({_vertex_at(start, edges, tail, floor): 1}), 0
    while done < steps:
        h, idx, total = 0, 0, 1
        try:
            while h < len(edges) and (start + h < floor or total - 1 - idx <= steps - done):
                w, v, slot = edges[h]
                seq = order[start + h + 1, v]
                sizes = [size[start + h, u] for u, _ in seq]
                h, idx, total = h + 1, idx + sum(sizes[:seq.index((w, slot))]), sum(sizes)
        except DiagramError:
            idx = total
        j = min(total - 1 - idx, steps - done)
        if j > 0:
            level = start + h
            v = _vertex_at(start, edges, tail, level)
            if visit_level is not None:
                visits.update(_decode(order, size, level, v, idx + j + 1, floor, below)[1])
                visits.subtract(_decode(order, size, level, v, idx + 1, floor, below)[1])
            edges[:h] = _decode(order, size, level, v, idx + j, start)[0][::-1]
            done += j
        if done < steps:
            tail = _numbered_step(od, start, edges, tail, done)
            visits[_vertex_at(start, edges, tail, floor)] += 1
            done += 1
    return edges, tail, {} if visit_level is None else dict(+visits)


# ---------------------------------------------------------------------------
# serialization


def _vertex_to_json(v):
    return [list(pair) for pair in v] if isinstance(v, tuple) else v


def tail_to_json(tail) -> dict:
    return {"kind": tail.kind, **{f.name: _vertex_to_json(getattr(tail, f.name)) for f in fields(tail)}}


_TAIL_KINDS = {t.kind: t for t in (Unspecified, VerticalAt, DiagonalFrom, PascalConcentrating)}


def tail_from_json(obj: Mapping):
    """A tail from its JSON object: integer fields must be integers, a vertex is a vertex."""
    if not isinstance(obj, Mapping):
        raise DiagramError("a path tail must be a JSON object, got %r" % (obj,))
    kind = obj.get("kind", "unspecified")
    cls = _TAIL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DiagramError("unknown tail kind %r" % (kind,))
    refuse_unknown_keys(obj, ["kind"] + [f.name for f in fields(cls)], "a %s tail" % kind)
    args = {}
    for f in fields(cls):
        if f.name not in obj:
            if f.default is MISSING:
                raise DiagramError("a %s tail needs a %r field" % (kind, f.name))
        elif f.type == "int":
            args[f.name] = as_int(obj[f.name], "a %s tail %s" % (kind, f.name))
        else:
            args[f.name] = vertex_from_json(obj[f.name]) if f.name == "vertex" else obj[f.name]
    return cls(**args)


def path_to_json(path: PathRep) -> dict:
    return {
        "start": path.start,
        "edges": [[_vertex_to_json(w), _vertex_to_json(v), slot] for w, v, slot in path.edges],
        "tail": tail_to_json(path.tail),
    }


def path_from_json(obj: Mapping) -> PathRep:
    if not isinstance(obj, Mapping):
        raise DiagramError("a path must be a JSON object {start, edges, tail}, got %r" % (obj,))
    refuse_unknown_keys(obj, ("start", "edges", "tail"), "a path")
    if "start" not in obj:
        raise DiagramError("a path needs a 'start' level")
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or any(not isinstance(e, list) or len(e) != 3 for e in edges):
        raise DiagramError("every path edge must be [source, target, slot]: %r" % (edges,))
    edges = tuple(
        (vertex_from_json(w), vertex_from_json(v), as_int(slot, "an edge slot")) for w, v, slot in edges
    )
    return PathRep(as_int(obj["start"], "a path start"), edges, tail_from_json(obj.get("tail", {})))


def descriptor_to_json(desc: PascalPathDescriptor) -> dict:
    return {
        "side": desc.side,
        "positions": list(desc.positions),
        "values": list(desc.values),
        "position_tail": list(desc.position_tail) if desc.position_tail else None,
        "value_tail": desc.value_tail,
    }


def descriptor_from_json(obj: Mapping) -> PascalPathDescriptor:
    if not isinstance(obj, Mapping) or not {"side", "positions", "values"} <= obj.keys():
        raise DiagramError(
            "a descriptor must be a JSON object with side, positions and values, got %r" % (obj,))
    refuse_unknown_keys(obj, ("side", "positions", "values", "position_tail", "value_tail"), "a descriptor")
    tail = obj.get("position_tail") or None
    if any(not isinstance(x, list) for x in (obj["positions"], obj["values"], tail or [])):
        raise DiagramError("a descriptor's positions, values and position_tail must be JSON arrays, "
                           "got %r" % (obj,))
    return PascalPathDescriptor(obj["side"], obj["positions"], obj["values"], tail, obj.get("value_tail"))
