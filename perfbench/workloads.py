"""Seeded generators for the three benchmark workloads.

A workload is one *pass*: a list of ``bratteli`` CLI invocations.  Each
invocation is an ``Op`` carrying its argv, the number of result items it
produces and the exit code it must end with.  Item counts come from closed
formulas here, never from the program's output, so a change to the program
cannot inflate them.

A workload is declared as a list of *slots*.  A slot is a small fixed set of
alternative invocations of about the same cost; the seed picks one member of
each slot (slopes, directions, staircase widths, orbit start vertices,
window offsets) and the order of the pass.  Anchor invocations named in
``README.md`` are one-member slots.  Because the sets are finite,
``all_ops`` lists every invocation any seed can produce, and each has a
recorded reference output in ``reference.json``: every seed is checked
exactly.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class Op:
    argv: tuple
    items: int
    exit: int = 0

    @property
    def key(self) -> str:
        """Stable identity of the invocation, used to look up its reference."""
        return json.dumps(list(self.argv))

    @property
    def command(self) -> str:
        return self.argv[0]


def _op(items, *argv, exit=0):
    return Op(tuple(str(a) for a in argv), items, exit)


def _pascal_window_size(level, window):
    """Number of level-``level`` multisets over coordinates 1..window."""
    return comb(level + window - 1, window - 1)


def _pascal_support_size(levels, coords):
    """Balance checks made by ``invariance --levels`` for a pascal-mu measure."""
    return sum(_pascal_window_size(n, coords) for n in range(levels))


# permuted masses cost the same, so the seed moves no work between slots
_DIRS_2 = ("1/3,2/3", "2/3,1/3", "2/5,3/5", "3/5,2/5")
_DIRS_3 = ("1/2,1/4,1/4", "1/4,1/2,1/4", "1/4,1/4,1/2")
_SLOPES = ("2/3", "3/4", "3/5", "2/5")
_PROBS = ("1/2", "1/3", "2/3", "1/4")


# ---------------------------------------------------------------------------
# cone-sweep: whole-window queries whose targets share one downward cone


def cone_sweep() -> list:
    return [
        # anchors: the heaviest cone queries of the toolkit
        [_op(_pascal_window_size(7, 8),
             "stochastic", "--family", "pascal-n", "--level", 7, "--window", 8)],
        [_op(_pascal_window_size(8, 8),
             "heights", "--family", "pascal-n", "--level", 8, "--window", 8)],
        [_op(_pascal_window_size(6, 6),
             "continuity", "--family", "pascal-n", "--level", 6, "--window", 6)],
        [_op(60, "continuity", "--family", "binfty", "--level", 8, "--window", 60)],
        [_op(200, "limits", "--family", "binfty", "--rule", "ray", "--slope", "1",
             "--tol", "1/1000000", "--m-max", 200, exit=2)],
        # README examples of the cone commands
        [_op(10, "heights", "--family", "binfty", "--level", 4, "--window", 10)],
        [_op(_pascal_window_size(3, 6),
             "stochastic", "--family", "pascal-n", "--level", 3, "--window", 6)],
        [_op(1, "product", "--family", "pascal-n", "--level", 1, "--m", 2,
             "--vertex", "[[1,2],[2,1]]")],
        [_op(20, "limits", "--family", "binfty", "--closed-form", "binfty", "--a", 1)],
        [_op(50, "continuity", "--family", "binfty", "--level", 2, "--window", 50)],
        # pascal-ray limits by recursion: settle at the base, not one level up
        [_op(6, "limits", "--family", "pascal-n", "--rule", "pascal-ray",
             "--d", d, "--method", "recursion") for d in _DIRS_2],
        [_op(60, "limits", "--family", "pascal-n", "--level", 1, "--rule", "pascal-ray",
             "--d", d, "--method", "recursion", "--tol", "1/1000", "--m-max", 60,
             exit=2) for d in ("1/3,2/3", "2/3,1/3")],
        # mid-size windows: (level, window) pairs of 792 and 924 vertices
        [_op(_pascal_window_size(lv, w),
             "stochastic", "--family", "pascal-n", "--level", lv, "--window", w)
         for lv, w in ((6, 7), (7, 6))],
        [_op(_pascal_window_size(lv, w),
             "heights", "--family", "pascal-n", "--level", lv, "--window", w)
         for lv, w in ((7, 7), (6, 8))],
        # the same 66 vertices as a pascal-k level or a pascal-n window; three
        # of them put the pass's median latency on one kind of invocation
        *[[_op(_pascal_window_size(10, 3), "stochastic", "--family", "pascal-k",
               "--k", 3, "--level", 10),
           _op(_pascal_window_size(10, 3), "stochastic", "--family", "pascal-n",
               "--level", 10, "--window", 3)]] * 3,
        # integer-indexed windows with a seeded offset
        *[[_op(w, "stochastic", "--family", "binfty", "--level", 12, "--window", w)
           for w in (40, 41)]] * 2,
        *[[_op(w, "heights", "--family", "binfty", "--level", 13, "--window", w)
           for w in (42, 43, 44)]] * 2,
        [_op(81, "stochastic", "--family", "bounded-finite", "--k", 1, "--level", 40)],
        [_op(4 * 32 + 1, "heights", "--family", "bounded-finite", "--k", 2,
             "--level", 32, "--window", w) for w in (64, 65, 66)],
        [_op(20, "stochastic", "--family", "odometer-io", "--a", a, "--level", 12,
             "--window", 20) for a in ("2", "3")],
        [_op(w, "continuity", "--family", "binfty", "--level", 9, "--window", w)
         for w in (42, 43)],
    ]


# ---------------------------------------------------------------------------
# point-queries: independent closed-form, series and single-vertex queries


def _vertex_json(mults):
    return json.dumps([[c, m] for c, m in enumerate(mults, start=1)],
                      separators=(",", ":"))


def point_queries() -> list:
    return [
        # anchors
        [_op(200, "extension", "--case", "nu-a-staircase", "--a", "1/2",
             "--n-max", 200)],
        [_op(80, "bk-decay", "--k", 2, "--m-max", 80)],
        # README examples
        [_op(4, "measure", "--measure", "pascal-mu", "--d", "1/3,2/3", "--level", 3)],
        [_op(_pascal_support_size(6, 2),
             "invariance", "--measure", "pascal-mu", "--d", "1/3,2/3", "--levels", 6)],
        [_op(8, "probability", "--measure", "binfty-mu", "--a", "1/2", "--levels", 8)],
        [_op(40, "extension", "--case", "mu-a-pascal-edge", "--a", "1/2", "--k", 2)],
        [_op(10, "monotone", "--a", "1/2", "--k", 2, "--orders", 4, "--terms", 10)],
        [_op(100, "sample", "--d", "3/10,7/10", "--depth", 500, "--count", 100,
             "--seed", 20260817)],
        [_op(4, "bk-decay", "--k", 2, "--m-max", 4, "--format", "csv")],
        # the four extension cases
        [_op(40, "extension", "--case", "mu-a-pascal-edge", "--a", a, "--k", 3)
         for a in _SLOPES],
        [_op(60, "extension", "--case", "nu-a-staircase", "--a", a, "--k", 3)
         for a in ("1/3", "2/3", "3/4", "3/5")],
        [_op(60, "extension", "--case", "nu-p-pascal-edge", "--p", p, "--k", 2)
         for p in _PROBS],
        [_op(30, "extension", "--case", "odometer-column", "--a", a, "--column", c)
         for a, c in (("2", 1), ("2", 2), ("3", 1), ("3", 2))],
        # measures: balance checks, level masses, cylinder masses
        [_op(_pascal_support_size(7, 2),
             "invariance", "--measure", "pascal-mu", "--d", d, "--levels", 7)
         for d in _DIRS_2],
        [_op(_pascal_support_size(5, 3),
             "invariance", "--measure", "pascal-mu", "--d", d, "--levels", 5)
         for d in _DIRS_3],
        [_op(8 * 12, "invariance", "--measure", "binfty-mu", "--a", a, "--levels", 8)
         for a in _SLOPES],
        [_op(8, "probability", "--measure", "pascal-mu", "--d", d, "--levels", 8)
         for d in _DIRS_3],
        [_op(8, "probability", "--measure", "binfty-mu", "--a", a, "--levels", 8)
         for a in _SLOPES],
        [_op(_pascal_window_size(6, 3),
             "measure", "--measure", "pascal-mu", "--d", d, "--level", 6)
         for d in _DIRS_3],
        [_op(20, "measure", "--measure", "binfty-mu", "--a", a, "--level", 5,
             "--window", 20) for a in _SLOPES],
        [_op(12, "monotone", "--a", a, "--k", 2, "--orders", 5, "--terms", 12)
         for a in _SLOPES],
        [_op(100, "sample", "--d", d, "--depth", 500, "--count", 100, "--seed", s)
         for d, s in zip(_DIRS_2, (11, 23, 37, 41))],
        [_op(m, "bk-decay", "--k", 2, "--m-max", m) for m in (30, 31, 32)],
        # cheap closed forms: limit vectors, transition counts, cylinder masses
        [_op(_pascal_window_size(3, 3), "limits", "--closed-form", "pascal",
             "--d", d, "--level", 3) for d in _DIRS_3],
        [_op(20, "limits", "--closed-form", "binfty", "--a", a, "--level", 2,
             "--window", 20) for a in _SLOPES],
        [_op(1, "product", "--family", "binfty", "--level", 3, "--m", 4, "--vertex", v,
             "--method", "closed") for v in (6, 7)],
        [_op(1, "product", "--family", "bounded-finite", "--k", 2, "--level", 3,
             "--m", 5, "--vertex", v, "--method", "closed") for v in (-2, 2)],
        [_op(1, "measure", "--measure", "binfty-mu", "--a", a, "--level", 6,
             "--vertex", 3) for a in _SLOPES],
        [_op(1, "measure", "--measure", "pascal-mu", "--d", d, "--level", 6,
             "--vertex", "[[1,3],[2,3]]") for d in _DIRS_2],
        [_op(6, "measure", "--measure", "staircase-nu", "--a", a, "--k", 2,
             "--level", 6) for a in _SLOPES],
        [_op(6, "measure", "--measure", "edge-binomial", "--p", p, "--k", 2,
             "--level", 6) for p in _PROBS],
        [_op(1, "measure", "--measure", "odometer-column", "--a", a, "--level", 6)
         for a in ("2", "3")],
        [_op(6, "probability", "--measure", "staircase-nu", "--a", a, "--k", 2,
             "--levels", 6) for a in _SLOPES],
        [_op(6, "probability", "--measure", "edge-binomial", "--p", p, "--k", 2,
             "--levels", 6) for p in _PROBS],
        [_op(6, "probability", "--measure", "odometer-column", "--a", a, "--levels", 6)
         for a in ("2", "3")],
        # deep single-vertex queries: one small cone each, or a closed form
        *[
            slot
            for cmd in ("heights", "stochastic")
            for slot in (
                [_op(1, cmd, "--family", "pascal-n", "--level", sum(mults),
                     "--vertex", _vertex_json(mults))
                 for mults in ((7, 8, 9), (9, 7, 8), (8, 9, 7))],
                [_op(1, cmd, "--family", "bounded-finite", "--k", 2, "--level", 40,
                     "--vertex", v) for v in (-5, 5, -6, 6)],
                [_op(1, cmd, "--family", "odometer-io", "--a", a, "--level", 60,
                     "--vertex", v) for a, v in (("2", 3), ("3", 3), ("2", 4))],
                [_op(1, cmd, "--family", "binfty", "--level", 40, "--vertex", v)
                 for v in (12, 13)],
            )
        ],
        [_op(1, "product", "--family", "pascal-n", "--level", 4, "--m", sum(mults) - 4,
             "--vertex", _vertex_json(mults), "--method", "recursion")
         for mults in ((5, 6, 7), (7, 5, 6), (6, 7, 5))],
        [_op(1, "product", "--family", "bounded-finite", "--k", 2, "--level", 10,
             "--m", 20, "--vertex", v, "--method", "recursion") for v in (-5, 5)],
        [_op(1, "product", "--family", "odometer-io", "--a", "2", "--level", 10,
             "--m", 30, "--vertex", v, "--method", "recursion") for v in (2, 3, 4)],
        [_op(1, "product", "--family", "binfty", "--level", 5, "--m", 25,
             "--vertex", v, "--method", "recursion") for v in (11, 12, 13)],
    ]


# ---------------------------------------------------------------------------
# adic-orbit: long orbits under every order


def _path(start, edges):
    return json.dumps({"start": start, "edges": [list(e) for e in edges]},
                      separators=(",", ":"))


def _odometer_column_path(bits, depth, top_slot):
    """A depth-``depth`` path up odometer column 1 (a = 2), slots from ``bits``.

    The top edge takes ``top_slot``, the first edge of its level's order, so
    the path sits in the lower half of its tower and the orbit cannot run out.
    """
    slots = [1 + (bits >> j & 1) for j in range(depth - 1)] + [top_slot]
    return _path(0, [(1, 1, s) for s in slots])


def _binfty_min_path(level, v, k=1):
    """Minimal left-to-right path up to ``v``: vertical at ``k``, one last step."""
    return _path(1, [(k, k, 1)] * (level - 2) + [(k, v, 1)])


def _binfty_cyclic_min_path(level, v):
    """Minimal cyclic-order path up to ``v``: the diagonal down, then vertical."""
    vertices = [v]
    for _ in range(level - 1):
        u = vertices[-1]
        vertices.append(u - 1 if u >= 3 else 1)
    vertices.reverse()
    return _path(1, [(w, u, 1) for w, u in zip(vertices, vertices[1:])])


def _pascal_natural_min_path(mults):
    """Minimal natural-order path up to the key ``mults`` ({coordinate: count}):
    the largest coordinate fills first."""
    cur: dict = {}
    edges = []
    for c in sorted(mults, reverse=True):
        for _ in range(mults[c]):
            below = [[x, m] for x, m in sorted(cur.items())]
            cur[c] = cur.get(c, 0) + 1
            edges.append((below, [[x, m] for x, m in sorted(cur.items())], 1))
    return _path(0, edges)


_BITS = (0x0F0F0F0F, 0x2AAAAAAA, 0x13579BDF, 0x3C3C3C3C)
_COLUMN = ("--family", "odometer-io", "--a", 2, "--sub", "constant:1")


def adic_orbit() -> list:
    return [
        *[
            [_op(3000, "orbit", *_COLUMN, "--order", "left-to-right", "--steps", 3000,
                 "--path", _odometer_column_path(b, 30, 1)) for b in _BITS],
            # alternating: the order into even levels is reversed, so the top
            # edge into level 60 starts at slot 2
            [_op(1500, "orbit", *_COLUMN, "--order", "alternating", "--steps", 1500,
                 "--path", _odometer_column_path(b, 60, 2)) for b in _BITS],
            # the tower of v at level 16 holds C(v + 14, 15) >= 15504 paths
            [_op(8000, "orbit", "--family", "binfty", "--order", "left-to-right",
                 "--steps", 8000, "--path", _binfty_min_path(16, v),
                 "--visit-level", 8) for v in (6, 7, 8)],
            [_op(6000, "orbit", "--family", "binfty", "--order", "cyclic",
                 "--steps", 6000, "--path", _binfty_cyclic_min_path(16, v))
             for v in (6, 7, 8)],
            [_op(4000, "orbit", "--family", "binfty", "--sub", "staircase:2",
                 "--order", "left-to-right", "--steps", 4000,
                 "--path", _binfty_min_path(14, v, k=2), "--visit-level", 7)
             for v in (9, 10, 11)],
            [_op(2000, "orbit", "--family", "pascal-n", "--order", "natural",
                 "--steps", 2000,
                 "--path", _pascal_natural_min_path(dict(zip(coords, (4, 4, 5)))))
             for coords in ((2, 3, 4), (1, 3, 5), (3, 4, 5))],
        ] * 2,
        # README examples
        [_op(1, "vershik", "--family", "binfty", "--order", "left-to-right", "--path",
             '{"start": 1, "edges": [[1,2,1]], "tail": {"kind": "vertical", "vertex": 2}}')],
        [_op(1, "classify", "--domain", "z", "--descriptor",
             '{"side": "max", "positions": [0, 2], "values": [3, null]}')],
        [_op(2, "orbit", "--family", "binfty", "--sub", "staircase:2",
             "--order", "left-to-right", "--steps", 2, "--visit-level", 3,
             "--path", '{"start": 1, "edges": [[2,2,1],[2,2,1],[2,3,1]]}')],
    ]


SLOTS = {
    "cone-sweep": cone_sweep,
    "point-queries": point_queries,
    "adic-orbit": adic_orbit,
}
WORKLOADS = tuple(SLOTS)


def generate(workload: str, seed: int) -> list:
    """The pass of ``workload`` for ``seed``: one member per slot, seeded order."""
    rng = random.Random("%s/%d" % (workload, seed))
    ops = [rng.choice(slot) for slot in SLOTS[workload]()]
    rng.shuffle(ops)
    return ops


def all_ops(workload: str) -> list:
    """Every invocation any seed can put in a pass of ``workload``, once each."""
    seen = {}
    for slot in SLOTS[workload]():
        for op in slot:
            seen.setdefault(op.key, op)
    return list(seen.values())
