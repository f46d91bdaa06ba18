"""Brute-force reference implementations used only by the tests.

Everything here favours transparency over speed: heights and transition
counts come from explicit path enumeration, multinomial rows from rebuilding
each key pair by pair, Pascal levels from sorting every composition, polynomial coefficients from
sympy expansion or the from-scratch convolution loop, adic successors from sorting complete path lists, and the
endpoint law of a product measure from summing every coordinate sequence.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod

import sympy


def enumerate_paths_down(diagram, level, v, stop_level=None):
    """All paths from vertex ``v`` at ``level`` down to ``stop_level``.

    A path is a tuple of (vertex, edge_copy) pairs from the stop level up to
    ``v``; parallel edges are distinguished by their copy index.
    """
    stop = diagram.base_level if stop_level is None else stop_level
    if level == stop:
        return [((v, 0),)]
    out = []
    for w, mult in sorted(diagram.predecessors(level, v).items(), key=repr):
        for below in enumerate_paths_down(diagram, level - 1, w, stop):
            for copy in range(mult):
                out.append(below + ((v, copy),))
    return out


def path_count(diagram, level, v, stop_level=None):
    return len(enumerate_paths_down(diagram, level, v, stop_level))


def path_count_rows(diagram, level, targets):
    """{v: ({w: f'_(v w) H_w}, H_v)} for each target v at ``level``, every H_w a count of enumerated paths."""
    counts, rows = {}, {}
    for v in targets:
        weights = {}
        for w, mult in diagram.predecessors(level, v).items():
            if w not in counts:
                counts[w] = path_count(diagram, level - 1, w)
            weights[w] = mult * counts[w]
        rows[v] = weights, sum(weights.values())
    return rows


def q_from_y(diagram, n, y):
    """Tower masses q_w proportional to y_w H_w, normalized to total 1."""
    weighted = {w: Fraction(y[w]) * path_count(diagram, n, w) for w in y}
    total = sum(weighted.values())
    return {w: val / total for w, val in weighted.items() if val}


def endpoint_distribution(d, depth):
    """The law of the level-``depth`` vertex under the product measure with masses ``d``."""
    law = {}
    for seq in product(sorted(d), repeat=depth):
        key = tuple(sorted(Counter(seq).items()))
        law[key] = law.get(key, 0) + prod(d[c] for c in seq)
    return law


def transition_count(diagram, n, m, v, w):
    """Number of paths from ``w`` at level ``n`` up to ``v`` at level ``n + m``."""
    return sum(1 for p in enumerate_paths_down(diagram, n + m, v, n) if p[0][0] == w)


def key_sub(key, coord):
    """The support key with one unit removed at ``coord`` (which must be present)."""
    out = []
    found = False
    for c, m in key:
        if c == coord:
            found = True
            if m > 1:
                out.append((c, m - 1))
        else:
            out.append((c, m))
    if not found:
        raise ValueError("coordinate %r absent from key %r" % (coord, key))
    return tuple(out)


def pascal_row(key):
    """The multinomial predecessor row of ``key``: one unit removed at each coordinate, ascending."""
    return {key_sub(key, c): 1 for c, _ in key}


def sorted_compositions(level, coords, signed):
    """Every level-``level`` support key over ``coords``, in the Pascal enumeration order.

    Each multiset of ``level`` coordinates is one key; the keys are sorted by
    largest coordinate rank, then support size, then their (rank,
    multiplicity) pairs lexicographically, where a signed coordinate c ranks
    2c for c > 0, 1 - 2c for c <= 0 (0, 1, -1, 2, -2, ... rank 1, 2, 3, ...).
    """
    def rank(c):
        return (2 * c if c > 0 else 1 - 2 * c) if signed else c

    def order(key):
        ranked = sorted((rank(c), m) for c, m in key)
        return (ranked[-1][0] if ranked else 0, len(ranked), ranked)

    keys = [tuple(sorted(Counter(picks).items()))
            for picks in combinations_with_replacement(sorted(coords), level)]
    return sorted(keys, key=order)


def multinomial_height(key):
    """n! / prod(multiplicities!) for a support key at level n."""
    n = sum(m for _, m in key)
    denom = 1
    for _, m in key:
        denom *= factorial(m)
    return factorial(n) // denom


def step_poly_coefficients(k, power):
    """Coefficients of (x^-k + ... + x^k)^power via sympy, as {exponent: int}."""
    x = sympy.symbols("x")
    poly = sympy.expand((sum(x**i for i in range(-k, k + 1))) ** power)
    poly = sympy.expand(poly * x ** (k * power))
    out = {}
    for e in range(0, 2 * k * power + 1):
        c = poly.coeff(x, e)
        if c:
            out[e - k * power] = int(c)
    return out


def step_poly_from_scratch(k, power):
    """(x^-k + ... + x^k)^power by ``power`` convolutions from {0: 1}.

    The from-scratch loop the library once ran for every power; its dicts
    set the key order that closed-form product rows print in.
    """
    *_, coeffs = step_poly_powers(k, power)
    return coeffs


def step_poly_powers(k, top):
    """The from-scratch loop's dicts for every power 0..top, in one run of it."""
    coeffs = {0: 1}
    yield coeffs
    for _ in range(top):
        new = {}
        for e, c in coeffs.items():
            for d in range(-k, k + 1):
                new[e + d] = new.get(e + d, 0) + c
        coeffs = new
        yield coeffs


def adic_sort_key(path, order):
    """Sort key for the adic order: compare edge positions from the top level down.

    ``path`` is a tuple of (vertex, edge_copy) pairs as produced by
    ``enumerate_paths_down``; ``order`` maps (level, target_vertex) to an
    ordered list of (source_vertex, copy) pairs.
    """
    positions = []
    base = len(path)
    for i in range(len(path) - 1, 0, -1):
        src, _ = path[i - 1]
        tgt, copy = path[i]
        level_of_tgt = i  # offset from the stop level
        positions.append(order(level_of_tgt, tgt).index((src, copy)))
    return tuple(positions)


def exhaustive_successor_map(diagram, depth, order, stop_level=None):
    """The adic successor on all depth-``depth`` paths, computed by sorting.

    Returns (mapping, maximal, minimal): ``mapping`` sends each non-maximal
    path to its successor; paths are grouped by their top vertex, since the
    transformation fixes everything above the first non-maximal edge.
    ``order`` takes (levels_above_stop, target_vertex) and returns the edge
    list in increasing order.
    """
    stop = diagram.base_level if stop_level is None else stop_level
    top_level = stop + depth
    mapping = {}
    maximal, minimal = [], []

    # walk levels upward collecting every reachable top vertex
    frontier = list(diagram.level_vertices(stop, None))
    lvl = stop
    while lvl < top_level:
        nxt = set()
        for w in frontier:
            for v in diagram.successors(lvl, w):
                nxt.add(v)
        frontier = sorted(nxt, key=repr)
        lvl += 1
    tops = frontier

    for v in tops:
        paths = enumerate_paths_down(diagram, top_level, v, stop)
        paths.sort(key=lambda p: adic_sort_key(p, order))
        for a, b in zip(paths, paths[1:]):
            mapping[a] = b
        maximal.append(paths[-1])
        minimal.append(paths[0])
    return mapping, maximal, minimal


def binomial_tail(a: Fraction, n: int, j_max: int) -> Fraction:
    """Exact tail mass sum_{j > j_max} C(n+j-2, n-1) a^(j-1) / (a+1)^(n+j-1).

    Uses the negative-binomial / binomial tail duality:
    the tail equals sum_{i=0}^{n-1} C(n+J-1, i) x^(n+J-1-i) (1-x)^i
    with x = a/(a+1) and J = j_max.
    """
    from math import comb

    x = Fraction(a, a + 1)
    total = Fraction(0)
    big = n + j_max - 1
    for i in range(n):
        total += comb(big, i) * x ** (big - i) * (1 - x) ** i
    return total
