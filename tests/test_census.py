"""The paper's classification on every connected simple graph with 2-7 vertices.

The graphs are generated up to isomorphism, one vertex at a time: every
connected graph has a vertex whose removal leaves it connected (a leaf of
a spanning tree), so the connected graphs on ``n`` vertices are those on
``n - 1`` vertices with one new vertex joined to a nonempty set, kept
once per canonical form.  Each graph is then classified as the paper
does: inconsistent, consistent with no gap ``k <= 3`` at window (3, 3),
or the least such ``k``.  ``census.py`` beside this file runs the same
census at 8 vertices.
"""

import itertools
from functools import cache

import pytest

from insertproc import (WeightedGraph, check_consistency, check_k_dependence,
                        complete_graph, cycle_graph, multipartite_graph)

# A001349: connected graphs on 1, 2, ... vertices, up to isomorphism
CONNECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)


def canonical(adj):
    """The least code of a graph over its relabelings, as a tuple.

    ``adj[v]`` is the neighbor bit mask of vertex ``v``.  Placing vertex
    ``v`` after the vertices ``order`` gives the entry ``(color, mask)``:
    ``v``'s color under color refinement (a relabeling keeps it) and the
    positions of ``order`` that ``v`` is adjacent to.  The code is the
    least sequence of entries over all placements; only the vertices
    whose entry is least at a position are tried there.  The masks give
    the graph back (:func:`adjacency`).
    """
    n = len(adj)
    neighbors = [[u for u in range(n) if m >> u & 1] for m in adj]
    color = [len(nb) for nb in neighbors]
    while True:
        keys = [(color[v], tuple(sorted(color[u] for u in neighbors[v])))
                for v in range(n)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        refined = [rank[k] for k in keys]
        if len(set(refined)) == len(set(color)):
            break
        color = refined
    best = None

    def search(order, code, left):
        nonlocal best
        if not left:
            best = code
            return
        entries = {}
        for v in left:
            mask = 0
            for j, u in enumerate(order):
                if adj[v] >> u & 1:
                    mask |= 1 << j
            entries[v] = (color[v], mask)
        least = min(entries.values())
        code += (least,)
        if best is not None and code > best[:len(code)]:
            return
        for v in left:
            if entries[v] == least:
                search(order + [v], code, left - {v})

    search([], (), frozenset(range(n)))
    return best


def adjacency(code):
    """The neighbor bit masks of the graph a code spells."""
    adj = [0] * len(code)
    for i, (_, mask) in enumerate(code):
        for j in range(i):
            if mask >> j & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def connected_graphs(max_n):
    """The codes of the connected graphs on ``n`` vertices, for ``n = 1 .. max_n``."""
    levels = [[canonical([0])]]
    for n in range(2, max_n + 1):
        seen = set()
        for code in levels[-1]:
            adj = adjacency(code)
            for mask in range(1, 1 << (n - 1)):
                seen.add(canonical(
                    [m | (mask >> v & 1) << (n - 1) for v, m in enumerate(adj)]
                    + [mask]))
        levels.append(sorted(seen))
    return levels


def graph_of(code):
    """The unit-weight graph of a code."""
    adj = adjacency(code)
    n = len(adj)
    return WeightedGraph([[adj[a] >> b & 1 for b in range(n)]
                          for a in range(n)])


def code_of(g):
    """The code of a simple graph."""
    n = g.vertex_count
    return canonical([sum(1 << b for b in g.out_neighbors(a))
                      for a in range(n)])


def outcome(g):
    """``"inconsistent"``, ``None`` (consistent, no ``k <= 3`` at window (3, 3)) or the least ``k``."""
    report = check_consistency(g, 6)
    if not report.verified:
        return "inconsistent"
    for k in range(4):
        if check_k_dependence(g, k, 3, 3, consistency=report).verified:
            return k
    return None


@cache
def _graphs():
    return connected_graphs(7)


@cache
def _outcomes():
    return {code: outcome(graph_of(code))
            for level in _graphs()[1:] for code in level}


def test_connected_graph_counts_match_a001349():
    assert tuple(map(len, _graphs())) == CONNECTED_COUNTS[:7]


def test_connected_graphs_match_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [set() for _ in range(7)]
    for h in nx.graph_atlas_g():
        if len(h) and nx.is_connected(h):
            nodes = list(h)
            atlas[len(h) - 1].add(canonical(
                [sum(1 << nodes.index(u) for u in h[v]) for v in nodes]))
    assert [set(level) for level in _graphs()] == atlas


def test_census_finds_exactly_the_paper_classification():
    outcomes = _outcomes()
    passing = {code: k for code, k in outcomes.items()
               if k not in ("inconsistent", None)}
    assert passing == {code_of(complete_graph(3)): 2,
                       code_of(complete_graph(4)): 1,
                       code_of(multipartite_graph(3, 2)): 2}
    # consistent with no k <= 3: K2, the cycles C4 = K22 to C7, K33 and
    # K5 to K7; whether the cycles' consistency follows from the paper is
    # not settled here
    stuck = {code for code, k in outcomes.items() if k is None}
    assert stuck == {code_of(g) for g in (
        complete_graph(2), *map(cycle_graph, range(4, 8)),
        multipartite_graph(2, 3), *map(complete_graph, range(5, 8)))}
    assert sum(k == "inconsistent" for k in outcomes.values()) == 983


@pytest.mark.parametrize("q, values, directed", [(3, (1, 2, 3), True),
                                                 (4, (1, 2, 3), False),
                                                 (4, (1, 2), True)],
                         ids=["k3-directed", "k4-symmetric", "k4-directed"])
def test_weighted_complete_graphs_are_consistent_only_with_unit_weights(
        q, values, directed):
    pairs = [(a, b) for a in range(q) for b in range(q)
             if a != b and (directed or a < b)]
    consistent = []
    for weights in itertools.product(values, repeat=len(pairs)):
        rows = [[0] * q for _ in range(q)]
        for (a, b), w in zip(pairs, weights):
            rows[a][b] = w
            if not directed:
                rows[b][a] = w
        if check_consistency(WeightedGraph(rows), 5).verified:
            consistent.append(weights)
    assert consistent == [(1,) * len(pairs)]
