"""Weighted directed graphs with exact rational edge weights.

Vertices are the integers ``0 .. vertex_count-1``.  A graph is a total
weight function on ordered vertex pairs; the edge set is the set of pairs
with positive weight.  Weights are :class:`fractions.Fraction` values
end-to-end, so every predicate in this module is an exact decision rather
than a floating-point comparison.  Graphs are directed by default;
symmetry and looplessness are checked properties, not structural
assumptions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import attrgetter, index
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

WeightLike = Union[int, str, Fraction]

# One sweep enumerates at most this many words, and a graph's weight table
# holds at most this many entries: every sweep would refuse a larger graph
# at window 2.
_ENUMERATION_BOUND = 10 ** 7

__all__ = [
    "WeightedGraph",
    "UniformWeightReport",
    "MultipartiteClassification",
    "complete_graph",
    "multipartite_graph",
    "path_graph",
    "cycle_graph",
    "kite_graph",
    "uniform_weight",
    "has_directed_triangle",
    "is_strongly_connected",
    "find_kite",
    "regularity",
    "triangles_per_edge",
    "classify_multipartite",
    "block_projection",
    "graph_to_json_dict",
    "graph_from_json_dict",
]


def _integer(v) -> int:
    """``v`` as a plain ``int``, through ``operator.index``; else ``TypeError``.

    Numpy integers are taken as the ints they hold.  A bool would index as
    0 or 1, so it raises, and so does a numpy bool: numpy is imported only
    by the array sweeps, so such a value can only come from a caller that
    imported numpy itself.
    """
    if type(v) is int:
        return v
    numpy = sys.modules.get("numpy")
    if isinstance(v, bool) or numpy is not None and isinstance(v, numpy.bool_):
        raise TypeError
    return index(v)


def _size(value, name: str, least: int = 0) -> int:
    """``value`` as a plain ``int`` of at least ``least``; else ``ValueError``.

    The one check of every length, gap, window, count and size the API
    takes: bools, numpy bools, floats and other non-integers are refused,
    numpy integers are taken as the ints they hold, so an accepted size
    gives the output of the plain int.
    """
    try:
        n = _integer(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is a {type(value).__name__}: "
                         "lengths, counts and sizes must be integers") from None
    if n < least:
        raise ValueError(f"{name} must be nonnegative" if least == 0
                         else f"{name} must be at least {least}")
    return n


def _as_weight(value: WeightLike) -> Union[int, Fraction]:
    # a plain non-negative int is its own exact weight; a bool is an int
    # subclass and goes through Fraction like any other value
    if type(value) is int and value >= 0:
        return value
    try:
        w = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid weight {value!r}") from exc
    if w < 0:
        raise ValueError(f"negative weight {value!r}")
    return w


def _twin_classes(num: tuple[tuple[int, ...], ...]) -> Optional[tuple[int, ...]]:
    """Map each vertex to the least vertex with its row and column, or ``None``.

    Twins ``a ~ a'`` and ``b ~ b'`` give ``num[a][b] == num[a'][b']``, the
    diagonal included, so replacing every symbol of a word by its class
    representative keeps every pair weight.  A directed table needs the
    columns too: equal rows alone do not give equal weights into a vertex.
    """
    n = len(num)
    # distinct rows rule out twins at a fraction of the cost of the map
    if len(set(num)) == n:
        return None
    first: dict = {}
    twin = tuple([first.setdefault(key, v)
                  for v, key in enumerate(zip(num, zip(*num)))])
    return None if len(first) == n else twin


class WeightedGraph:
    """Immutable weighted directed graph on ``0 .. vertex_count-1``.

    The graph keeps one weight table, in integer form: numerators ``_num``
    over one common denominator ``_den``, the lcm of the reduced
    denominators, so equal tables mean equal weights.  :meth:`weight`
    reads an exact :class:`~fractions.Fraction` back from it, and the
    counting routines in :mod:`insertproc.buildings` run on it directly.
    Positive-adjacency lists are precomputed.  One internal dictionary is
    the per-graph memo cache of reduced counts, and ``_orbits`` keeps the
    graph's symmetry steps once they are first searched for (see
    :mod:`insertproc.buildings`); neither affects equality or hashing.
    The memo is keyed on twin classes: two vertices are *twins* when they
    have the same row and the same column of the table, and ``_twin``
    maps each vertex to the least vertex of its class (``None`` when no
    two vertices are twins).
    """

    __slots__ = ("vertex_count", "_den", "_num", "_out", "_in",
                 "_twin", "_hash", "_tcache", "_orbits")

    def __init__(self, rows: Sequence[Sequence[WeightLike]]):
        n = len(rows)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        table = []
        for row in rows:
            if len(row) != n:
                raise ValueError("weight table must be square")
            table.append(tuple(map(_as_weight, row)))
        self.vertex_count = n
        # an int weight has denominator 1
        den = lcm(*{w.denominator for row in table for w in row})
        self._den = den
        self._num = num = tuple(
            tuple(map(attrgetter("numerator"), row)) if den == 1
            else tuple(w.numerator * (den // w.denominator) for w in row)
            for row in table)
        # no weight is negative, so the positive ones are the true ones
        vertices = tuple(range(n))
        self._out = tuple(tuple(compress(vertices, row)) for row in num)
        self._in = tuple(tuple(compress(vertices, col)) for col in zip(*num))
        self._twin = _twin_classes(self._num)
        self._hash = hash((den, self._num))
        self._tcache: dict = {}
        self._orbits = None

    @classmethod
    def from_weights(cls, vertex_count: int,
                     weights: Mapping[tuple[int, int], WeightLike]
                     | Iterable[tuple[int, int, WeightLike]]) -> "WeightedGraph":
        """Build a graph from a sparse weight specification; missing pairs are 0.

        Vertex indices may be any integers, numpy integers included, but
        neither they nor the vertex count may be bools; a pair given twice
        is refused, and so is a vertex count whose square exceeds the
        enumeration bound.  The weights are placed as given and parsed by
        the constructor.
        """
        vertex_count = _size(vertex_count, "vertex count", 1)
        # a sparse document of a few bytes may name any vertex count, so the
        # dense table is bounded before it is allocated
        if vertex_count ** 2 > _ENUMERATION_BOUND:
            raise ValueError(f"weight table bound exceeded: {vertex_count}**2 > "
                             f"{_ENUMERATION_BOUND}")
        rows: list[list[WeightLike]] = [[0] * vertex_count
                                        for _ in range(vertex_count)]
        items = weights.items() if isinstance(weights, Mapping) else (
            ((i, j), w) for i, j, w in weights)
        seen = set()
        for (i, j), w in items:
            try:
                a, b = _integer(i), _integer(j)
            except TypeError:
                raise ValueError(
                    f"vertex pair ({i!r}, {j!r}) has non-integer vertices") from None
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"vertex pair ({i}, {j}) out of range")
            if (a, b) in seen:
                raise ValueError(f"duplicate weight entry for pair ({i}, {j})")
            seen.add((a, b))
            rows[a][b] = w
        return cls(rows)

    def _vertex(self, v) -> int:
        """``v`` as a vertex index, through :func:`_integer`; else ``ValueError``.

        The one vertex check: every vertex and word symbol that a function
        on a graph takes comes through here.
        """
        try:
            i = _integer(v)
        except TypeError:
            raise ValueError(f"vertex {v!r} is a {type(v).__name__}: "
                             "non-integer vertices are refused") from None
        if not 0 <= i < self.vertex_count:
            raise ValueError(f"vertex {v!r} out of range: outside "
                             f"0..{self.vertex_count - 1}")
        return i

    def weight(self, i: int, j: int) -> Fraction:
        """Exact weight of the ordered pair ``(i, j)``; bools are not vertices."""
        return Fraction(self._num[self._vertex(i)][self._vertex(j)], self._den)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self._out[self._vertex(i)]

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return self._in[self._vertex(j)]

    def positive_edges(self) -> Iterator[tuple[int, int, Fraction]]:
        for i in range(self.vertex_count):
            for j in self._out[i]:
                yield i, j, Fraction(self._num[i][j], self._den)

    def is_symmetric(self) -> bool:
        n = self.vertex_count
        num = self._num
        return all(num[i][j] == num[j][i]
                   for i in range(n) for j in range(i + 1, n))

    def is_loopless(self) -> bool:
        return all(self._num[i][i] == 0 for i in range(self.vertex_count))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, WeightedGraph)
                and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        edges = sum(len(o) for o in self._out)
        return f"WeightedGraph(vertices={self.vertex_count}, positive_edges={edges})"


def complete_graph(q: int, w: WeightLike = 1) -> WeightedGraph:
    """Complete graph on ``q`` vertices, every off-diagonal weight equal to ``w``."""
    q = _size(q, "vertex count", 1)
    wf = _as_weight(w)
    if wf <= 0:
        raise ValueError("edge weight must be positive")
    return WeightedGraph([[wf if i != j else Fraction(0) for j in range(q)]
                          for i in range(q)])


def multipartite_graph(q: int, r: int, w: WeightLike = 1) -> WeightedGraph:
    """Complete multipartite graph with ``q`` parts of size ``r`` and weight ``w``.

    Vertices are ``0 .. q*r-1``; part membership is the residue mod ``q``,
    and the weight of ``(i, j)`` is ``w`` exactly when ``i % q != j % q``.
    """
    q, r = _size(q, "part count", 1), _size(r, "part size", 1)
    wf = _as_weight(w)
    if wf <= 0:
        raise ValueError("edge weight must be positive")
    n = q * r
    return WeightedGraph([[wf if i % q != j % q else Fraction(0)
                           for j in range(n)] for i in range(n)])


def path_graph(n: int) -> WeightedGraph:
    """Undirected path on ``n`` vertices with unit weights."""
    n = _size(n, "vertex count", 1)
    pairs = {}
    for i in range(n - 1):
        pairs[(i, i + 1)] = 1
        pairs[(i + 1, i)] = 1
    return WeightedGraph.from_weights(n, pairs)


def cycle_graph(n: int) -> WeightedGraph:
    """Undirected cycle on ``n >= 3`` vertices with unit weights."""
    n = _size(n, "vertex count", 3)
    pairs = {}
    for i in range(n):
        j = (i + 1) % n
        pairs[(i, j)] = 1
        pairs[(j, i)] = 1
    return WeightedGraph.from_weights(n, pairs)


def kite_graph() -> WeightedGraph:
    """Triangle on ``{0, 1, 2}`` plus a pendant vertex ``3`` attached to ``0``."""
    pairs = {}
    for i, j in [(0, 1), (0, 2), (1, 2), (0, 3)]:
        pairs[(i, j)] = 1
        pairs[(j, i)] = 1
    return WeightedGraph.from_weights(4, pairs)


@dataclass(frozen=True)
class UniformWeightReport:
    """Outcome of the uniform-weight check.

    ``is_uniform`` holds when the weight table is symmetric, zero on the
    diagonal, and takes a single positive value ``w`` on its support.
    ``violations`` lists offending ``((i, j), weight)`` entries.
    """

    is_uniform: bool
    w: Optional[Fraction]
    violations: tuple[tuple[tuple[int, int], Fraction], ...]


def uniform_weight(g: WeightedGraph) -> UniformWeightReport:
    """Check whether all weights lie in ``{0, w}`` for one positive ``w``."""
    n = g.vertex_count
    violations: list[tuple[tuple[int, int], Fraction]] = []
    for i in range(n):
        if g.weight(i, i) != 0:
            violations.append(((i, i), g.weight(i, i)))
    for i in range(n):
        for j in range(i + 1, n):
            if g.weight(i, j) != g.weight(j, i):
                violations.append(((i, j), g.weight(i, j)))
                violations.append(((j, i), g.weight(j, i)))
    w: Optional[Fraction] = None
    for i, j, wij in g.positive_edges():
        if i == j:
            continue
        w = wij
        break
    if w is not None:
        for i, j, wij in g.positive_edges():
            if i != j and wij != w:
                violations.append(((i, j), wij))
    if w is None:
        # all weights zero: no positive uniform value exists
        return UniformWeightReport(False, None, tuple(violations))
    if violations:
        return UniformWeightReport(False, None, tuple(violations))
    return UniformWeightReport(True, w, ())


def has_directed_triangle(g: WeightedGraph) -> Optional[tuple[int, int, int]]:
    """First triple ``(a, b, c)`` with ``w(a,b) w(b,c) w(a,c) > 0``, or ``None``.

    The vertices need not be distinct: a loop yields the degenerate
    triangle ``(i, i, i)``.  The scan is lexicographic, so the witness is
    canonical.
    """
    num = g._num
    for a in range(g.vertex_count):
        row_a = num[a]
        for b in g._out[a]:
            row_b = num[b]
            for c in g._out[b]:
                if row_a[c] > 0:
                    return (a, b, c)
    return None


def is_strongly_connected(g: WeightedGraph) -> bool:
    """True iff every ordered pair is joined by a positive-weight directed path."""
    n = g.vertex_count

    def reaches_all(adj: Sequence[Sequence[int]]) -> bool:
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count == n

    return reaches_all(g._out) and reaches_all(g._in)


def _require_symmetric_loopless(g: WeightedGraph, what: str) -> None:
    if not g.is_loopless():
        raise ValueError(f"{what} requires a loopless graph")
    if not g.is_symmetric():
        raise ValueError(f"{what} requires a symmetric graph")


def find_kite(g: WeightedGraph) -> Optional[tuple[int, int, int, int]]:
    """Search for an induced kite ``(a, b, c, d)``.

    ``(a, b, c)`` is a triangle and ``d`` is adjacent to ``a`` but to
    neither ``b`` nor ``c``; all four vertices are distinct.  Returns the
    lexicographically first witness with the triangle listed as
    ``attachment, smaller, larger``, or ``None``.
    """
    _require_symmetric_loopless(g, "kite search")
    n = g.vertex_count
    num = g._num
    for t1 in range(n):
        for t2 in range(t1 + 1, n):
            if num[t1][t2] == 0:
                continue
            for t3 in range(t2 + 1, n):
                if num[t1][t3] == 0 or num[t2][t3] == 0:
                    continue
                for d in range(n):
                    if d in (t1, t2, t3):
                        continue
                    adj = [num[d][t] > 0 for t in (t1, t2, t3)]
                    if sum(adj) == 1:
                        a = (t1, t2, t3)[adj.index(True)]
                        b, c = sorted(set((t1, t2, t3)) - {a})
                        return (a, b, c, d)
    return None


def regularity(g: WeightedGraph) -> Optional[int]:
    """Common out-degree of the positive edge set, or ``None`` if degrees differ."""
    degs = {len(g._out[i]) for i in range(g.vertex_count)}
    if len(degs) == 1:
        return degs.pop()
    return None


def triangles_per_edge(g: WeightedGraph) -> Optional[int]:
    """Common number of triangles through each positive edge, if constant.

    Requires a symmetric loopless graph.  Returns ``None`` when the count
    varies between edges or the graph has no edges at all.
    """
    _require_symmetric_loopless(g, "triangle count")
    n = g.vertex_count
    num = g._num
    counts = set()
    for i in range(n):
        for j in g._out[i]:
            if j <= i:
                continue
            counts.add(sum(1 for v in range(n)
                           if num[i][v] > 0 and num[j][v] > 0))
            if len(counts) > 1:
                return None
    if not counts:
        return None
    return counts.pop()


@dataclass(frozen=True)
class MultipartiteClassification:
    """Result of testing for complete multipartite structure.

    When ``is_complete_multipartite`` holds, ``parts`` lists the vertex
    classes ordered by their smallest member, ``q`` is the number of parts
    and ``r`` the common part size (``None`` when the parts have unequal
    sizes).
    """

    is_complete_multipartite: bool
    parts: Optional[tuple[tuple[int, ...], ...]]
    q: Optional[int]
    r: Optional[int]


def classify_multipartite(g: WeightedGraph) -> MultipartiteClassification:
    """Decide whether non-adjacency is an equivalence relation on the vertices.

    A symmetric loopless graph is complete multipartite exactly when the
    relation "``w(i, j) = 0``" is transitive; the parts are then its
    classes and every cross-class weight is positive.
    """
    _require_symmetric_loopless(g, "multipartite classification")
    n = g.vertex_count
    num = g._num
    non_neighbors = [tuple(j for j in range(n) if num[i][j] == 0) for i in range(n)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        groups.setdefault(non_neighbors[v], []).append(v)
    # transitive iff each vertex's non-neighbor set equals its own group
    for key, members in groups.items():
        if tuple(members) != key:
            return MultipartiteClassification(False, None, None, None)
    parts = tuple(sorted((tuple(m) for m in groups.values()), key=lambda p: p[0]))
    sizes = {len(p) for p in parts}
    r = sizes.pop() if len(sizes) == 1 else None
    return MultipartiteClassification(True, parts, len(parts), r)


def block_projection(g: WeightedGraph, classification: MultipartiteClassification,
                     word: Sequence[int]) -> tuple[int, ...]:
    """Project a word onto part indices of a complete multipartite graph.

    Each symbol is replaced by the index of its part, so the image lives on
    the complete graph with one vertex per part and the same edge weight;
    the projection preserves the weight of every ordered pair.
    """
    if not classification.is_complete_multipartite or classification.parts is None:
        raise ValueError("classification does not describe a complete multipartite graph")
    part_of = {}
    for p, part in enumerate(classification.parts):
        for v in part:
            part_of[v] = p
    out = []
    for s in word:
        v = g._vertex(s)
        if v not in part_of:
            raise ValueError(f"symbol {s!r} outside the vertex set")
        out.append(part_of[v])
    return tuple(out)


def _candidates(num: Sequence[Sequence[int]],
                colors: Optional[Sequence[int]] = None
                ) -> list[tuple[int, ...]]:
    """For each index, in increasing order, the indices a table automorphism may map it to.

    Those are the indices with the same color, diagonal entry, sorted row
    and sorted column.
    """
    n = len(num)
    sig = []
    for i in range(n):
        row = tuple(sorted(num[i]))
        col = tuple(sorted(num[j][i] for j in range(n)))
        sig.append((colors[i] if colors else 0, num[i][i], row, col))
    return [tuple(u for u in range(n) if sig[u] == sig[k]) for k in range(n)]


def _completions(num: Sequence[Sequence[int]],
                 candidates: Sequence[Sequence[int]],
                 fixed: Mapping[int, int]) -> Iterator[tuple[int, ...]]:
    """The permutations that keep every entry of ``num`` and extend ``fixed``.

    ``fixed`` maps some indices to their images, and every other index
    ``k`` is mapped to one of ``candidates[k]`` (see :func:`_candidates`)
    by backtracking in index order, so the permutations come in
    lexicographic order for an empty ``fixed``.  Taking only the first
    decides whether ``fixed`` extends at all.
    """
    n = len(num)
    assign = [-1] * n
    used = [False] * n
    placed: list[int] = []

    def fits(k: int, u: int) -> bool:
        """Whether ``k -> u`` keeps every entry with the images placed so far."""
        return all(num[k][j] == num[u][assign[j]]
                   and num[j][k] == num[assign[j]][u] for j in placed)

    for k, u in fixed.items():
        if used[u] or u not in candidates[k] or not fits(k, u):
            return
        assign[k] = u
        used[u] = True
        placed.append(k)
    free = [k for k in range(n) if assign[k] < 0]
    if not free:
        yield tuple(assign)
        return
    # one iterator of images per free index reached, so no size recurses
    stack = [iter(candidates[free[0]])]
    while stack:
        k = free[len(stack) - 1]
        if assign[k] >= 0:
            used[assign[k]] = False
            assign[k] = -1
            placed.pop()
        for u in stack[-1]:
            if not used[u] and fits(k, u):
                assign[k] = u
                used[u] = True
                placed.append(k)
                if len(stack) < len(free):
                    stack.append(iter(candidates[free[len(stack)]]))
                    break
                yield tuple(assign)
                used[u] = False
                assign[k] = -1
                placed.pop()
        else:
            stack.pop()


def _weight_str(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def graph_to_json_dict(g: WeightedGraph) -> dict:
    """JSON form: ``{"vertices": n, "weights": [[i, j, "p/q"], ...]}``.

    Only positive weights are listed; omitted pairs default to zero.
    """
    weights = [[i, j, _weight_str(w)] for i, j, w in g.positive_edges()]
    return {"vertices": g.vertex_count, "weights": weights}


def graph_from_json_dict(data: dict) -> WeightedGraph:
    """Parse the JSON graph format.

    Only the document's shape and its JSON-specific weight types are
    checked here; indices and weights are validated by
    :meth:`WeightedGraph.from_weights` and the constructor.
    """
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        n = data["vertices"]
        entries = data["weights"]
    except (KeyError, TypeError) as exc:
        raise ValueError("graph document needs 'vertices' and 'weights'") from exc
    # JSON true and false load as bools, an int subclass; type() tells them apart
    if type(n) is not int or n < 1:
        raise ValueError("'vertices' must be a positive integer")
    if not isinstance(entries, list):
        raise ValueError("'weights' must be a list of [i, j, weight] triples")
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"weight entry {entry!r} is not an [i, j, weight] triple")
        w = entry[2]
        if isinstance(w, (bool, float)):
            raise ValueError(f"weight entry {entry!r} uses a {type(w).__name__}; "
                             f"use an exact 'p/q' string")
    return WeightedGraph.from_weights(n, entries)

