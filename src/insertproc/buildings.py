"""Building counts of words over a weighted graph.

A *building* of a word ``x = x_1 .. x_n`` is an arrival order for its
positions.  As each position arrives it is linked to the nearest already
present position on each side, producing the *constraint graph* of the
building; the building weight is the product of the linked edge weights.
The *building count* ``B(x)`` is the sum of building weights over all
``n!`` arrival orders.  It satisfies a deletion recurrence

    ``B(x) = sum_i  w(x_{i-1}, x_i) * B(x with position i removed) * w(x_i, x_{i+1})``

with missing boundary neighbors contributing factor 1, and it factors as
``B(x) = w(x) * R(x)`` where ``w(x)`` is the product of consecutive-pair
weights and the reduced count ``R`` obeys

    ``R(x) = sum_i  w(x_{i-1}, x_{i+1}) * R(x with position i removed)``

with ``R(empty) = 1`` and the same boundary convention.  Everything here
is exact: weights with common denominator ``D`` are scaled to integers and
the kernels return scaled integer values (``B * D^(2n-2)`` and
``R * D^(n-1)`` for words of length ``n``).

Two exact kernels serve two call patterns:

* **One chart** (:func:`building_count`, :func:`reduced_count`, and the
  gap sums of :mod:`insertproc.dependence`) runs the *first-arrival
  interval DP*.  Each position carries the tuple of symbols it may take:
  one for a fixed position, every vertex for a free one; the chart sums
  the count over every word those tuples spell.  Frame the word as
  ``⊥ x ⊥`` with absent-flank sentinels at positions ``0`` and ``n+1``.
  The first arrival ``p`` strictly inside an interval ``(i, j)`` whose
  flanks are present links to both flanks and splits the interval into
  two sides built independently, whose arrivals interleave in
  ``C(j-i-2, p-i-1)`` ways.  The sides share only the symbol ``c`` at
  ``p``, so with flank symbols ``a`` at ``i`` and ``b`` at ``j``::

      F(i,a, i+1,b) = 1
      F(i,a, j,b)   = sum_{p, c} C(j-i-2, p-i-1) H(i,a, p,c) H(p,c, j,b)
      H(i,a, j,b)   = l(a, b) F(i,a, j,b)

  where ``l`` is the scaled pair weight, ``D`` at a sentinel, and for
  ``R`` also ``D`` on consecutive pairs.  Then
  ``B D^(2n-2) = F(0,n+1) / D^2`` and ``R D^(n-1) = F(0,n+1) / D^(n+1)``,
  both exact.  This costs O(S^3) integer operations for ``S`` states
  (positions times their symbols) and keeps no state between calls: a
  cold fixed word of length 60 costs milliseconds, and ``k`` free middle
  positions cost a polynomial in ``k q`` instead of ``q**k`` charts.
* **Every word of a length** (the marginals and exact sampler of
  :mod:`insertproc.process`, the consistency and k-dependence sweeps, and
  :func:`recurrence_sweep`) runs the one memoized kernel: the deletion
  recurrence for ``R``, memoized per graph by prefix, with ``B`` taken as
  ``w * R``.  The memo holds one *row* per prefix ``u``: ``R(u a)`` for
  every vertex ``a``, filled from the rows of ``u[1:]``, ``u[:-1]`` and
  ``u`` with one interior position removed.  A sweep walks the positive
  prefixes in lexicographic order and reads each row once for all the
  extensions of its prefix, so each prefix costs O(n) row lookups and
  fills one row of ``q`` values; the interval DP would redo O(n^3) work
  per word and is measurably slower there.  On a single cold word the
  memo touches up to ``2^(n-1)`` prefixes, which is why single charts do
  not use it.  The memo is keyed on *twin classes*: vertices with the
  same row and the same column of the scaled table give every pair the
  same weight, so ``R`` depends only on the word of class
  representatives.  A complete multipartite graph thus stores only
  prefixes of the complete graph it projects onto; their rows are still
  indexed by every vertex, twins having equal entries.  A relabeling of
  the class graph that keeps every weight and class size (a symmetry,
  :class:`_Orbits`) keeps every count.  So every sweep, over all words
  here and over the words and middles of the verifiers, walks one
  generator, :func:`_chains`: it carries, per prefix, the relabeling
  that takes the prefix to the least of its orbit, and the sweeps read
  rows only for those least prefixes.  On K4 at length 8 that is 805
  rows where every prefix would fill 4,368.  The symmetries are never
  listed: each step of a least prefix is found by a search and kept with
  the graph, next to the memo.  The memo keys and the order of the words
  swept do not change, and a prefix that no symmetry moves is keyed and
  read as it would be without them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, permutations
from math import factorial, prod
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .graphs import (_ENUMERATION_BOUND, WeightedGraph, _candidates,
                     _completions, _integer, _size)

if TYPE_CHECKING:
    import numpy as np

Word = tuple[int, ...]
BuildOrder = tuple[int, ...]

__all__ = [
    "Word",
    "BuildOrder",
    "ConstraintGraph",
    "word_weight",
    "constraint_graph",
    "building_weight",
    "building_count_bruteforce",
    "building_count",
    "reduced_count",
    "positive_words",
    "constraint_edge_classes",
    "bruteforce_sweep",
    "recurrence_sweep",
]

_BRUTEFORCE_MAX_LEN = 8


def _as_word(g: WeightedGraph, word: Sequence[int]) -> Word:
    """``word`` as a tuple of plain ``int`` vertices, through ``g._vertex``."""
    # a list first: a tuple built from an iterator is resized to its
    # length, and the resized words stock the tuple free lists of their
    # sizes, which raised the count benchmark's peak RSS by about 1 MB
    return tuple([g._vertex(s) for s in word])


def _as_order(order: Sequence[int], n: int) -> BuildOrder:
    try:
        o = tuple(map(_integer, order))
    except TypeError:
        raise ValueError(
            f"arrival order {order!r} has non-integer positions") from None
    if sorted(o) != list(range(n)):
        raise ValueError(f"arrival order {order!r} is not a permutation of 0..{n - 1}")
    return o


def word_weight(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Product of consecutive-pair weights; 1 for words of length <= 1."""
    w = _as_word(g, word)
    return prod((g.weight(a, b) for a, b in zip(w, w[1:])), start=Fraction(1))


@dataclass(frozen=True)
class ConstraintGraph:
    """Edge multiset generated by one build order, in arrival order.

    Each edge is ``(tail_position, head_position, weight)`` with
    ``tail < head``; at most two edges are appended per arrival.
    """

    edges: tuple[tuple[int, int, Fraction], ...]

    def pair_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((t, h) for t, h, _ in self.edges))

    def total_weight(self) -> Fraction:
        return prod((w for _, _, w in self.edges), start=Fraction(1))


def _links(order: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Position pairs linked by an arrival order, in arrival order.

    Each arriving position links to the nearest present position on its
    left, then on its right; every pair is yielded as ``(left, right)``.
    """
    present: list[int] = []
    for p in order:
        pos = bisect_left(present, p)
        if pos > 0:
            yield present[pos - 1], p
        if pos < len(present):
            yield p, present[pos]
        present.insert(pos, p)


def constraint_graph(g: WeightedGraph, word: Sequence[int],
                     order: Sequence[int]) -> ConstraintGraph:
    """Constraint graph of the building ``(word, order)``.

    ``order[t]`` is the position (0-based) arriving at time ``t``.  The
    arriving position links to the nearest present position on its left
    and on its right, weighted by the corresponding word symbols.
    """
    w = _as_word(g, word)
    o = _as_order(order, len(w))
    return ConstraintGraph(tuple((i, j, g.weight(w[i], w[j]))
                                 for i, j in _links(o)))


def building_weight(g: WeightedGraph, word: Sequence[int],
                    order: Sequence[int]) -> Fraction:
    """Product of the constraint-graph edge weights; 1 on the empty multiset."""
    return constraint_graph(g, word, order).total_weight()


def building_count_bruteforce(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Building count by direct summation over all arrival orders.

    The orders are grouped by the edge set they link
    (:func:`constraint_edge_classes`), so each group's product of edge
    weights is formed once.  Exponential-time reference oracle; words
    longer than 8 are rejected.
    """
    w = _as_word(g, word)
    n = len(w)
    num = g._num
    den = g._den
    max_edges = max(0, 2 * n - 3)
    total = sum(count * den ** (max_edges - len(pairs))
                * prod(num[w[i]][w[j]] for i, j in pairs)
                for pairs, count in constraint_edge_classes(n))
    return Fraction(total, den ** max_edges)


def _prefix_row(g: WeightedGraph, u: Word) -> Sequence[int]:
    """Row of the prefix ``u``: ``R(u a) * D^len(u)`` for every vertex ``a``.

    The row is indexed by the vertices of the graph as given; twins have
    equal entries, so a caller indexes it by the original last symbol.
    The prefix is mapped to its twin classes once, here, and the memo is
    keyed on the class word.  The row is shared with the memo and must
    not be changed.
    """
    m = len(u)
    if m <= 1:
        return [1 if m == 0 else 2 * g._den] * g.vertex_count
    twin = g._twin
    if twin is not None:
        # with more than one index, itemgetter returns a tuple
        u = itemgetter(*u)(twin)
    row = g._tcache.get(u)
    return _fill_row(g._tcache, g._num, g._den, u) if row is None else row


def _fill_row(cache: dict, num: tuple[tuple[int, ...], ...], den: int,
              u: Word) -> list[int]:
    """Count and store the row of a class prefix of length >= 2 that the memo lacks.

    Deleting a position of ``u a`` leaves ``u`` (factor ``D``), ``u[1:] a``
    (``D``), ``(u with interior position i removed) a`` (the weight across
    the gap) or ``u[:-1] a`` (the weight from ``u[-2]`` to ``a``), so::

        row(u)[a] = D R(u) + D row(u[1:])[a]
                    + sum_i num[u_{i-1}][u_{i+1}] row(u without i)[a]
                    + num[u[-2]][a] row(u[:-1])[a]

    with ``R(u) = row(u[:-1])[u[-1]]``, all scaled.  Every child is a
    class prefix one shorter; each is looked up inline, so a Python call
    is made only for a child that the memo also lacks.
    """
    m = len(u)
    if m == 2:
        # each child of u a is a pair, which counts 2 D
        two = 2 * den
        row = [two * (two + f) for f in num[u[0]]]
    else:
        get = cache.get
        child = u[:-1]
        head = get(child) or _fill_row(cache, num, den, child)
        child = u[1:]
        tail = get(child) or _fill_row(cache, num, den, child)
        base = den * head[u[-1]]
        row = [base + den * t + f * h
               for t, f, h in zip(tail, num[u[-2]], head)]
        for i in range(1, m - 1):
            f = num[u[i - 1]][u[i + 1]]
            if f:
                child = u[:i] + u[i + 1:]
                inner = get(child) or _fill_row(cache, num, den, child)
                row = [r + f * c for r, c in zip(row, inner)]
    cache[u] = row
    return row


def _scaled_reduced(g: WeightedGraph, w: Word) -> int:
    """Reduced count scaled by ``D^(len-1)``: one entry of a prefix row."""
    m = len(w)
    if m <= 2:
        return 2 * g._den if m == 2 else 1
    return _prefix_row(g, w[:-1])[w[-1]]


def _scaled_building(g: WeightedGraph, w: Word) -> int:
    """Building count scaled by ``D^(2*len-2)``, as ``w * R`` on the memo.

    The word weight, scaled by ``D^(len-1)``, is the product of the scaled
    pair weights.  Every building links every consecutive pair, so this
    holds at ``w = 0``.
    """
    num = g._num
    spine = 1
    for a, b in zip(w, w[1:]):
        spine *= num[a][b]
        if not spine:
            return 0
    return spine * _scaled_reduced(g, w)


# The symmetry search runs on at most this many twin classes.  On a table
# whose classes all look alike but have few symmetries, one search may try
# many partial maps; past the bound the identity alone stands for the
# group, which changes no count, only the time.
_GROUP_CLASS_BOUND = 10


class _Orbits:
    """The twin quotient of a graph, and orbit-least steps under its symmetries.

    The sweeps walk the quotient: ``reps`` are the class representatives
    in increasing order, so the class order is the vertex order;
    ``size[v]`` is the size of ``v``'s class when ``v`` is a
    representative and 0 otherwise; ``out`` holds the positive adjacency
    rows with only representatives kept.  A graph without twins
    is its own quotient, every size 1.

    The symmetries are the relabelings of the twin class graph that keep
    every weight and class size.  Each lifts to a weight-preserving
    permutation of the graph, so it keeps every building count.  A class
    word is the least of its orbit exactly when each symbol is the least
    image of itself under the maps that fix every symbol before it, and
    those maps depend only on the set of classes fixed, a bit mask here.
    The group is never listed: :meth:`step` finds one least image by
    search (:func:`insertproc.graphs._completions`) and keeps it in
    ``steps``, so each step is searched once per graph; :func:`_chains`
    takes the steps of every walk.  A fixed set is
    carried as ``None`` once only the identity fixes it, and :attr:`root`
    is ``None`` when the group is the identity alone; the group is first
    looked at when :attr:`root` is first read.
    """

    __slots__ = ("reps", "size", "out", "steps", "_index", "_table",
                 "_candidates", "_moving")

    def __init__(self, g: WeightedGraph):
        q, twin, num = g.vertex_count, g._twin, g._num
        self.steps: dict[tuple[int, int], tuple] = {}
        self._moving: dict[int, bool] = {}
        if twin is None:
            self.reps, self.size, self.out = range(q), (1,) * q, g._out
            self._table = num
            return
        size = [0] * q
        for c in twin:
            size[c] += 1
        reps = self.reps = tuple(v for v in range(q) if size[v])
        self.size = tuple(size)
        self.out = tuple(tuple(v for v in row if size[v]) for row in g._out)
        # the class table; past the class bound it is never searched
        self._table = (num if len(reps) > _GROUP_CLASS_BOUND
                       else [[num[a][b] for b in reps] for a in reps])

    @property
    def root(self) -> Optional[int]:
        """0, no class fixed, or ``None`` when the group is the identity alone."""
        moving = self._moving
        if 0 not in moving:
            reps, table = self.reps, self._table
            q = len(reps)
            # a symmetry maps each row to one with the same entries, so if
            # all differ in sum or entries there is none: no search
            if (q > _GROUP_CLASS_BOUND or len(set(map(sum, table))) == q
                    or len(set(map(tuple, map(sorted, table)))) == q):
                moving[0] = False
            else:
                self._index = dict(zip(reps, range(q)))
                self._candidates = _candidates(table,
                                               [self.size[a] for a in reps])
                self._fixing(0)
        return 0 if moving[0] else None

    def _maps(self, fixed: int, pinned: Optional[dict[int, int]] = None
              ) -> Iterator[tuple[int, ...]]:
        """The class maps that fix the classes of ``fixed`` and extend ``pinned``."""
        pinned = pinned or {}
        pinned.update((i, i) for i in range(len(self.reps)) if fixed >> i & 1)
        return _completions(self._table, self._candidates, pinned)

    def _swaps(self, k: int, u: int) -> bool:
        """Whether exchanging classes ``k`` and ``u`` alone keeps the table.

        Such a map fixes every other class, and it is the one a search
        finds first on a complete or complete multipartite graph, so it is
        tried before the search.
        """
        t = self._table
        return t[k][u] == t[u][k] and all(
            t[k][j] == t[u][j] and t[j][k] == t[j][u]
            for j in range(len(t)) if j != k and j != u)

    def _fixing(self, fixed: int) -> Optional[int]:
        """``fixed``, or ``None`` when only the identity fixes its classes."""
        moving = self._moving.get(fixed)
        if moving is None:
            # a map that fixes these classes moves only the others, each to
            # one with its signature; the identity is the first map found,
            # so a second one moves
            pairs = [(k, u) for k, images in enumerate(self._candidates)
                     if not fixed >> k & 1 for u in images
                     if u > k and not fixed >> u & 1]
            moving = bool(pairs) and any(self._swaps(k, u) for k, u in pairs)
            if pairs and not moving:
                maps = self._maps(fixed)
                next(maps)
                moving = next(maps, None) is not None
            self._moving[fixed] = moving
        return fixed if moving else None

    def step(self, fixed: int, b: int
             ) -> tuple[int, Optional[list[int]], Optional[int]]:
        """``(least, mover, fixed')`` for the symbol ``b`` after an orbit-least word.

        ``fixed`` holds the classes of that word, and ``b`` is a class
        representative.  ``least`` is the least image of ``b`` under the
        maps that fix them, ``mover`` one of those maps that takes ``b``
        there, as a vertex map (``None`` when ``least`` is ``b``), and
        ``fixed'`` is ``fixed`` with ``least`` added, as :meth:`_fixing`
        gives it.
        """
        reps, index = self.reps, self._index
        k = index[b]
        least, mover = b, None
        # a map that fixes a class takes no other class there, so a fixed
        # b keeps its class and no fixed class is an image of b
        for u in () if fixed >> k & 1 else self._candidates[k]:
            if u >= k:
                break
            if fixed >> u & 1:
                continue
            if self._swaps(k, u):
                least = reps[u]
                mover = list(range(len(self.size)))
                mover[b], mover[least] = least, b
                break
            image = next(self._maps(fixed, {k: u}), None)
            if image is not None:
                least = reps[u]
                mover = list(range(len(self.size)))
                for a, i in zip(reps, image):
                    mover[a] = reps[i]
                break
        step = self.steps[fixed, b] = (
            least, mover, self._fixing(fixed | 1 << index[least]))
        return step


def _orbits(g: WeightedGraph) -> _Orbits:
    """The graph's :class:`_Orbits`, made on first use and kept with the graph."""
    orbits = g._orbits
    if orbits is None:
        orbits = g._orbits = _Orbits(g)
    return orbits


def _chains(orbits: _Orbits, out: Sequence[Sequence[int]],
            links: Sequence[Sequence[int]], n: int, first: Sequence[int],
            head: Sequence[int], fixed: Optional[int],
            pi: Optional[Sequence[int]], least: bool = False
            ) -> Iterator[tuple[Word, int, Word, Optional[Sequence[int]]]]:
    """``(word, weight, image, pi)`` for each chain of length ``n``, in lexicographic order.

    The first symbol ranges over ``first``, weighted by ``head``, and each
    later one over the ``out`` row of the symbol before, weighted by
    ``links``; ``weight`` is the product.  ``pi`` maps onto class words
    (``None`` for the identity), and ``fixed`` holds the classes that every
    map used must fix (see :class:`_Orbits`).  Each symbol is mapped by
    ``pi`` and moved to its least image under the maps that also fix the
    image so far, and that map is composed into ``pi``: ``image`` is the
    least word of the orbit of ``pi(word)``, and the ``pi`` yielded takes
    ``word`` there.  With ``least``, a symbol that would be moved is not
    taken, so the chains yielded are those whose ``pi`` stays ``None``.
    """
    steps, step = orbits.steps, orbits.step
    if n == 0:
        yield (), 1, (), pi
        return
    # one entry per chain shorter than n: the chain, its weight, the
    # choices and links of its next symbol, its image, its relabeling and
    # the classes fixed
    stack = [((), 1, first, head, (), pi, fixed)]
    pop, push = stack.pop, stack.append
    while stack:
        word, weight, choices, row, image, pi, fixed = pop()
        # the chains of length n are yielded in order; shorter ones are
        # pushed in reverse, so that the least is popped first
        leaf = len(word) == n - 1
        for b in choices if leaf else reversed(choices):
            c = b if pi is None else pi[b]
            moved, below = pi, None
            if fixed is not None:
                c, mover, below = steps.get((fixed, c)) or step(fixed, c)
                if mover is not None:
                    if least:
                        continue
                    moved = mover if pi is None else [mover[s] for s in pi]
            if leaf:
                yield word + (b,), weight * row[b], image + (c,), moved
            else:
                push((word + (b,), weight * row[b], out[b], links[b],
                      image + (c,), moved, below))


def _least_words(g: WeightedGraph, n: int) -> Iterator[Word]:
    """The positive class words of length ``n`` that are the least of their orbits.

    In lexicographic order, from :func:`_chains`.  The least positive
    word, a class word (twins have equal rows and columns) and the least
    of its orbit, comes before the group is looked at, so a check that
    stops there, as most on random tables do, pays for no search; without
    twins or symmetries the walk that found it goes on.
    """
    words = _walks(g._out, n, range(g.vertex_count))
    first = next(words, None)
    if first is None:
        return
    yield first
    orbits = _orbits(g)
    if orbits.root is None and g._twin is None:
        yield from words
        return
    for c, _, _, _ in _chains(orbits, orbits.out, g._num, n, orbits.reps,
                              (1,) * g.vertex_count, orbits.root, None,
                              least=True):
        if c != first:
            yield c


def _scaled_buildings(g: WeightedGraph, n: int) -> dict[Word, int]:
    """``B * D^(2n-2)`` of each positive word of length ``n``, in lexicographic order.

    The walk of :func:`_chains` over the positive prefixes of length
    ``n - 1`` carries each prefix's scaled pair weight product, and the
    prefix's row is read once for all its extensions.  ``B = w * R`` and
    ``R >= 1`` (the left-to-right arrival order adds no other link), so
    exactly these words have positive building count.

    The walk starts from the twin map, so each prefix ``u`` comes with a
    relabeling ``pi``, a symmetry of the class graph composed with the
    twin map, that takes ``u`` to the least class word ``c`` of its
    orbit.  A relabeling keeps every pair weight, so ``row(u)[a] =
    row(c)[pi[a]]``: only orbit-least prefixes are looked up in the memo.
    """
    if n <= 1:
        return dict.fromkeys(positive_words(g, n), 1)
    num, out, cache = g._num, g._out, g._tcache
    orbits = _orbits(g)
    plain = range(g.vertex_count)
    masses = {}
    for u, spine, c, pi in _chains(orbits, out, num, n - 1, plain,
                                   (1,) * len(plain), orbits.root,
                                   g._twin or plain):
        row = cache.get(c) or _prefix_row(g, c)
        links = num[u[-1]]
        for a in out[u[-1]]:
            masses[u + (a,)] = spine * links[a] * row[pi[a]]
    return masses


def _interval_scaled(g: WeightedGraph, word: Sequence[Sequence[int]],
                     reduced: bool = False) -> int:
    """Sum of ``B * D^(2n-2)``, or ``R * D^(n-1)``, over the words of a chart.

    ``word[p]`` is the tuple of symbols position ``p`` may take.  A state
    is one symbol at one position; the sentinels are an extra vertex ``q``
    linked to every symbol by ``D``.  The chart keeps
    ``G = H (n-1)! / (j-i-1)!``, so each side of a split carries its
    factorial of ``C(j-i-2, p-i-1) = (j-i-2)! / ((p-i-1)! (j-p-1)!)`` and
    ``G(i,a, j,b) = l(a,b) sum G(i,a, p,c) G(p,c, j,b) / ((n-1)! (j-i-1))``
    divides exactly.
    """
    n = len(word)
    if n == 0:
        return 1
    num = g._num
    den = g._den
    q = len(num)
    link = [list(row) + [den] for row in num] + [[den] * (q + 1)]
    framed = [(q,), *word, (q,)]
    last = n + 1
    # the states of position p are numbered from start[p]; a state's row
    # holds G to the states of later positions, numbered from
    # start[p + 1], and its column G from the states of earlier ones
    start = list(accumulate(map(len, framed), initial=0))
    size = start[-1]
    states = [[(start[p] + t, c, [0] * (size - start[p + 1]), [0] * start[p])
               for t, c in enumerate(syms)]
              for p, syms in enumerate(framed)]
    scale = factorial(n - 1)
    for i in range(last):
        lo = start[i + 1]
        for s, a, row, _ in states[i]:
            for t, b, _, col in states[i + 1]:
                row[t - lo] = col[s] = (den if reduced else link[a][b]) * scale
    for d in range(2, last):
        div = scale * (d - 1)
        for i in range(last + 1 - d):
            j = i + d
            lo, hi = start[i + 1], start[j]
            for s, a, row, _ in states[i]:
                la = link[a]
                inner = row[:hi - lo]
                for t, b, _, col in states[j]:
                    link_ab = la[b]
                    if link_ab:
                        row[t - lo] = col[s] = (
                            link_ab * sum(map(mul, inner, col[lo:hi])) // div)
    top = sum(map(mul, states[0][0][2][:size - 2], states[last][0][3][1:]))
    return top // (scale * (den ** (n + 1) if reduced else den * den))


def reduced_count(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Reduced building count; exact, by the first-arrival interval DP."""
    w = _as_word(g, word)
    return Fraction(_interval_scaled(g, [(s,) for s in w], reduced=True),
                    g._den ** max(0, len(w) - 1))


def building_count(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Building count; exact, by the first-arrival interval DP."""
    w = _as_word(g, word)
    return Fraction(_interval_scaled(g, [(s,) for s in w]),
                    g._den ** max(0, 2 * len(w) - 2))


# Every exhaustive sweep is bounded where it is entered, in the API: at most
# q**n words of one length (the enumeration bound of the graphs module), and
# at most q**k middles of one gap.  A gap sum's chart is bounded by its
# number of states, not by the size of its integers: with 64-bit weights a
# chart of 254 states has been measured at 408 s.  The CLI enforces these
# bounds only through the functions it calls.
_MIDDLE_BOUND = 10 ** 5
_CHART_BOUND = 256


def _check_bound(q: int, n: int, bound: int = _ENUMERATION_BOUND,
                 what: str = "enumeration") -> None:
    """Refuse a sweep over ``q**n`` words when that exceeds ``bound``."""
    # a length past the bound's bit length is refused for every q: for
    # q >= 2 it gives q**n > bound without forming a huge power, and with
    # one vertex it caps the memo's recursion
    cut = bound.bit_length()
    if q <= 1 and n > cut:
        raise ValueError(f"{what} bound exceeded: length {n} > {cut}")
    if n > cut or q ** n > bound:
        raise ValueError(f"{what} bound exceeded: {q}**{n} > {bound}")


def _walks(out: Sequence[Sequence[int]], n: int,
           first: Sequence[int]) -> Iterator[Word]:
    """Chains of length ``n`` in ``out``, in lexicographic order.

    The first symbol ranges over ``first`` and each later one over the
    ``out`` row of the symbol before it; every row and ``first`` must be
    increasing.
    """
    if n == 0:
        yield ()
        return
    word = [0] * n
    # one iterator of choices per filled depth, so no length recurses
    stack = [iter(first)]
    while stack:
        depth = len(stack) - 1
        for v in stack[-1]:
            word[depth] = v
            if depth + 1 == n:
                yield tuple(word)
            else:
                stack.append(iter(out[v]))
                break
        else:
            stack.pop()


def positive_words(g: WeightedGraph, n: int) -> Iterator[Word]:
    """All words of length ``n`` with positive word weight, in lexicographic order."""
    return _walks(g._out, _size(n, "word length"), range(g.vertex_count))


# typed, so that True and 2.0 are not answered from the entries of 1 and 2
@lru_cache(maxsize=None, typed=True)
def constraint_edge_classes(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Constraint-graph position-pair sets over all arrival orders of length ``n``.

    Returns ``((pairs, count), ...)`` sorted by ``pairs``, where ``count``
    is the number of arrival orders producing exactly that edge set.  Each
    edge set contains every consecutive pair ``(i, i+1)``, and no pair
    repeats, so the sets are genuine sets.  The ``n!`` orders are
    enumerated, so ``n`` is at most 8.
    """
    n = _check_bruteforce_len(n)
    counter = Counter(tuple(sorted(_links(o))) for o in permutations(range(n)))
    assert all(len(set(key)) == len(key) for key in counter)
    return tuple(sorted(counter.items()))


def _check_bruteforce_len(n: int) -> int:
    """``n`` as a size, refused past what the arrival-order enumeration can take."""
    n = _size(n, "word length")
    if n > _BRUTEFORCE_MAX_LEN:
        raise ValueError(f"length {n} exceeds the brute-force bound "
                         f"{_BRUTEFORCE_MAX_LEN}")
    return n


# bruteforce_sweep counts the positive words of one length in blocks of
# this many, so its arrays, one per position, per pair and per prefix
# product, stay small however many words the length has
_SWEEP_BLOCK = 4096


def bruteforce_sweep(g: WeightedGraph, max_len: int) -> dict[int, tuple[np.ndarray, int]]:
    """Building counts of *all* words up to ``max_len``, by summing arrival orders.

    For each length ``m`` returns ``(values, scale)`` where
    ``values[word_index] == B(word) * scale`` as integers and the word
    index is the base-``q`` encoding of the word (most significant symbol
    first).  The sum over arrival orders is organized through
    :func:`constraint_edge_classes`, which keeps this an independent route
    from the deletion recurrence.  Every building links every consecutive
    pair, so ``B`` is zero wherever the word weight is: the class sums run
    over the positive words only, found from the weight table, and every
    other index holds zero.  ``max_len`` is at most 8 and ``q**max_len``
    at most the enumeration bound.
    """
    import numpy as np
    max_len = _check_bruteforce_len(max_len)
    q = g.vertex_count
    _check_bound(q, max_len)
    den = g._den
    maxnum = max(den, max(map(max, g._num)))
    # positive[a, b] says whether a word may step from a to b
    positive = np.array([[w > 0 for w in row] for row in g._num])
    digit_type = np.min_scalar_type(q - 1)
    # the sorted indices of the positive words of the current length
    words = np.arange(q, dtype=np.int64)
    out: dict[int, tuple[np.ndarray, int]] = {}
    for m in range(0, max_len + 1):
        if m <= 1:
            out[m] = (np.ones(q ** m, dtype=np.int64), 1)
            continue
        # each word of length m-1 extends by the out-pattern of its last
        # symbol; the row-major mask keeps the new indices sorted
        words = (words[:, None] * q + np.arange(q))[positive[words % q]]
        classes = constraint_edge_classes(m)
        e_max = max(len(pairs) for pairs, _ in classes)
        # int64 suffices below 2^62.  Per word, with every factor (D
        # included) at most M = maxnum: the path product is <= M^(m-1); the
        # class counts sum to m!; and each class's extras times its D
        # padding fill e_max - (m-1) = m-2 slots, so are <= M^(m-2)
        bound = (maxnum ** (m - 1)) * factorial(m) * (maxnum ** (m - 2))
        dtype = np.int64 if bound < 2 ** 62 else object
        # the digits and pair weights take the narrowest type that holds
        # them; the weights' type is signed (from -maxnum), so that numpy
        # promotes every product with them to int64
        num = np.array(g._num, dtype=(np.min_scalar_type(-maxnum)
                                      if dtype is np.int64 else object))
        path_pairs = tuple((i, i + 1) for i in range(m - 1))
        # sorted by their extras, classes that share a prefix are adjacent,
        # so only the partial products along the current prefix are kept
        by_extras = []
        for pairs, count in classes:
            extras = tuple(p for p in pairs if p not in path_pairs)
            assert len(extras) == len(pairs) - len(path_pairs)
            by_extras.append((extras, count, e_max - len(pairs)))
        by_extras.sort()
        values = np.zeros(q ** m, dtype=dtype)
        for lo in range(0, len(words), _SWEEP_BLOCK):
            block = words[lo:lo + _SWEEP_BLOCK]
            digits = [(block // q ** (m - 1 - j) % q).astype(digit_type)
                      for j in range(m)]
            pairval: dict[tuple[int, int], np.ndarray] = {}

            def pv(a: int, b: int) -> np.ndarray:
                key = (a, b)
                if key not in pairval:
                    pairval[key] = num[digits[a], digits[b]]
                return pairval[key]

            path_prod = pv(0, 1).astype(dtype)
            for i in range(1, m - 1):
                path_prod = path_prod * pv(i, i + 1)
            prev: tuple[tuple[int, int], ...] = ()
            prods = [np.ones(len(block), dtype=dtype)]
            acc = np.zeros(len(block), dtype=dtype)
            for extras, count, pad in by_extras:
                keep = 0
                while (keep < min(len(prev), len(extras))
                       and prev[keep] == extras[keep]):
                    keep += 1
                del prods[keep + 1:]
                for pair in extras[keep:]:
                    prods.append(prods[-1] * pv(*pair))
                prev = extras
                acc += count * (den ** pad) * prods[-1]
            values[block] = path_prod * acc
        out[m] = (values, den ** e_max)
    return out


def recurrence_sweep(g: WeightedGraph, max_len: int) -> dict[int, tuple[np.ndarray, int]]:
    """Building counts of all words up to ``max_len`` from the memoized kernel.

    Same indexing and scaling conventions as :func:`bruteforce_sweep` (here
    the scale is ``D^(2m-2)``).  Values are exact Python ints in object
    arrays, taken as ``w * R`` over the positive words, by prefix row, and
    zero at every other index.  ``q**max_len`` is at most the enumeration
    bound.
    """
    import numpy as np
    max_len = _size(max_len, "word length")
    q = g.vertex_count
    _check_bound(q, max_len)
    out: dict[int, tuple[np.ndarray, int]] = {}
    for m in range(max_len + 1):
        values = np.zeros(q ** m, dtype=object)
        for word, mass in _scaled_buildings(g, m).items():
            idx = 0
            for s in word:
                idx = idx * q + s
            values[idx] = mass
        out[m] = (values, g._den ** max(0, 2 * m - 2))
    return out
