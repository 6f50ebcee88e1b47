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

* **One word** (:func:`building_count`, :func:`reduced_count` and the gap
  sums of :mod:`insertproc.dependence`) runs the *first-arrival interval
  DP*.  Frame the word as ``s = ⊥ x ⊥`` with absent-flank sentinels at
  positions ``0`` and ``n+1``.  The first arrival ``p`` strictly inside an
  interval ``(i, j)`` whose flanks are present links to both flanks and
  splits the interval into two sides built independently, whose arrivals
  interleave in ``C(j-i-2, p-i-1)`` ways::

      F(i, i+1) = 1
      F(i, j)   = sum_p C(j-i-2, p-i-1) a(i,p) a(p,j) F(i,p) F(p,j)

  where ``a`` is the scaled pair weight, ``D`` at a sentinel, and for
  ``R`` also ``D`` on consecutive pairs.  Then
  ``B D^(2n-2) = F(0,n+1) / D^2`` and ``R D^(n-1) = F(0,n+1) / D^(n+1)``,
  both exact.  This costs O(n^3) integer operations and keeps no state
  between calls, so a cold word of length 60 costs milliseconds.
* **Every word of a length** (the marginals and exact sampler of
  :mod:`insertproc.process`, the consistency and k-dependence sweeps, and
  :func:`recurrence_sweep`) runs the one memoized kernel: the deletion
  recurrence for ``R``, memoized per graph on subwords, with ``B`` taken
  as ``w * R``.  In a sweep every child of a word was already counted, so
  each word costs O(n) cache lookups; the interval DP would redo O(n^3)
  work per word and is measurably slower there.  On a single cold word
  the memo touches up to ``2^n`` subwords, which is why single words do
  not use it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from operator import index, mul
from typing import Iterator, Sequence

import numpy as np

from .graphs import WeightedGraph

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

# Words up to this length are always memoized; longer words are memoized
# only while the per-graph cache stays below the soft cap, which bounds
# memory during large enumeration sweeps.
_ALWAYS_CACHE_LEN = 6
_CACHE_SOFT_CAP = 400_000

_BRUTEFORCE_MAX_LEN = 8


def _as_word(g: WeightedGraph, word: Sequence[int]) -> Word:
    """Validate a word and return it as a tuple of plain ``int`` vertices.

    Any integer type, numpy integers included, is accepted through
    ``operator.index``; bools are rejected rather than read as 0 and 1.
    """
    out = []
    for s in word:
        if isinstance(s, (bool, np.bool_)):
            raise ValueError(f"symbol {s!r} is a bool, not a vertex")
        try:
            v = index(s)
        except TypeError:
            raise ValueError(f"symbol {s!r} is not an integer vertex") from None
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"symbol {s!r} outside the vertex set")
        out.append(v)
    return tuple(out)


def _as_order(order: Sequence[int], n: int) -> BuildOrder:
    o = tuple(order)
    if sorted(o) != list(range(n)):
        raise ValueError(f"arrival order {order!r} is not a permutation of 0..{n - 1}")
    return o


def word_weight(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Product of consecutive-pair weights; 1 for words of length <= 1."""
    w = _as_word(g, word)
    out = Fraction(1)
    for a, b in zip(w, w[1:]):
        wa = g.weight(a, b)
        if wa == 0:
            return Fraction(0)
        out *= wa
    return out


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
        out = Fraction(1)
        for _, _, w in self.edges:
            out *= w
        return out


def constraint_graph(g: WeightedGraph, word: Sequence[int],
                     order: Sequence[int]) -> ConstraintGraph:
    """Constraint graph of the building ``(word, order)``.

    ``order[t]`` is the position (0-based) arriving at time ``t``.  The
    arriving position links to the nearest present position on its left
    and on its right, weighted by the corresponding word symbols.
    """
    w = _as_word(g, word)
    o = _as_order(order, len(w))
    present: list[int] = []
    edges: list[tuple[int, int, Fraction]] = []
    for p in o:
        pos = bisect_left(present, p)
        if pos > 0:
            left = present[pos - 1]
            edges.append((left, p, g.weight(w[left], w[p])))
        if pos < len(present):
            right = present[pos]
            edges.append((p, right, g.weight(w[p], w[right])))
        present.insert(pos, p)
    return ConstraintGraph(tuple(edges))


def building_weight(g: WeightedGraph, word: Sequence[int],
                    order: Sequence[int]) -> Fraction:
    """Product of the constraint-graph edge weights; 1 on the empty multiset."""
    return constraint_graph(g, word, order).total_weight()


def building_count_bruteforce(g: WeightedGraph, word: Sequence[int],
                              max_len: int = _BRUTEFORCE_MAX_LEN) -> Fraction:
    """Building count by direct summation over all arrival orders.

    Exponential-time reference oracle; words longer than ``max_len`` are
    rejected.
    """
    w = _as_word(g, word)
    n = len(w)
    if n > max_len:
        raise ValueError(
            f"word of length {n} exceeds the brute-force bound {max_len}")
    num = g._num
    den = g._den
    total = 0
    max_edges = max(0, 2 * n - 3)
    for order in permutations(range(n)):
        present: list[int] = []
        prod = 1
        edges = 0
        for p in order:
            pos = bisect_left(present, p)
            if pos > 0:
                prod *= num[w[present[pos - 1]]][w[p]]
                edges += 1
            if pos < len(present):
                prod *= num[w[p]][w[present[pos]]]
                edges += 1
            if prod == 0:
                break
            present.insert(pos, p)
        else:
            total += prod * den ** (max_edges - edges)
    return Fraction(total, den ** max_edges)


def _scaled_reduced(g: WeightedGraph, w: Word) -> int:
    """Reduced count scaled by ``D^(len-1)``; the one memoized kernel."""
    m = len(w)
    if m <= 1:
        return 1
    cache = g._tcache
    v = cache.get(w)
    if v is not None:
        return v
    den = g._den
    if m == 2:
        v = 2 * den
    else:
        num = g._num
        last = m - 1
        total = _scaled_reduced(g, w[1:]) + _scaled_reduced(g, w[:last])
        total *= den
        for i in range(1, last):
            f = num[w[i - 1]][w[i + 1]]
            if f:
                total += f * _scaled_reduced(g, w[:i] + w[i + 1:])
        v = total
    if m <= _ALWAYS_CACHE_LEN or len(cache) < _CACHE_SOFT_CAP:
        cache[w] = v
    return v


def _spine_scaled(g: WeightedGraph, w: Word) -> int:
    """Word weight scaled by ``D^(len-1)``: the product of scaled pair weights."""
    num = g._num
    total = 1
    for a, b in zip(w, w[1:]):
        total *= num[a][b]
        if not total:
            return 0
    return total


def _scaled_building(g: WeightedGraph, w: Word) -> int:
    """Building count scaled by ``D^(2*len-2)``, as ``w * R`` on the memo.

    Every building links every consecutive pair, so this holds at ``w = 0``.
    """
    spine = _spine_scaled(g, w)
    return spine * _scaled_reduced(g, w) if spine else 0


def _interval_scaled(g: WeightedGraph, w: Word, reduced: bool = False) -> int:
    """One word's scaled count by the first-arrival interval DP.

    Returns ``B * D^(2n-2)``, or with ``reduced`` ``R * D^(n-1)``; exact,
    O(n^3) integer operations, and no memo.  Over the framed word
    ``⊥ w ⊥`` it fills ``H(i, j) = a(i, j) F(i, j)``, the interval with
    its closing link, so ``F(i, j) = sum_p C(j-i-2, p-i-1) H(i, p) H(p, j)``.
    """
    n = len(w)
    if n <= 1:
        return 1
    num = g._num
    den = g._den
    last = n + 1

    def link(i: int, j: int) -> int:
        if i == 0 or j == last or (reduced and j == i + 1):
            return den
        return num[w[i - 1]][w[j - 1]]

    # rows[i][j] and cols[j][i] both hold H(i, j), so that the sum over p
    # runs over two contiguous slices
    rows = [[0] * (last + 1) for _ in range(last + 1)]
    cols = [[0] * (last + 1) for _ in range(last + 1)]
    binoms = [[comb(m, t) for t in range(m + 1)] for m in range(n)]

    def inside(i: int, j: int) -> int:
        return sum(map(mul, map(mul, binoms[j - i - 2], rows[i][i + 1:j]),
                       cols[j][i + 1:j]))

    for i in range(last):
        rows[i][i + 1] = cols[i + 1][i] = link(i, i + 1)
    for d in range(2, last):
        for i in range(last + 1 - d):
            j = i + d
            a = link(i, j)
            if a:
                rows[i][j] = cols[j][i] = a * inside(i, j)
    return inside(0, last) // (den ** (n + 1) if reduced else den * den)


def reduced_count(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Reduced building count; exact, by the first-arrival interval DP."""
    w = _as_word(g, word)
    if len(w) == 0:
        return Fraction(1)
    return Fraction(_interval_scaled(g, w, reduced=True),
                    g._den ** (len(w) - 1))


def building_count(g: WeightedGraph, word: Sequence[int]) -> Fraction:
    """Building count; exact, by the first-arrival interval DP."""
    w = _as_word(g, word)
    if len(w) <= 1:
        return Fraction(1)
    return Fraction(_interval_scaled(g, w), g._den ** (2 * len(w) - 2))


def positive_words(g: WeightedGraph, n: int) -> Iterator[Word]:
    """All words of length ``n`` with positive word weight, in lexicographic order."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        yield ()
        return
    out = g._out
    word = [0] * n

    def rec(depth: int) -> Iterator[Word]:
        if depth == n:
            yield tuple(word)
            return
        choices = range(g.vertex_count) if depth == 0 else out[word[depth - 1]]
        for v in choices:
            word[depth] = v
            yield from rec(depth + 1)

    yield from rec(0)


@lru_cache(maxsize=None)
def constraint_edge_classes(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Constraint-graph position-pair sets over all arrival orders of length ``n``.

    Returns ``((pairs, count), ...)`` sorted by ``pairs``, where ``count``
    is the number of arrival orders producing exactly that edge set.  Each
    edge set contains every consecutive pair ``(i, i+1)``, and no pair
    repeats, so the sets are genuine sets.
    """
    counter: dict[tuple[tuple[int, int], ...], int] = {}
    for order in permutations(range(n)):
        present: list[int] = []
        edges: list[tuple[int, int]] = []
        for p in order:
            pos = bisect_left(present, p)
            if pos > 0:
                edges.append((present[pos - 1], p))
            if pos < len(present):
                edges.append((p, present[pos]))
            present.insert(pos, p)
        key = tuple(sorted(edges))
        assert len(set(key)) == len(key)
        counter[key] = counter.get(key, 0) + 1
    return tuple(sorted(counter.items()))


def _digit_arrays(q: int, m: int, dtype) -> list[np.ndarray]:
    idx = np.arange(q ** m, dtype=np.int64)
    return [((idx // (q ** (m - 1 - j))) % q).astype(dtype) for j in range(m)]


def bruteforce_sweep(g: WeightedGraph, max_len: int) -> dict[int, tuple[np.ndarray, int]]:
    """Building counts of *all* words up to ``max_len``, by summing arrival orders.

    For each length ``m`` returns ``(values, scale)`` where
    ``values[word_index] == B(word) * scale`` as integers and the word
    index is the base-``q`` encoding of the word (most significant symbol
    first).  The sum over arrival orders is organized through
    :func:`constraint_edge_classes`, which keeps this an independent route
    from the deletion recurrence.
    """
    q = g.vertex_count
    den = g._den
    maxnum = max(den, max(map(max, g._num)))
    out: dict[int, tuple[np.ndarray, int]] = {}
    for m in range(0, max_len + 1):
        if m <= 1:
            out[m] = (np.ones(q ** m, dtype=np.int64), 1)
            continue
        classes = constraint_edge_classes(m)
        e_max = max(len(pairs) for pairs, _ in classes)
        # int64 suffices below 2^62.  Per word, with every factor (D
        # included) at most M = maxnum: the path product is <= M^(m-1); the
        # class counts sum to m!; and each class's extras times its D
        # padding fill e_max - (m-1) = m-2 slots, so are <= M^(m-2)
        bound = (maxnum ** (m - 1)) * factorial(m) * (maxnum ** (m - 2))
        dtype = np.int64 if bound < 2 ** 62 else object
        digits = _digit_arrays(q, m, np.int64)
        num = np.array(g._num, dtype=dtype)
        pairval: dict[tuple[int, int], np.ndarray] = {}

        def pv(a: int, b: int) -> np.ndarray:
            key = (a, b)
            if key not in pairval:
                pairval[key] = num[digits[a], digits[b]]
            return pairval[key]

        path_pairs = tuple((i, i + 1) for i in range(m - 1))
        path_prod = pv(0, 1).copy()
        for i in range(1, m - 1):
            path_prod = path_prod * pv(i, i + 1)
        # sorted by their extras, classes that share a prefix are adjacent,
        # so only the partial products along the current prefix are kept
        by_extras = []
        for pairs, count in classes:
            extras = tuple(p for p in pairs if p not in path_pairs)
            assert len(extras) == len(pairs) - len(path_pairs)
            by_extras.append((extras, count, e_max - len(pairs)))
        by_extras.sort()
        prev: tuple[tuple[int, int], ...] = ()
        prods = [np.ones(q ** m, dtype=dtype)]
        acc = np.zeros(q ** m, dtype=dtype)
        for extras, count, pad in by_extras:
            keep = 0
            while keep < min(len(prev), len(extras)) and prev[keep] == extras[keep]:
                keep += 1
            del prods[keep + 1:]
            for pair in extras[keep:]:
                prods.append(prods[-1] * pv(*pair))
            prev = extras
            acc += count * (den ** pad) * prods[-1]
        out[m] = (path_prod * acc, den ** e_max)
    return out


def recurrence_sweep(g: WeightedGraph, max_len: int) -> dict[int, tuple[np.ndarray, int]]:
    """Building counts of all words up to ``max_len`` from the memoized kernel.

    Same indexing and scaling conventions as :func:`bruteforce_sweep` (here
    the scale is ``D^(2m-2)``).  Values are exact Python ints in object
    arrays, taken as ``w * R`` over :func:`positive_words` and zero at every
    other index.
    """
    q = g.vertex_count
    out: dict[int, tuple[np.ndarray, int]] = {}
    for m in range(max_len + 1):
        values = np.zeros(q ** m, dtype=object)
        for word in positive_words(g, m):
            idx = 0
            for s in word:
                idx = idx * q + s
            values[idx] = _scaled_building(g, word)
        out[m] = (values, g._den ** max(0, 2 * m - 2))
    return out
