"""Exact marginals and samplers for the insertion process.

The length-``n`` marginal assigns each word probability proportional to
its building count.  Two samplers are provided: an inverse-transform
sampler driven by the exact marginal table, and the stepwise insertion
sampler that grows a word one symbol at a time, choosing each (location,
vertex) pair with probability proportional to the product of edge weights
the insertion creates.  The two laws provably agree on uniform-weight
complete multipartite graphs; :func:`insertion_marginal_gap` reports their
exact total-variation distance on any graph rather than assuming
agreement.

Bounds: :func:`marginal`, :func:`sample_exact` and :func:`insertion_law`
enumerate words of the window and are refused, at entry, when ``q**n``
exceeds the enumeration bound of :mod:`insertproc.buildings`;
:func:`sample_insertion` grows one word and enumerates nothing, so its
window is unbounded.

Randomness contract: all samplers consume a Mersenne Twister stream
(:class:`random.Random`) seeded with the given integer, and convert each
64-bit draw ``u`` against integer masses with running totals ``c_i`` and
total ``T`` into the first index with ``c_i * 2**64 > u * T``.  For
integers that is ``c_i > (u * T) >> 64``, so one bisection finds it; both
samplers form that target inline from one ``getrandbits(64)`` per draw.
Identical seeds therefore reproduce identical batches on any platform;
each probability is realized to within ``2**-64``.  The seed passes the
size check: a bool, float, negative or ``None`` seed, which the generator
would hash, take the absolute value of or draw from the system, is
refused.

An insertion step draws in two stages and lands on the same index as one
draw over the flat list of all (location, vertex) pairs.  The weight a
gap offers depends only on the two symbols that flank it, so the gap is
drawn first from the per-gap totals, and the vertex from that gap's own
running totals, against the same target less the totals of the gaps
before it.  A flat running total is the gaps-before total plus the
in-gap one, so both stages pick the first flat index past the target.
Gap rows are plain tuples that one builder, ``_gap_row``, forms on first
use into a dict kept for one draw and keyed by the twin classes of the
flanks, so a step looks its three rows up with no call;
:func:`insertion_law` reads rows from the same builder, keyed by the
flanks themselves.

Exact laws are carried on integers.  :func:`insertion_law` keeps an
integer numerator and denominator per word; shares that reach a word
over one denominator add their numerators, so on graphs whose step
totals do not depend on the word every word of a step shares one
denominator, the product of the step totals.  A ``Fraction`` is built
per word only when the law is returned.  :func:`insertion_marginal_gap`
and :func:`stationarity_check` compare those numerators and the scaled
building counts by integer cross-multiplication.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import itemgetter, mul
from random import Random
from typing import Mapping, Sequence

from .buildings import Word, BuildOrder, _check_bound, _scaled_buildings
from .graphs import WeightedGraph, _integer, _size

__all__ = [
    "Marginal",
    "SampleBatch",
    "GapIndependenceResult",
    "DeadEndError",
    "marginal",
    "stationarity_check",
    "sample_exact",
    "sample_insertion",
    "insertion_law",
    "insertion_marginal_gap",
    "empirical_gap_independence",
]

class DeadEndError(RuntimeError):
    """Raised when every candidate insertion has weight zero."""


@dataclass(frozen=True)
class Marginal:
    """Exact word distribution of one window length.

    ``table`` maps each positive-count word to its probability; words
    outside the table have probability zero.  ``normalizer`` is the total
    building count over all words of this length.
    """

    length: int
    table: Mapping[Word, Fraction]
    normalizer: Fraction

    def probability(self, word: Sequence[int]) -> Fraction:
        """Probability of ``word``; bools and non-integer symbols are refused."""
        word = tuple(word)
        try:
            key = tuple(map(_integer, word))
        except TypeError:
            raise ValueError(f"word {word!r} has non-integer symbols") from None
        return self.table.get(key, Fraction(0))


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of sampled words."""

    graph: WeightedGraph
    length: int
    seed: int
    words: tuple[Word, ...]

    def to_ndjson(self) -> str:
        return "\n".join(json.dumps(list(w)) for w in self.words)


def _check_window(g: WeightedGraph, n: int) -> int:
    n = _size(n, "window length", 1)
    _check_bound(g.vertex_count, n)
    return n


def _scaled_masses(g: WeightedGraph, n: int) -> dict[Word, int]:
    """Positive scaled building counts ``B * D^(2n-2)`` of the length-``n`` words.

    In lexicographic order; exactly the positive-weight words have
    positive building count.  ``n`` is a window :func:`_check_window`
    took.
    """
    masses = _scaled_buildings(g, n)
    if not masses:
        raise ValueError("no word of this length has positive building count")
    return masses


def marginal(g: WeightedGraph, n: int) -> Marginal:
    """Exact length-``n`` marginal of the insertion process.

    Refused when ``q**n`` exceeds the enumeration bound.
    """
    n = _check_window(g, n)
    masses = _scaled_masses(g, n)
    total = sum(masses.values())
    # many words share a mass, and a Fraction is immutable, so the table
    # shares one probability per distinct mass
    probs = {v: Fraction(v, total) for v in set(masses.values())}
    table = {w: probs[v] for w, v in masses.items()}
    return Marginal(n, table, Fraction(total, g._den ** (2 * n - 2)))


def stationarity_check(g: WeightedGraph, n: int) -> tuple[bool, Fraction]:
    """Compare both one-symbol marginalizations of ``P_{n+1}`` with ``P_n``.

    Returns ``(consistent, defect)`` where ``defect`` is the largest
    absolute difference over words and sides; exact zero when consistent.
    With ``P_n = M / T`` and ``P_{n+1} = M' / T'`` over integers, each
    difference is ``|D T - M T'| / (T T')``, ``D`` a sum of ``M'``.
    Both windows are checked before either is swept.
    """
    n = _check_window(g, n)
    _check_window(g, n + 1)
    masses = _scaled_masses(g, n)
    longer = _scaled_masses(g, n + 1)
    total, longer_total = sum(masses.values()), sum(longer.values())
    drop_last: dict[Word, int] = {}
    drop_first: dict[Word, int] = {}
    for word, mass in longer.items():
        drop_last[word[:-1]] = drop_last.get(word[:-1], 0) + mass
        drop_first[word[1:]] = drop_first.get(word[1:], 0) + mass
    defect = 0
    for w in masses.keys() | drop_last.keys() | drop_first.keys():
        base = masses.get(w, 0) * longer_total
        for side in (drop_last, drop_first):
            defect = max(defect, abs(side.get(w, 0) * total - base))
    defect = Fraction(defect, total * longer_total)
    return defect == 0, defect


def sample_exact(g: WeightedGraph, n: int, seed: int, count: int) -> SampleBatch:
    """IID draws from the exact marginal, deterministic given the seed.

    Refused, as :func:`marginal` is, when ``q**n`` exceeds the enumeration
    bound, also for an empty batch.
    """
    count = _size(count, "sample count")
    n = _check_window(g, n)
    seed = _size(seed, "seed")
    if count == 0:
        return SampleBatch(g, n, seed, ())
    masses = _scaled_masses(g, n)
    words = list(masses)
    cumulative = list(accumulate(masses.values()))
    total = cumulative[-1]
    getrandbits = Random(seed).getrandbits
    out = tuple([words[bisect_right(cumulative, (getrandbits(64) * total) >> 64)]
                 for _ in range(count)])
    return SampleBatch(g, n, seed, out)


def _gap_row(rows: dict, g: WeightedGraph, a: int, b: int) -> tuple:
    """Build the row of the gap between flanks ``a`` and ``b`` into ``rows``.

    ``q`` stands for an absent flank at an end of the word; the empty
    word's one gap is ``(q, q)``, which admits every vertex with equal
    weight.  The row ``(total, vertices, cumulative, weights)`` holds the
    vertices ``v`` with ``l(a, v) * l(v, b) > 0`` and those products,
    scaled by the common denominator squared so that end insertions (one
    edge factor, the absent flank counting ``D``) and interior insertions
    (two factors) are comparable integers, with their running totals and
    their sum.  The products are formed against the column of ``b`` by
    ``map``, ``filter`` and ``compress``.  Twins have equal rows and
    columns, so the sampler passes the twin classes of the flanks and
    twins share rows.  Each call keeps its own ``rows``: a word reaches
    few flank pairs, and all ``(q + 1)**2`` rows would not fit at large
    ``q``.
    """
    q, num, den = g.vertex_count, g._num, g._den
    lefts = num[a] if a < q else repeat(den, q)
    rights = map(itemgetter(b), num) if b < q else repeat(den, q)
    products = list(map(mul, lefts, rights))
    weights = list(filter(None, products))
    cumulative = list(accumulate(weights))
    row = rows[a, b] = (cumulative[-1] if weights else 0,
                        list(compress(range(q), products)), cumulative, weights)
    return row


def sample_insertion(g: WeightedGraph, n: int, seed: int) -> tuple[Word, BuildOrder]:
    """Grow one word of length ``n`` by weighted insertions.

    At each step a (location, vertex) pair is chosen with probability
    proportional to the product of the edge weights the insertion creates;
    end insertions carry one factor, interior insertions two.  Returns the
    word together with the build order it traced (``order[t]`` is the
    final position of the ``t``-th arrival).

    The step draws the gap from the per-gap totals, then the vertex from
    that gap's row (see the module docstring); an insertion splits one gap
    total into two.
    """
    n = _size(n, "word length")
    seed = _size(seed, "seed")
    getrandbits = Random(seed).getrandbits
    end = g.vertex_count
    twin = g._twin or range(end)
    rows: dict = {}
    word: list[int] = []
    arrival: list[int] = []
    totals = [_gap_row(rows, g, end, end)[0]]
    for step in range(n):
        cumulative = list(accumulate(totals, initial=0))
        total = cumulative[-1]
        if not total:
            raise DeadEndError(
                f"no insertion has positive weight at length {step}")
        target = (getrandbits(64) * total) >> 64
        j = bisect_right(cumulative, target) - 1
        a = twin[word[j - 1]] if j else end
        b = twin[word[j]] if j < step else end
        _, vertices, running, _ = rows[a, b]
        v = vertices[bisect_right(running, target - cumulative[j])]
        c = twin[v]
        totals[j:j + 1] = ((rows.get((a, c)) or _gap_row(rows, g, a, c))[0],
                           (rows.get((c, b)) or _gap_row(rows, g, c, b))[0])
        word.insert(j, v)
        arrival.insert(j, step)
    order = [0] * n
    for pos, t in enumerate(arrival):
        order[t] = pos
    return tuple(word), tuple(order)


def _law_pairs(g: WeightedGraph, n: int) -> dict[Word, tuple[int, int]]:
    """Integer form of :func:`insertion_law`: word to ``(numerator, denominator)``.

    A word of probability ``a / b`` and total ``t`` passes ``a * weight``
    over ``b * t`` to each child.  Shares that reach a child over one
    denominator add their numerators; others meet at the lcm of the two
    denominators.  Where the totals of a step do not depend on the word,
    as on uniform complete multipartite graphs, every word of the step
    has the same denominator.  A denominator common to all words of a
    step would be the lcm of their totals, which on tables whose totals
    vary outgrows the words' own denominators many times over.
    """
    n = _size(n, "word length")
    _check_bound(g.vertex_count, n)
    end = (g.vertex_count,)
    rows: dict = {}
    states: dict[Word, tuple[int, int]] = {(): (1, 1)}
    for _ in range(n):
        nxt: dict[Word, tuple[int, int]] = {}
        get = nxt.get
        for word, (num, den) in states.items():
            gaps = [rows.get(flanks) or _gap_row(rows, g, *flanks)
                    for flanks in zip(end + word, word + end)]
            total = sum([row[0] for row in gaps])
            if not total:
                raise DeadEndError(
                    f"no insertion has positive weight from word {word}")
            den *= total
            for j, (_, vertices, _, weights) in enumerate(gaps):
                left, right = word[:j], word[j:]
                for v, wgt in zip(vertices, weights):
                    child = left + (v,) + right
                    share = num * wgt
                    got = get(child)
                    if got is None:
                        nxt[child] = share, den
                    elif got[1] == den:
                        nxt[child] = got[0] + share, den
                    else:
                        m = math.lcm(got[1], den)
                        nxt[child] = got[0] * (m // got[1]) + share * (m // den), m
        states = nxt
    return states


def insertion_law(g: WeightedGraph, n: int) -> dict[Word, Fraction]:
    """Exact distribution of :func:`sample_insertion` outputs at length ``n``.

    Dynamic program over growing words, reading the gap rows the sampler
    draws from.  It carries an integer numerator and denominator per word
    and builds a ``Fraction`` per word only at the end; the probabilities
    sum to one.  Refused when ``q**n`` exceeds the enumeration bound.
    """
    return {w: Fraction(a, b) for w, (a, b) in _law_pairs(g, n).items()}


def insertion_marginal_gap(g: WeightedGraph, n: int) -> Fraction:
    """Exact total-variation distance between the two length-``n`` laws.

    With law ``a / b`` and marginal ``M / T`` over integers, the distance
    is ``sum |a T - M b| / (2 b T)``; the terms are summed as integers per
    denominator ``b``.  The marginal's words outside the law add their
    ``M / (2 T)``, which is ``T`` less the masses met, over ``2 T``.
    """
    n = _check_window(g, n)
    pairs = _law_pairs(g, n)
    masses = _scaled_masses(g, n)
    total = outside = sum(masses.values())
    sums: dict[int, int] = {}
    for w, (a, b) in pairs.items():
        m = masses.get(w, 0)
        outside -= m
        sums[b] = sums.get(b, 0) + abs(a * total - m * b)
    return (sum(Fraction(s, b) for b, s in sums.items()) + outside) / (2 * total)


def _chi2_sf(x: float, df: int) -> float:
    """Survival function of chi-square with integer ``df`` degrees of freedom.

    Closed forms with ``h = x/2``: for even ``df = 2m`` the Poisson tail
    ``sum_{i<m} e^-h h^i / i!``; for odd ``df = 2m+1``
    ``erfc(sqrt h) + sum_{i=1..m} e^-h h^(i-1/2) / Gamma(i+1/2)``.  Every
    term is positive, and each is taken through its logarithm so that
    ``e^-h`` may underflow while the term does not.  ``df < 1`` gives NaN,
    as in ``scipy.stats.chi2.sf``.
    """
    if df < 1 or math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = x / 2
    log_h = math.log(h)
    if df % 2 == 0:
        return min(1.0, math.fsum(math.exp(i * log_h - h - math.lgamma(i + 1))
                                  for i in range(df // 2)))
    terms = [math.erfc(math.sqrt(h))]
    terms.extend(math.exp((i - 0.5) * log_h - h - math.lgamma(i + 0.5))
                 for i in range(1, df // 2 + 1))
    return min(1.0, math.fsum(terms))


@dataclass(frozen=True)
class GapIndependenceResult:
    """Chi-square test of a symbol pair against the product of exact marginals."""

    statistic: float
    p_value: float
    df: int
    gap: int
    sample_size: int

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "df": self.df,
            "gap": self.gap,
            "sample_size": self.sample_size,
        }


def empirical_gap_independence(batch: SampleBatch, gap: int) -> GapIndependenceResult:
    """Test independence of the symbols at positions ``0`` and ``gap + 1``.

    The null distribution of the pair is the product of the exact
    single-symbol marginals.  A one-symbol word has one building, of
    weight 1, so ``P_1`` is uniform on every graph and the null is uniform
    over the ``q*q`` pairs.  It is a simple hypothesis, so the statistic
    is referred to chi-square with ``q*q - 1`` degrees of freedom.
    """
    gap = _size(gap, "gap")
    if batch.length < gap + 2:
        raise ValueError(
            f"batch words of length {batch.length} are too short for gap {gap}")
    if not batch.words:
        raise ValueError("empty batch")
    q = batch.graph.vertex_count
    a, b = 0, gap + 1
    counts = Counter((w[a], w[b]) for w in batch.words)
    n = len(batch.words)
    expected = float(Fraction(1, q * q)) * n
    stat = 0.0
    for u in range(q):
        for v in range(q):
            observed = counts.get((u, v), 0)
            stat += (observed - expected) ** 2 / expected
    df = q * q - 1
    p_value = _chi2_sf(stat, df)
    return GapIndependenceResult(stat, p_value, df, gap, n)
