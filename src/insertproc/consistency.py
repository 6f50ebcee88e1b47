"""Window-bounded verification of extension consistency.

A weighted graph has *consistent extensions* when there are positive
constants ``c_n`` with

    ``sum_v B(x v) = sum_v B(v x) = c_n B(x)``    for every word ``x`` of length ``n``.

This is exactly consistency of the normalized word distributions
``P_n ~ B`` and hence existence of the stationary insertion process.  The
verifier works with the reduced count ``R``: for positive-weight words the
condition is equivalent to

    ``sum_v R(x v) w(x_n, v) = sum_v w(v, x_1) R(v x) = c_n R(x)``

and for zero-weight words it holds identically through ``B = w * R``, so
only positive-weight words (walks in the positive edge graph) are
enumerated.  All comparisons are exact cross-multiplications of scaled
integers; the constant at each length is anchored at the lexicographically
least positive word.

The sweep runs on the twin quotient.  Twin vertices (same row and column
of weights) give every pair the same weight, so ``R`` and both extension
sums depend only on the word of class representatives (the least vertex
of each class).  Only those *class words* are enumerated, their
extensions ranging over every vertex: replacing each symbol by its
representative keeps every sum and never raises a word
lexicographically, so the anchor and the first failing word are class
words.  Of those, only the least of each orbit under the size-keeping
automorphisms of the class graph is checked
(:func:`insertproc.buildings._least_words`, on the orbit walk of
:func:`insertproc.buildings._chains`); a relabeling keeps both
sums, so a word fails with the least of its orbit, and reports are those
of the sweep over every word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

from .buildings import (Word, reduced_count, _check_bound, _least_words,
                        _prefix_row, _scaled_reduced)
from .graphs import WeightedGraph, _size, complete_graph, uniform_weight

__all__ = [
    "ConsistencyCounterexample",
    "ConsistencyReport",
    "ConsistencyNotVerified",
    "check_consistency",
    "pair_power_sum",
    "check_pair_power_invariance",
    "uniform_defect",
    "kite_obstruction",
]


class ConsistencyNotVerified(ValueError):
    """Raised when an operation requires a verified-consistent graph."""


@dataclass(frozen=True)
class ConsistencyCounterexample:
    """A word whose extension ratio deviates from the anchored constant."""

    word: Word
    side: str  # "left" or "right"
    observed: Fraction
    expected: Fraction


@dataclass(frozen=True)
class ConsistencyReport:
    """Result of :func:`check_consistency` up to a window bound.

    ``constants`` maps each checked length ``n`` to the extension constant
    ``c_n`` anchored at the lexicographically least positive word of that
    length.  ``degenerate_at`` flags the first length with no
    positive-weight word at all; verification stops there because the
    defining identities are vacuous from then on.
    """

    max_len: int
    constants: dict[int, Fraction] = field(default_factory=dict)
    counterexample: Optional[ConsistencyCounterexample] = None
    degenerate_at: Optional[int] = None

    @property
    def verified(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        cx = None
        if self.counterexample is not None:
            cx = {
                "word": list(self.counterexample.word),
                "side": self.counterexample.side,
                "observed": str(self.counterexample.observed),
                "expected": str(self.counterexample.expected),
            }
        return {
            "max_len": self.max_len,
            "verified": self.verified,
            "constants": {str(n): str(c) for n, c in sorted(self.constants.items())},
            "counterexample": cx,
            "degenerate_at": self.degenerate_at,
        }


def check_consistency(g: WeightedGraph, max_len: int) -> ConsistencyReport:
    """Verify the extension identities for every length ``n < max_len``.

    Scans the positive-weight class words that are the least of their
    orbits, in lexicographic order; the first word whose right or left
    extension sum deviates (by exact cross-multiplication) from the
    anchored constant is reported.  A word fails with its whole orbit, so
    this is the witness of the sweep over every word.  Refused
    when ``q**max_len`` exceeds the enumeration bound, with ``q`` the
    vertex count of ``g``, not its class count.
    """
    max_len = _size(max_len, "window bound", 2)
    _check_bound(g.vertex_count, max_len)
    den2 = g._den * g._den
    num, into = g._num, g._in
    constants: dict[int, Fraction] = {}
    for n in range(1, max_len):
        anchor_right = None
        for word in _least_words(g, n):
            base = _scaled_reduced(g, word)
            # the word's row holds every right extension, twins alike; a
            # link is zero off the positive out-row
            right = sum(map(mul, num[word[-1]], _prefix_row(g, word)))
            first = word[0]
            left = sum([num[u][first] * _scaled_reduced(g, (u,) + word)
                        for u in into[first]])
            if anchor_right is None:
                anchor_right, anchor_base = right, base
                expected = Fraction(right, base * den2)
                # a zero anchor sum means no positive extension exists;
                # the next length will be flagged degenerate instead of
                # recording a non-positive constant here
                if right != 0:
                    constants[n] = expected
            target = anchor_right * base
            if right * anchor_base != target:
                side, total = "right", right
            elif left * anchor_base != target:
                side, total = "left", left
            else:
                continue
            return ConsistencyReport(
                max_len, constants,
                ConsistencyCounterexample(
                    word, side, Fraction(total, base * den2), expected))
        if anchor_right is None:
            return ConsistencyReport(max_len, constants, None, degenerate_at=n)
    return ConsistencyReport(max_len, constants, None, None)


def pair_power_sum(g: WeightedGraph, i: int, j: int, n: int) -> Fraction:
    """Common-neighborhood power sum ``sum_v w(i,v)^ceil(n/2) w(j,v)^floor(n/2)``.

    Uses the convention ``0^0 = 1``, so for odd exponent splits the factor
    with exponent 0 never suppresses a term.
    """
    i, j = g._vertex(i), g._vertex(j)
    if i == j:
        raise ValueError("the two vertices must be distinct")
    n = _size(n, "exponent index", 1)
    a = (n + 1) // 2
    b = n // 2
    total = Fraction(0)
    for v in range(g.vertex_count):
        wa = g.weight(i, v) ** a if a else Fraction(1)
        if wa == 0:
            continue
        wb = g.weight(j, v) ** b if b else Fraction(1)
        total += wa * wb
    return total


def check_pair_power_invariance(
        g: WeightedGraph, max_n: int
) -> tuple[bool, Optional[tuple[int, tuple[int, int], tuple[int, int], Fraction, Fraction]]]:
    """Check that the pair power sums do not depend on the vertex pair.

    Requires a loopless graph with every off-diagonal weight positive.
    Returns ``(True, None)`` when for each ``n <= max_n`` the sum is the
    same over all ordered pairs of distinct vertices, else ``(False,
    (n, reference_pair, offending_pair, reference_value, value))``.
    """
    max_n = _size(max_n, "window bound", 1)
    if not g.is_loopless():
        raise ValueError("pair power sums require a loopless graph")
    n_v = g.vertex_count
    for i in range(n_v):
        for j in range(n_v):
            if i != j and g.weight(i, j) == 0:
                raise ValueError("pair power sums require positive off-diagonal weights")
    if n_v < 2:
        raise ValueError("need at least two vertices")
    for n in range(1, max_n + 1):
        ref = pair_power_sum(g, 0, 1, n)
        for i in range(n_v):
            for j in range(n_v):
                if i == j or (i, j) == (0, 1):
                    continue
                val = pair_power_sum(g, i, j, n)
                if val != ref:
                    return False, (n, (0, 1), (i, j), ref, val)
    return True, None


def uniform_defect(q: int, w) -> Fraction:
    """Consistency defect of the weighted complete graph at window three.

    On the complete graph with ``q`` vertices and uniform weight ``w``,
    the difference between the reduced extension ratios of the words
    ``aba`` and ``cba`` (summed over the positive extensions of the shared
    final symbol) equals ``w (w - 1) (q/2 - (w+1)/(w+2))``; it vanishes
    exactly when ``w = 1``.  The closed form is evaluated and, as a
    self-check, recomputed from the reduced counts directly.
    """
    q = _size(q, "vertex count", 3)
    wf = Fraction(w)
    if wf <= 0:
        raise ValueError("the uniform weight must be positive")
    closed = wf * (wf - 1) * (Fraction(q, 2) - Fraction(wf + 1, wf + 2))
    g = complete_graph(q, wf)
    aba = (0, 1, 0)
    cba = (2, 1, 0)
    r_aba = reduced_count(g, aba)
    r_cba = reduced_count(g, cba)
    direct = Fraction(0)
    for v in g.out_neighbors(0):
        direct += (reduced_count(g, aba + (v,)) / r_aba
                   - reduced_count(g, cba + (v,)) / r_cba)
    if direct != closed:
        raise RuntimeError(
            f"closed form {closed} disagrees with direct evaluation {direct}")
    return closed


def kite_obstruction(g: WeightedGraph, kite: tuple[int, int, int, int]
                     ) -> tuple[Fraction, Fraction]:
    """Evaluate the two sides of the extension identity broken by a kite.

    For an induced kite ``(a, b, c, d)`` (triangle ``a b c``, pendant ``d``
    attached to ``a``) in a uniform-weight graph, consider

        ``lhs = sum_v [R(b a b v) - R(d a b v)] w(b, v)``

    Under consistency this must equal ``c_3 [R(b a b) - R(d a b)]``, whose
    bracket vanishes because ``w(b, b) = w(d, b) = 0``; but the ``v = c``
    term alone contributes ``2 w^3 > 0``.  Returns ``(lhs, rhs)`` with
    ``rhs`` computed from the verified window-3 constant when one exists
    and as 0 otherwise; ``lhs > rhs`` certifies the inconsistency.
    """
    report = uniform_weight(g)
    if not report.is_uniform:
        raise ValueError("kite obstruction applies to uniform-weight graphs")
    a, b, c, d = map(g._vertex, kite)
    if len({a, b, c, d}) != 4:
        raise ValueError("kite must consist of four distinct vertices")
    if not (g.weight(a, b) > 0 and g.weight(b, c) > 0 and g.weight(a, c) > 0):
        raise ValueError(f"vertices {a}, {b}, {c} do not form a triangle")
    if not (g.weight(d, a) > 0 and g.weight(d, b) == 0 and g.weight(d, c) == 0):
        raise ValueError(f"vertex {d} is not a pendant attached to {a} only")
    lhs = Fraction(0)
    for v in range(g.vertex_count):
        wbv = g.weight(b, v)
        if wbv == 0:
            continue
        lhs += (reduced_count(g, (b, a, b, v))
                - reduced_count(g, (d, a, b, v))) * wbv
    bracket = reduced_count(g, (b, a, b)) - reduced_count(g, (d, a, b))
    window = check_consistency(g, 4)
    c3 = window.constants.get(3, Fraction(0)) if window.verified else Fraction(0)
    return lhs, c3 * bracket
