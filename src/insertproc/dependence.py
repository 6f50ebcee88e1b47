"""Window-bounded verification of k-dependence of the insertion process.

For a graph with verified-consistent extensions, the stationary insertion
process is k-dependent exactly when there are positive constants
``c_{n,m}`` with

    ``sum_{W in V^k} B(x W y) = c_{n,m} B(x) B(y)``

for all words ``x`` of length ``n`` and ``y`` of length ``m``.  The checker
enumerates positive-weight words within a window, anchors each constant at
the lexicographically least positive pair, and compares every other pair
by exact integer cross-multiplication.  Pairs with a zero-weight word hold
trivially: every building links every consecutive pair, so each of their
stitched words has building count zero.

A pair's gap sum has two routes.  The sweep walks the middles on the
twin quotient.  Twin vertices (same row and column of weights) give every
pair the same weight, so ``B(x)`` and every gap sum depend only on the
words of class representatives (the least vertex of each class).  The
sweep therefore takes ``x`` and ``y`` among these *class words* only, and
a middle ``W`` among class words weighted by ``prod s(W_i)``, the sizes
of its classes.  Left words are further reduced modulo the automorphisms
of the class graph that keep class sizes (each lifts to a
weight-preserving vertex relabeling, under which the identity is
invariant; see :class:`insertproc.buildings._Orbits`, which searches
them one step at a time and never lists them): the orbit walk
:func:`insertproc.buildings._chains` lists only the least left words of
their orbits, and it walks the middles too.  With ``B = w * R``,
the pair weights ``w(x) w(y)`` divide out of both sides of the identity,
so each stitched word contributes its middle's links times ``R(x W y)``
on the per-graph reduced-count memo, which the sweep over all right
words and middles shares; the middles in one orbit of the maps that fix
``x`` read the rows of the least of them (:func:`_middles`).  A single pair
(:func:`gap_sum`, each constant's anchor, and the re-check of a witness)
is one chart of the interval DP of :mod:`insertproc.buildings` on the
graph itself, with the ``k`` middle positions free, so it walks no
middles.  The sweep reports the first failing pair it meets, as
:func:`insertproc.consistency.check_consistency` reports the first
failing word.  That pair is the least failing pair over every word, so
reports do not depend on the quotient or the symmetry reduction: the
failing pairs are closed under twin substitution and under the
size-keeping automorphisms, a representative never raises a pair
lexicographically, and the left words kept are, in lexicographic order,
the least of their orbits.  A witness's lhs is recomputed by the chart
before it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .buildings import (Word, building_count, _CHART_BOUND, _MIDDLE_BOUND,
                        _as_word, _chains, _check_bound, _interval_scaled,
                        _least_words, _orbits, _Orbits, _scaled_building,
                        _scaled_reduced, _walks)
from .consistency import (ConsistencyNotVerified, ConsistencyReport,
                          check_consistency)
from .graphs import WeightedGraph, _size, has_directed_triangle

__all__ = [
    "DependenceCounterexample",
    "DependenceReport",
    "MinKResult",
    "gap_sum",
    "check_k_dependence",
    "min_k_search",
    "triangle_necessity",
]

@dataclass(frozen=True)
class DependenceCounterexample:
    """A pair of words violating the gap-sum identity.

    ``expected`` is the anchored value ``c_{n,m} B(x) B(y)``; it is
    ``None`` when the anchor itself produced constant zero, which already
    contradicts the required positivity.
    """

    x: Word
    y: Word
    lhs: Fraction
    expected: Optional[Fraction]
    reason: str = "ratio-mismatch"


@dataclass(frozen=True)
class DependenceReport:
    """Result of :func:`check_k_dependence` on a bounded window."""

    k: int
    max_left: int
    max_right: int
    constants: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    counterexample: Optional[DependenceCounterexample] = None

    @property
    def verified(self) -> bool:
        return self.counterexample is None

    def to_json_dict(self) -> dict:
        cx = None
        if self.counterexample is not None:
            cx = {
                "x": list(self.counterexample.x),
                "y": list(self.counterexample.y),
                "lhs": str(self.counterexample.lhs),
                "expected": (None if self.counterexample.expected is None
                             else str(self.counterexample.expected)),
                "reason": self.counterexample.reason,
            }
        return {
            "k": self.k,
            "max_left": self.max_left,
            "max_right": self.max_right,
            "verified": self.verified,
            "constants": {f"{n},{m}": str(c)
                          for (n, m), c in sorted(self.constants.items())},
            "counterexample": cx,
        }


def _middles(orbits: _Orbits, x: Word,
             k: int) -> list[tuple[Word, int, int, Optional[Sequence[int]]]]:
    """``(x c, weight, last, pi)`` for each class middle ``W`` of length ``k``.

    Middles are the positive class chains out of the orbit-least left
    word ``x``, walked by :func:`insertproc.buildings._chains` under the
    maps that fix every class of ``x``.  ``weight`` multiplies the links
    from ``x[-1]`` through ``W``, each times the size of the class it
    enters (``orbits.links``), and ``last`` is the symbol before the
    right word.  ``pi`` (``None`` for the identity) takes ``W`` to ``c``,
    the least middle of its orbit under those maps.  A symmetry keeps
    every count, so ``R(x W y) = R(x c pi(y))``: a whole orbit of middles
    reads the rows of one ``x c``, and every sum is the same as over the
    rows of ``x W``.
    """
    steps, step = orbits.steps, orbits.step
    fixed = orbits.root
    for b in x:
        if fixed is None:
            break
        fixed = (steps.get((fixed, b)) or step(fixed, b))[2]
    a, links = x[-1], orbits.links
    return [(x + c, weight, w[-1] if k else a, pi) for w, weight, c, pi in
            _chains(orbits, orbits.out, links, k, orbits.out[a], links[a],
                    fixed, None)]


def _reduced_gap_sum(g: WeightedGraph, terms: list[tuple], y: Word) -> int:
    """``sum_W B(x W y) / (w(x) w(y))``, scaled, over the middles of ``x``.

    A stitched word's pair weights are ``x``'s, the middle's links, the
    link into ``y`` and ``y``'s; the first and last factors are left out,
    and each term is the rest times ``R(x W y) = R(x c pi(y))`` on the
    memo (see :func:`_middles`).  A middle whose last symbol has zero
    weight to ``y[0]`` is skipped.
    """
    num = g._num
    first = y[0]
    total = 0
    for xc, weight, last, pi in terms:
        f = num[last][first]
        if f:
            total += weight * f * _scaled_reduced(
                g, xc + (y if pi is None else tuple([pi[s] for s in y])))
    return total


def _gap_chart(g: WeightedGraph, x: Word, y: Word, k: int) -> int:
    """``sum_W B(x W y)`` scaled by ``D^(2(n+k+m)-2)``, as one chart."""
    free = tuple(range(g.vertex_count))
    return _interval_scaled(g, [(s,) for s in x] + [free] * k
                            + [(s,) for s in y])


def gap_sum(g: WeightedGraph, x: Sequence[int], y: Sequence[int], k: int) -> Fraction:
    """Exact ``sum_{W in V^k} B(x W y)``, as one chart with ``k`` free positions.

    Refused when the chart's ``len(x) + len(y) + k*q`` states exceed the
    chart bound, before any table is allocated.
    """
    k = _size(k, "gap length")
    xw = _as_word(g, x)
    yw = _as_word(g, y)
    for name, w in (("x", xw), ("y", yw)):
        if not w:
            raise ValueError(f"{name} must have length at least 1")
    states = len(xw) + len(yw) + k * g.vertex_count
    if states > _CHART_BOUND:
        raise ValueError(
            f"chart bound exceeded: {states} states > {_CHART_BOUND}")
    n_total = len(xw) + k + len(yw)
    return Fraction(_gap_chart(g, xw, yw, k), g._den ** (2 * n_total - 2))


def _check_window(g: WeightedGraph, max_left: int, max_right: int
                  ) -> tuple[int, int, int]:
    """Validate a window; returns its two sides and the consistency window it needs."""
    max_left = _size(max_left, "left window bound", 1)
    max_right = _size(max_right, "right window bound", 1)
    need = max(max_left, max_right) + 1
    _check_bound(g.vertex_count, need)
    return max_left, max_right, need


def check_k_dependence(g: WeightedGraph, k: int, max_left: int = 4,
                       max_right: int = 4, *,
                       consistency: Optional[ConsistencyReport] = None
                       ) -> DependenceReport:
    """Check the gap-``k`` factorization identity on a bounded window.

    Requires extension consistency verified up to
    ``max(max_left, max_right) + 1`` (the identity presupposes the
    stationary process); pass a precomputed report via ``consistency`` to
    skip re-verification; a report that fails raises
    :class:`ConsistencyNotVerified`.  Positive-weight pairs are checked
    exactly.  Zero-weight pairs need no check: every building links every
    consecutive pair, so a zero-weight ``x`` or ``y`` gives every stitched
    word building count zero.  The counterexample, when one exists, is the
    lexicographically least failing pair at the first failing window cell.
    Refused when ``q**(max(max_left, max_right) + 1)`` exceeds the
    enumeration bound or ``q**k`` the middle bound, with ``q`` the vertex
    count of ``g``, not its class count.
    """
    k = _size(k, "gap length")
    max_left, max_right, need = _check_window(g, max_left, max_right)
    _check_bound(g.vertex_count, k, _MIDDLE_BOUND, "gap enumeration")
    if consistency is None:
        consistency = check_consistency(g, need)
    if not consistency.verified:
        cx = consistency.counterexample
        raise ConsistencyNotVerified(
            f"extension consistency fails at word {cx.word} ({cx.side} side): "
            f"{cx.observed} != {cx.expected}")
    if consistency.max_len < need and consistency.degenerate_at is None:
        raise ValueError(
            f"consistency verified only to {consistency.max_len}, need {need}")

    orbits = _orbits(g)
    reps, out = orbits.reps, orbits.out
    den = g._den

    @cache
    def words_of(n: int) -> list[Word]:
        return list(_walks(out, n, reps))

    constants: dict[tuple[int, int], Fraction] = {}
    scale_c = den ** (2 * k + 2)

    # no cell lacks words: cell (1, 1) has every vertex, and a cell passes
    # only with a positive stitched word of length n + k + m, whose
    # prefixes are positive words of every shorter length, which covers
    # the next row and the next column
    for n in range(1, max_left + 1):
        # the least class word is the least of its orbit
        x_reps = list(_least_words(g, n))
        for m in range(1, max_right + 1):
            ys = words_of(m)
            x0, y0 = x_reps[0], ys[0]
            lhs0 = _gap_chart(g, x0, y0, k)
            b_x0 = _scaled_building(g, x0)
            b_y0 = _scaled_building(g, y0)
            constants[(n, m)] = Fraction(lhs0, b_x0 * b_y0 * scale_c)
            if lhs0 == 0:
                return DependenceReport(
                    k, max_left, max_right, constants,
                    DependenceCounterexample(
                        x0, y0, Fraction(0), None, "zero-constant"))
            # B = w * R, and the pair weights w(x) w(y) of a positive pair
            # divide out of both sides
            anchor = b_x0 * b_y0
            r_ys = [_scaled_reduced(g, y) for y in ys]
            for x in x_reps:
                terms = _middles(orbits, x, k)
                rhs_factor = lhs0 * _scaled_reduced(g, x)
                for y, r_y in zip(ys, r_ys):
                    if _reduced_gap_sum(g, terms, y) * anchor == rhs_factor * r_y:
                        continue
                    lhs = Fraction(_gap_chart(g, x, y, k),
                                   den ** (2 * (n + k + m) - 2))
                    expected = (constants[(n, m)] * building_count(g, x)
                                * building_count(g, y))
                    if lhs == expected:
                        raise RuntimeError(
                            f"pair {x}, {y} fails on the memoized reduced "
                            f"count but the interval DP gives lhs == expected "
                            f"== {lhs}")
                    return DependenceReport(
                        k, max_left, max_right, constants,
                        DependenceCounterexample(x, y, lhs, expected))
    return DependenceReport(k, max_left, max_right, constants, None)


@dataclass(frozen=True)
class MinKResult:
    """Outcome of the minimal-gap search."""

    found: Optional[int]
    reports: dict[int, DependenceReport]


def min_k_search(g: WeightedGraph, max_k: int, max_left: int = 4,
                 max_right: int = 4) -> MinKResult:
    """Smallest gap ``k <= max_k`` passing :func:`check_k_dependence`.

    Every gap from 0 to ``max_k`` is checked independently until one
    verifies; no monotonicity is assumed.  The bounds of
    :func:`check_k_dependence` are enforced at ``max_k`` before any gap runs.
    Consistency is verified once and its report passed to every gap, so a
    failure raises :class:`ConsistencyNotVerified` as that function does.
    """
    max_k = _size(max_k, "gap bound")
    max_left, max_right, need = _check_window(g, max_left, max_right)
    _check_bound(g.vertex_count, max_k, _MIDDLE_BOUND, "gap enumeration")
    consistency = check_consistency(g, need)
    reports: dict[int, DependenceReport] = {}
    for k in range(0, max_k + 1):
        report = check_k_dependence(g, k, max_left, max_right,
                                    consistency=consistency)
        reports[k] = report
        if report.verified:
            return MinKResult(k, reports)
    return MinKResult(None, reports)


def triangle_necessity(g: WeightedGraph) -> dict:
    """Certificate from the directed-triangle scan.

    A finitely dependent insertion process forces a directed triangle, so
    a triangle-free scan certifies that no gap makes the process finitely
    dependent; a found triangle is merely inconclusive.
    """
    witness = has_directed_triangle(g)
    n = g.vertex_count
    if witness is None:
        return {
            "verdict": "not_finitely_dependent",
            "directed_triangle": None,
            "vertices": n,
            "triples_scanned": n ** 3,
            "statement": ("exhaustive scan found no triple (a, b, c) with "
                          "w(a,b) w(b,c) w(a,c) > 0; a finitely dependent "
                          "insertion process requires one, so this graph's "
                          "insertion process is not k-dependent for any k"),
        }
    return {
        "verdict": "inconclusive",
        "directed_triangle": list(witness),
        "vertices": n,
        "triples_scanned": n ** 3,
        "statement": ("a directed triangle exists; its presence is necessary "
                      "but not sufficient for finite dependence"),
    }
