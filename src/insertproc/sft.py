"""Shifts of finite type and their de Bruijn insertion processes.

A loopless shift of finite type is the set of bi-infinite sequences over
``0 .. q-1`` whose every length-``n`` window lies in an allowed set that
contains no constant tuple.  Its de Bruijn graph has one vertex per
allowed window and a unit-weight edge wherever two windows overlap on
``n - 1`` symbols, so paths in the graph are exactly longer legal words.
The insertion process of that graph, projected through the overlaps,
yields a stationary process supported inside the shift; because the graph
can never contain a directed triangle, the projected process is never
finitely dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .buildings import Word
from .graphs import WeightedGraph, _integer, _size, has_directed_triangle
from .process import sample_exact

__all__ = [
    "ShiftOfFiniteType",
    "LRReport",
    "proper_coloring_windows",
    "de_bruijn",
    "de_bruijn_windows",
    "check_lr",
    "project",
    "sample_sft",
    "not_finitely_dependent_certificate",
    "sft_to_json_dict",
    "sft_from_json_dict",
]


@dataclass(frozen=True)
class ShiftOfFiniteType:
    """Alphabet size, window length and the allowed window set.

    Construction enforces looplessness (no constant window) and a
    nonempty allowed set.  ``allowed`` may be given as any iterable of
    windows; each is validated, and only then is the set formed.
    """

    q: int
    n: int
    allowed: frozenset[Word]

    def __post_init__(self):
        # numpy integers are stored as plain ints
        object.__setattr__(self, "q", _size(self.q, "alphabet size", 1))
        object.__setattr__(self, "n", _size(self.n, "window length", 1))
        windows = []
        for t in map(tuple, self.allowed):
            if len(t) != self.n:
                raise ValueError(f"window {t!r} does not have length {self.n}")
            # checked before the set is formed, where (0, True) would merge
            # into (0, 1); numpy integers are stored as plain ints
            try:
                t = tuple(map(_integer, t))
            except TypeError:
                raise ValueError(f"window {t!r} has non-integer symbols: "
                                 "symbols must be ints, not bools") from None
            if not all(0 <= s < self.q for s in t):
                raise ValueError(f"window {t!r} has symbols outside the alphabet")
            if len(set(t)) == 1:
                raise ValueError(f"constant window {t!r} is not allowed")
            windows.append(t)
        if not windows:
            raise ValueError("allowed window set must be nonempty")
        object.__setattr__(self, "allowed", frozenset(windows))

    @classmethod
    def from_windows(cls, q: int, windows) -> "ShiftOfFiniteType":
        windows = [tuple(w) for w in windows]
        if not windows:
            raise ValueError("allowed window set must be nonempty")
        return cls(q, len(windows[0]), windows)


def proper_coloring_windows(q: int) -> ShiftOfFiniteType:
    """The shift of proper ``q``-colorings: adjacent symbols differ."""
    q = _size(q, "alphabet size", 2)
    return ShiftOfFiniteType.from_windows(
        q, [(a, b) for a in range(q) for b in range(q) if a != b])


def de_bruijn_windows(s: ShiftOfFiniteType) -> tuple[Word, ...]:
    """Vertex labels of the de Bruijn graph, in lexicographic order."""
    return tuple(sorted(s.allowed))


def de_bruijn(s: ShiftOfFiniteType) -> WeightedGraph:
    """De Bruijn graph: unit-weight edge where windows overlap on ``n - 1`` symbols.

    Vertex ``i`` corresponds to ``de_bruijn_windows(s)[i]``.  Each window
    is linked to the windows that begin with its last ``n - 1`` symbols,
    so the cost does not depend on the alphabet size.
    """
    windows = de_bruijn_windows(s)
    by_prefix: dict[Word, list[int]] = {}
    for j, w in enumerate(windows):
        by_prefix.setdefault(w[:-1], []).append(j)
    pairs = {(i, j): 1 for i, w in enumerate(windows)
             for j in by_prefix.get(w[1:], ())}
    return WeightedGraph.from_weights(len(windows), pairs)


@dataclass(frozen=True)
class LRReport:
    """Outcome of the window extension-count check.

    ``K`` is the common extension count when it exists.  ``violation``
    names the first offending sub-window: its kind (``"prefix"`` for a
    window prefix with a deviant left-extension count, ``"suffix"`` for a
    window suffix with a deviant right-extension count), the sub-window
    itself, the observed count and the expected constant.
    """

    is_constant: bool
    K: Optional[int]
    violation: Optional[dict]


def check_lr(s: ShiftOfFiniteType) -> LRReport:
    """Check that window extension counts are one constant in both directions.

    For each allowed window, count how many allowed windows end with its
    leading ``n - 1`` symbols (left extensions of its prefix) and how many
    begin with its trailing ``n - 1`` symbols (right extensions of its
    suffix).  The de Bruijn insertion process has consistent extensions
    exactly when all these counts agree on one constant ``K``.  Computed
    directly over the window set, independently of the graph machinery.
    """
    left_count: dict[Word, int] = {}
    right_count: dict[Word, int] = {}
    prefixes: set[Word] = set()
    suffixes: set[Word] = set()
    for t in s.allowed:
        prefix, suffix = t[:-1], t[1:]
        prefixes.add(prefix)
        suffixes.add(suffix)
        left_count[suffix] = left_count.get(suffix, 0) + 1
        right_count[prefix] = right_count.get(prefix, 0) + 1
    k: Optional[int] = None
    for kind, domain, counts in (("prefix", prefixes, left_count),
                                 ("suffix", suffixes, right_count)):
        for sub in sorted(domain):
            value = counts.get(sub, 0)
            if k is None:
                k = value
            elif value != k:
                return LRReport(False, None, {
                    "kind": kind,
                    "window": list(sub),
                    "count": value,
                    "expected": k,
                })
    return LRReport(True, k, None)


def project(path: Sequence[Sequence[int]]) -> Word:
    """Stitch a window path into a word through the ``n - 1`` overlaps."""
    tuples = [tuple(t) for t in path]
    if not tuples:
        raise ValueError("cannot project an empty path")
    n = len(tuples[0])
    for pos, (a, b) in enumerate(zip(tuples, tuples[1:])):
        if len(b) != n:
            raise ValueError(f"window at position {pos + 1} has mismatched length")
        if a[1:] != b[:-1]:
            raise ValueError(
                f"windows at positions {pos} and {pos + 1} do not overlap: "
                f"{a} vs {b}")
    out = list(tuples[0])
    for t in tuples[1:]:
        out.append(t[-1])
    return tuple(out)


def sample_sft(s: ShiftOfFiniteType, window: int, seed: int,
               count: int) -> tuple[Word, ...]:
    """Sample projected words of length ``window + n - 1`` from the shift.

    Draws window paths from the exact insertion marginal of the de Bruijn
    graph and stitches them; requires the extension-count condition with
    ``K >= 1`` so that the marginals exist.
    """
    window = _size(window, "window length", 1)
    report = check_lr(s)
    if not report.is_constant:
        raise ValueError(
            f"window extension counts are not constant: {report.violation}")
    if window > 1 and report.K == 0:
        raise ValueError("extension count K = 0: no paths of this length exist")
    graph = de_bruijn(s)
    windows = de_bruijn_windows(s)
    batch = sample_exact(graph, window, seed, count)
    return tuple(project([windows[v] for v in path]) for path in batch.words)


def not_finitely_dependent_certificate(s: ShiftOfFiniteType) -> dict:
    """Certificate that the projected insertion process is never finitely dependent.

    Scans the de Bruijn graph for a directed triangle.  Consecutive edges
    force overlapping windows, so a triangle would force a constant
    window, which looplessness excludes; the scan result is included so
    the certificate is machine-checkable.
    """
    graph = de_bruijn(s)
    witness = has_directed_triangle(graph)
    if witness is not None:
        # unreachable for a valid loopless shift; kept as a hard guard
        raise RuntimeError(
            f"directed triangle {witness} found in a de Bruijn graph of a "
            f"loopless shift")
    return {
        "verdict": "not_finitely_dependent",
        "alphabet": s.q,
        "window_length": s.n,
        "windows": len(s.allowed),
        "directed_triangle": None,
        "triples_scanned": len(s.allowed) ** 3,
        "statement": ("the de Bruijn graph has no directed triangle (a "
                      "triangle forces a constant window, excluded by "
                      "looplessness), and a finitely dependent insertion "
                      "process requires one; hence the projected process is "
                      "not k-dependent for any k"),
    }


def sft_to_json_dict(s: ShiftOfFiniteType) -> dict:
    return {
        "q": s.q,
        "n": s.n,
        "allowed": [list(t) for t in sorted(s.allowed)],
    }


def sft_from_json_dict(data: dict) -> ShiftOfFiniteType:
    if not isinstance(data, dict):
        raise ValueError("shift document must be a JSON object")
    try:
        q = data["q"]
        n = data["n"]
        allowed = data["allowed"]
    except (KeyError, TypeError) as exc:
        raise ValueError("shift document needs 'q', 'n' and 'allowed'") from exc
    if not (isinstance(allowed, list)
            and all(isinstance(t, list) for t in allowed)):
        raise ValueError("'allowed' must be a list of windows")
    return ShiftOfFiniteType(q, n, allowed)

