"""Multivariate polynomials over edge-weight indeterminates.

Indeterminates are ordered symbol pairs, printed as ``w(a,b)``.  The
coefficient field is the exact rationals, monomials are kept in a
canonical sorted form, and equality is literal identity of the normalized
term maps, so "two expressions agree as polynomials" is a zero-cost exact
test.  Used to verify closed forms of the reduced building count for short
generic words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence, Union

from .graphs import _size

Pair = tuple[Hashable, Hashable]
Monomial = tuple[tuple[Pair, int], ...]
Scalar = Union[int, Fraction]

__all__ = [
    "Polynomial",
    "reduced_count_pattern",
    "reduced_count_symbolic",
    "short_word_closed_forms",
]


class Polynomial:
    """Polynomial with rational coefficients in pair indeterminates."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = Fraction(coeff)
                if c != 0:
                    clean[mono] = clean.get(mono, Fraction(0)) + c
        self._terms = {m: c for m, c in clean.items() if c != 0}

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, a: Hashable, b: Hashable) -> "Polynomial":
        return cls({(((a, b), 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in o._terms.items():
            merged[mono] = merged.get(mono, Fraction(0)) + coeff
        return Polynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                powers: dict[Pair, int] = dict(m1)
                for pair, e in m2:
                    powers[pair] = powers.get(pair, 0) + e
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def substitute(self, assignment: Mapping[Pair, Scalar]) -> "Polynomial":
        """Replace some indeterminates by rational values."""
        out = Polynomial()
        for mono, coeff in self._terms.items():
            factor = Fraction(coeff)
            rest: dict[Pair, int] = {}
            for pair, e in mono:
                if pair in assignment:
                    factor *= Fraction(assignment[pair]) ** e
                else:
                    rest[pair] = e
            if factor != 0:
                out = out + Polynomial({tuple(sorted(rest.items())): factor})
        return out

    def evaluate(self, weight: Callable[[Hashable, Hashable], Scalar]
                 | Mapping[Pair, Scalar]) -> Fraction:
        """Evaluate with every indeterminate resolved to a rational."""
        if not callable(weight):
            mapping = weight
            weight = lambda a, b: mapping[(a, b)]  # noqa: E731
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = Fraction(coeff)
            for (a, b), e in mono:
                value *= Fraction(weight(a, b)) ** e
                if value == 0:
                    break
            total += value
        return total

    @staticmethod
    def _mono_key(mono: Monomial) -> tuple:
        flat = []
        for pair, e in mono:
            flat.extend([pair] * e)
        return (len(flat), tuple(repr(p) for p in flat))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for mono in sorted(self._terms, key=self._mono_key):
            coeff = self._terms[mono]
            factors = []
            for (a, b), e in mono:
                v = f"w({a},{b})"
                factors.append(v if e == 1 else f"{v}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def reduced_count_pattern(symbols: Sequence[Hashable]) -> Polynomial:
    """Reduced building count of a word pattern, as a polynomial.

    The word's symbols are formal labels; the result is a polynomial in
    the indeterminates ``w(a, b)`` for the ordered label pairs that the
    deletion recurrence multiplies in.  Evaluating it at a concrete weight
    table reproduces the numeric reduced count of any word with that
    symbol pattern.
    """
    memo: dict[tuple, Polynomial] = {}

    def rec(word: tuple) -> Polynomial:
        m = len(word)
        if m <= 1:
            return Polynomial.constant(1)
        got = memo.get(word)
        if got is not None:
            return got
        total = rec(word[1:]) + rec(word[:-1])
        for i in range(1, m - 1):
            factor = Polynomial.variable(word[i - 1], word[i + 1])
            total = total + factor * rec(word[:i] + word[i + 1:])
        memo[word] = total
        return total

    return rec(tuple(symbols))


def reduced_count_symbolic(n: int, distinct: bool = True) -> Polynomial:
    """Closed form of the reduced count for a generic word of length ``n``.

    With ``distinct`` (the default) the word has ``n`` pairwise distinct
    symbols labeled ``1 .. n`` and the indeterminates are the position
    pairs ``w(i, j)`` with ``j >= i + 2``; substituting the weights of any
    concrete word reproduces its reduced count.  With ``distinct=False``
    the word is a single symbol repeated ``n`` times, giving a univariate
    polynomial in the loop weight ``w(1, 1)``.
    """
    n = _size(n, "word length", 2)
    if n > 6:
        raise ValueError("symbolic closed forms are supported for lengths 2..6")
    pattern = tuple(range(1, n + 1)) if distinct else (1,) * n
    return reduced_count_pattern(pattern)


def short_word_closed_forms() -> dict[int, Polynomial]:
    """Reference closed forms for generic words of lengths 2, 3 and 4.

    Built directly from their published shapes (constants and products),
    independently of the recurrence engine, so comparing them against
    :func:`reduced_count_symbolic` is a two-route identity check.
    """
    v = Polynomial.variable
    forms = {
        2: Polynomial.constant(2),
        3: Polynomial.constant(4) + 2 * v(1, 3),
        4: Polynomial.constant(8)
           + 2 * (v(1, 3) + v(2, 4)) * (Polynomial.constant(3) + v(1, 4)),
    }
    return forms
