"""Exact scalar arithmetic: dyadic rationals and rational helpers.

Dyadic rationals (a / 2^k) are the coefficient domain of the vector stages;
all metric and norm table values are exact ``fractions.Fraction`` objects.
Nothing in this package ever stores a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable


class ScalarDomainError(ValueError):
    """A scalar that should have been dyadic (denominator a power of two) is not."""


class Dyadic:
    """A dyadic rational num / 2^log2den, kept normalized.

    Normalization invariant: ``num`` is odd, or ``num == 0 and log2den == 0``.
    Arithmetic is exact and closed under +, -, *; comparison is exact.
    """

    __slots__ = ("num", "log2den", "_hash")

    def __init__(self, num: int, log2den: int = 0):
        if log2den < 0:
            raise ScalarDomainError(f"negative denominator exponent {log2den}")
        while num != 0 and num % 2 == 0 and log2den > 0:
            num //= 2
            log2den -= 1
        if num == 0:
            log2den = 0
        self.num = num
        self.log2den = log2den
        self._hash = None

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        den = q.denominator
        k = den.bit_length() - 1
        if den != 1 << k:
            raise ScalarDomainError(f"{q} is not dyadic")
        return cls(q.numerator, k)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse 'p' or 'p/q' with q a power of two."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls.from_fraction(Fraction(int(a), int(b)))
        return cls(int(s))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log2den)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        k = max(self.log2den, other.log2den)
        a = self.num << (k - self.log2den)
        b = other.num << (k - other.log2den)
        return Dyadic(a + b, k)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.log2den)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.log2den + other.log2den)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.log2den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.num == other.num and self.log2den == other.log2den

    def __lt__(self, other: "Dyadic") -> bool:
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other: "Dyadic") -> bool:
        return self.as_fraction() <= other.as_fraction()

    def __gt__(self, other: "Dyadic") -> bool:
        return self.as_fraction() > other.as_fraction()

    def __ge__(self, other: "Dyadic") -> bool:
        return self.as_fraction() >= other.as_fraction()

    def __hash__(self) -> int:  # kept from the first call: most arithmetic results are never hashed
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.log2den))
        return h

    def __bool__(self) -> bool:
        return self.num != 0

    def __repr__(self) -> str:
        if self.log2den == 0:
            return f"Dyadic({self.num})"
        return f"Dyadic({self.num}/{1 << self.log2den})"

    def __str__(self) -> str:
        if self.log2den == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.log2den}"


DY_ONE = Dyadic(1)


def dyadic_range(max_num: int, log2den: int) -> tuple[Dyadic, ...]:
    """The set D_k as an explicit tuple: a/2^k for a in [-m, m]."""
    return tuple(Dyadic(a, log2den) for a in range(-max_num, max_num + 1))


def full_scalar_set(k: int) -> tuple[Dyadic, ...]:
    """D_k = {a/2^k : a in [-2^(2k), 2^(2k)]}; D_1 has 9 members."""
    return dyadic_range(1 << (2 * k), k)


def common_denominator(values: Iterable[Fraction]) -> int:
    return lcm(*(v.denominator for v in values))


def fraction_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
