"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values; the field object says how to combine them:

  QQ    -- elements are fractions.Fraction (always in lowest terms,
           positive denominator; both invariants are guaranteed by Fraction)
  GF(p) -- elements are ints in [0, p)

Every coefficient container (polynomials, fractions, series, ...) stores a
reference to its field and routes arithmetic through it, so the same code
runs over QQ and over GF(p) without change.  Both follow the ring protocol
of ring.py as the prime fields: they are their own scalars.  Contexts are
interned, so GF is PrimeField itself and GF(p) is GF(p) for every call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import Ring


class _ScalarField(Ring):
    """What the prime fields QQ and GF(p) share: each is its own scalar
    field, so a scalar embeds as itself and is its own single coordinate."""

    @property
    def scalars(self):
        return self

    def const(self, c):
        return c

    def to_str(self, a) -> str:
        return str(a)

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        return [()], [[c] for c in elems]


class RationalField(_ScalarField):
    """The field of rational numbers; elements are Fraction."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def eq(self, a, b) -> bool:
        return a == b

    def __repr__(self):
        return "QQ"


class PrimeField(_ScalarField):
    """The field with p elements; elements are ints reduced into [0, p)."""

    @staticmethod
    def _intern_key(p: int):
        return p

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
GF = PrimeField


def scalar_field(char: int):
    """Field of the given characteristic: QQ for 0, GF(p) otherwise."""
    if char == 0:
        return QQ
    return GF(char)


def _lucas(i: int, j: int, p: int) -> int:
    # C(i, j) mod p as a product of digit binomials in base p.
    r = 1
    while i or j:
        di, dj = i % p, j % p
        if dj > di:
            return 0
        r = (r * math.comb(di, dj)) % p
        i //= p
        j //= p
    return r


def binom(i, j, char: int = 0):
    """Binomial coefficient C(i, j) in the scalar field of characteristic char.

    i and j may be nonnegative ints or equal-length sequences of them; a
    sequence is reduced to the product of componentwise coefficients.  In
    characteristic p the value is computed by Lucas' theorem on base-p digits.
    """
    if char != 0 and (char < 2 or any(char % q == 0 for q in range(2, int(math.isqrt(char)) + 1))):
        raise ValueError(f"characteristic must be 0 or prime, got {char}")
    fld = scalar_field(char)
    if isinstance(i, int):
        pairs = [(i, j)]
    else:
        if len(i) != len(j):
            raise ValueError("mismatched multi-index lengths")
        pairs = list(zip(i, j))
    r = fld.one()
    for ii, jj in pairs:
        if ii < 0 or jj < 0:
            raise ValueError("binomial arguments must be nonnegative")
        if jj > ii:
            return fld.zero()
        if char == 0:
            r = fld.mul(r, Fraction(math.comb(ii, jj)))
        else:
            c = _lucas(ii, jj, char)
            if c == 0:
                return fld.zero()
            r = fld.mul(r, c)
    return r
