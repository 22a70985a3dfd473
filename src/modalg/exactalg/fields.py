"""Exact scalar arithmetic: the rationals and prime fields.

Scalars are plain Python values; the field object says how to combine them:

  QQ    -- elements are fractions.Fraction in lowest terms with a positive
           denominator
  GF(p) -- elements are ints in [0, p), the canonical residues

Every coefficient container (polynomials, fractions, series, ...) stores a
reference to its field and routes arithmetic through it, so the same code
runs over QQ and over GF(p) without change.  Both follow the ring protocol
of ring.py as the prime fields: they are their own scalars, and const(c)
brings an int (or, for QQ, a Fraction) into the field.  Operations take
elements in these forms and never re-canonicalize them, so a raw int goes
through const before PolyRing.poly or another raw-term constructor stores
it.  Contexts are interned, so GF is PrimeField itself and GF(p) is GF(p)
for every call.

QQ computes on the integers of its operands, not through the operators of
Fraction: sums and products take the gcd steps of Henrici (1956; Knuth,
TAOCP vol. 2, 4.5.1), as fractions._add and fractions._mul do, so every
result is already in lowest terms with a positive denominator and is built
without renormalizing, by object.__new__(Fraction) and setting its two
slots _numerator and _denominator (as Fraction._from_coprime_ints does on
CPython 3.12).  That is the slot layout of Fraction on CPython 3.10 to 3.13;
tests/test_exactalg.py::test_fraction_slot_layout pins it, so a change of
layout fails there instead of producing wrong values.  GF(p) compares its
canonical residues directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ring import Ring


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without renormalizing."""
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


_ZERO, _ONE = Fraction(0), Fraction(1)


class _ScalarField(Ring):
    """What the prime fields QQ and GF(p) share: each is its own scalar
    field, so a scalar is its own single coordinate."""

    @property
    def scalars(self):
        return self

    def to_str(self, a) -> str:
        return str(a)

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        return [()], [[c] for c in elems]


class RationalField(_ScalarField):
    """The field of rational numbers; elements are Fraction in lowest terms."""

    char = 0

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n: int) -> Fraction:
        return _fraction(n, 1)

    def const(self, c) -> Fraction:
        return c if type(c) is Fraction else Fraction(c)

    def add(self, a, b):
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = math.gcd(da, db)
        if g == 1:
            return _fraction(na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = math.gcd(t, g)  # every common factor of t and s * db divides g
        return _fraction(t // g2, s * (db // g2))

    def neg(self, a):
        return _fraction(-a._numerator, a._denominator)

    def mul(self, a, b):
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g1, g2 = math.gcd(na, db), math.gcd(nb, da)
        return _fraction((na // g1) * (nb // g2), (da // g2) * (db // g1))

    def inv(self, a):
        n, d = a._numerator, a._denominator
        if not n:
            raise ZeroDivisionError("inverse of zero in QQ")
        return _fraction(d, n) if n > 0 else _fraction(-d, -n)

    def is_zero(self, a) -> bool:
        return not a._numerator

    def eq(self, a, b) -> bool:
        return a._numerator == b._numerator and a._denominator == b._denominator

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

    const = from_int

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return not a

    def eq(self, a, b) -> bool:
        return a == b

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()
GF = PrimeField

