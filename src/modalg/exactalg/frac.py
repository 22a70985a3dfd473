"""Fraction fields of polynomial rings (rational function fields).

A Frac is a pair num/den of MPoly over the same pure polynomial ring (no
inverse pairs) that keeps two invariants:

  * num and den have no common polynomial factor;
  * the leading coefficient of den under graded lex order is 1 (zero is
    stored as 0/1).

With both in place, two fractions are equal as field elements exactly when
their stored representations coincide, so equality is a dict check.

Only Frac(field, num, den) (and FracField.frac) normalizes arbitrary input,
with one full gcd.  Arithmetic starts from operands that already keep the
invariants and takes only the gcds that can be nontrivial, after Henrici
(1956; Knuth, TAOCP vol. 2, 4.5.1):

  * FracField interns its zero() and one(), and x + zero() and x * one()
    return x itself, with no arithmetic; const(1), a one-term product equal
    to 1, and a negation or inverse equal to 1 return the interned one(), so
    that products by them do too;
  * a fraction whose numerator and monic denominator both have one term is
    c*x^v for the Laurent exponent v = e - f of c*x^e / x^f, and on two such
    operands both operations are exponent arithmetic and at most one scalar
    operation: the product is c*c' x^(v + v'), the sum (c + c') x^v when
    v = v' and c x^v + c' x^v' otherwise, each put over the monic monomial
    x^-low, with low the componentwise minimum of 0 and its exponents;
  * otherwise a/b * c/d divides out gcd(a, d) and gcd(c, b), each skipped
    when one of its arguments is constant; both quotients of b and d stay
    monic because poly_gcd returns monic gcds;
  * the gcd of two one-term polynomials c*x^e and c'*x^e' is the monomial
    x^min(e, e') (componentwise minimum), so cancelling them shifts both
    exponents by that minimum, with no gcd call and no division;
  * a/b + c/d is (a + c)/1 or (a*d + c)/d when a denominator is 1.
    Otherwise let g = gcd(b, d): when g is 1, (a*d + c*b)/(b*d) is already
    reduced; else, with t = a*(d/g) + c*(b/g), every common factor of t and
    (b/g)*d divides g, so the sum is (t/g2) / ((b/g)*(d/g2)) for
    g2 = gcd(t, g);
  * negation, inverse (rescaled by the numerator's leading coefficient) and
    from_poly take no gcd.

The results are built by Frac._reduced, which trusts its input and
normalizes nothing.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Sequence

from .poly import MPoly, PolyRing, poly_gcd
from .ring import Ring, power


def _cancel(p: MPoly, q: MPoly) -> tuple[MPoly, MPoly]:
    """Nonzero p and q divided by their gcd, which poly_gcd makes monic;
    p and q themselves when that gcd is 1, with no gcd taken when p or q
    is constant.  The gcd of two one-term polynomials is x^low for the
    componentwise minimum low of their exponents, so each is shifted by
    -low directly."""
    if p.is_const() or q.is_const():
        return p, q
    if len(p.terms) == 1 and len(q.terms) == 1:
        (ep, cp), = p.terms.items()
        (eq, cq), = q.terms.items()
        low = tuple(map(min, ep, eq))
        if not any(low):
            return p, q
        return (MPoly(p.ring, {tuple(a - b for a, b in zip(ep, low)): cp}),
                MPoly(q.ring, {tuple(a - b for a, b in zip(eq, low)): cq}))
    g = poly_gcd(p, q)
    if g.is_const():
        return p, q
    return p.exact_div(g), q.exact_div(g)


@lru_cache(maxsize=1024)
def _laurent_exponents(ea, eb, ec, ed, product: bool) -> tuple:
    """The exponent arithmetic of ea/eb * ec/ed (product) or ea/eb + ec/ed
    for one-term fractions: the terms' Laurent exponents, va + vc or va and
    vc for va = ea - eb and vc = ec - ed, each shifted by -low, followed by
    the denominator's exponent -low, for low the componentwise minimum of 0
    and the terms' exponents.  Memoized: a chain meets few distinct exponent
    tuples (at most 94 keys in a pass of any bench workload, with 94-98 % of
    the calls repeating one), and a lookup costs a tenth of building the
    tuples.  The bound, ten times the largest such key set, caps the memory
    where many distinct exponents occur."""
    va, vc = tuple(map(operator.sub, ea, eb)), tuple(map(operator.sub, ec, ed))
    terms = [tuple(map(operator.add, va, vc))] if product else [va, vc]
    low = tuple(map(min, *terms, (0,) * len(ea)))
    return (*(tuple(map(operator.sub, v, low)) for v in terms), tuple(map(operator.neg, low)))


class FracField(Ring):
    """Field of fractions of field[vars] over a prime field; elements are
    Frac."""

    @staticmethod
    def _intern_key(field, variables: Sequence[str]):
        return field, tuple(variables)

    def __init__(self, field, variables: Sequence[str]):
        self.scalars = field
        self.poly_ring = PolyRing(field, variables)
        self.vars = self.poly_ring.vars
        self._zero = Frac._reduced(self, self.poly_ring.zero(), self.poly_ring.one())
        self._one = Frac._reduced(self, self.poly_ring.one(), self.poly_ring.one())

    def frac(self, num: MPoly, den: MPoly) -> "Frac":
        return Frac(self, num, den)

    def from_poly(self, p: MPoly) -> "Frac":
        if p.ring is not self.poly_ring:
            raise ValueError("polynomial ring mismatch")
        return Frac._reduced(self, p, self.poly_ring.one())

    def var(self, name: str) -> "Frac":
        return self.from_poly(self.poly_ring.var(name))

    def zero(self) -> "Frac":
        return self._zero

    def one(self) -> "Frac":
        return self._one

    def const(self, c) -> "Frac":
        F = self.scalars
        c = F.const(c)
        return self._one if F.eq(c, F.one()) else self.from_poly(self.poly_ring.scalar(c))

    scalar = const

    def hom(self, f: "Frac", powers, lift):
        """The ring map of the protocol (ring.py) at f: the image of the
        numerator over that of the denominator, with no division when the
        (monic) denominator is 1 or a monomial x^e, whose image is a product
        of cached powers of inverse images."""
        num = self.poly_ring.hom(f.num, powers, lift)
        if len(f.den.terms) != 1:
            return powers.target.div(num, self.poly_ring.hom(f.den, powers, lift))
        (e, _), = f.den.terms.items()
        for name, k in zip(self.vars, e):
            if k:
                num = powers.target.mul(num, powers.power(name, -k))
        return num

    # the ring protocol is Frac's own operators, called with no wrapper frame
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    eq = staticmethod(operator.eq)
    inv = staticmethod(operator.methodcaller("inverse"))
    to_str = staticmethod(str)

    def is_zero(self, a) -> bool:
        return not a.num.terms

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        """Coordinates over the scalar field on the monomials of the
        numerators after clearing denominators: labels are monomials."""
        common = self.poly_ring.one()
        for e in elems:
            g = poly_gcd(common, e.den)
            common = common * e.den.exact_div(g)
        nums = [e.num * common.exact_div(e.den) for e in elems]
        monomials = sorted({exp for p in nums for exp in p.terms})
        zero = self.scalars.zero()
        rows = [[p.terms.get(m, zero) for m in monomials] for p in nums]
        return monomials, rows

    def __repr__(self):
        return f"FracField({self.scalars!r}, {self.vars})"


class Frac:
    """Normalized fraction of polynomials; arithmetic requires equal fields."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FracField, num: MPoly, den: MPoly):
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        self.field = field
        if num.is_zero():
            self.num = field.poly_ring.zero()
            self.den = field.poly_ring.one()
            return
        num, den = _cancel(num, den)
        _, lc = den.leading()
        if not field.scalars.eq(lc, field.scalars.one()):
            c = field.scalars.inv(lc)
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, field: FracField, num: MPoly, den: MPoly) -> "Frac":
        """A fraction from a pair that already keeps both invariants."""
        f = object.__new__(cls)
        f.field = field
        f.num = num
        f.den = den
        return f

    def _check(self, other: "Frac"):
        if self.field is not other.field:
            raise ValueError("fraction field mismatch")

    def __add__(self, other):
        self._check(other)
        field = self.field
        if other is field._zero:
            return self
        if self is field._zero:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a.terms) == len(b.terms) == len(c.terms) == len(d.terms) == 1:
            (ea, ca), = a.terms.items()
            (eb, one), = b.terms.items()  # a monic one-term denominator is x^eb
            (ec, cc), = c.terms.items()
            (ed, _), = d.terms.items()
            e1, e2, bottom = _laurent_exponents(ea, eb, ec, ed, False)
            if e1 == e2:
                F = field.scalars
                s = F.add(ca, cc)
                if F.is_zero(s):
                    return field._zero
                num = {e1: s}
            else:
                num = {e1: ca, e2: cc}
            R = field.poly_ring
            return Frac._reduced(field, MPoly(R, num), MPoly(R, {bottom: one}))
        # a monic denominator is constant exactly when it is 1
        if b.is_const():
            if d.is_const():
                return Frac._reduced(field, a + c, b)
            return Frac._reduced(field, a * d + c, d)
        if d.is_const():
            return Frac._reduced(field, a + c * b, b)
        g = poly_gcd(b, d)
        if g.is_const():
            return Frac._reduced(field, a * d + c * b, b * d)
        b, d = b.exact_div(g), d.exact_div(g)
        t = a * d + c * b
        if t.is_zero():
            return field._zero
        t, g = _cancel(t, g)
        return Frac._reduced(field, t, b * d * g)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        field, num, den = self.field, -self.num, self.den
        if num.terms == field._one.num.terms and den.is_const():
            return field._one
        return Frac._reduced(field, num, den)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        if other is field._one:
            return self
        if self is field._one:
            return other
        a, b, c, d = self.num, self.den, other.num, other.den
        if len(a.terms) == len(b.terms) == len(c.terms) == len(d.terms) == 1:
            (ea, ca), = a.terms.items()
            (eb, one), = b.terms.items()  # a monic one-term denominator is x^eb
            (ec, cc), = c.terms.items()
            (ed, _), = d.terms.items()
            top, bottom = _laurent_exponents(ea, eb, ec, ed, True)
            F, R = field.scalars, field.poly_ring
            s = F.mul(ca, cc)
            if top == bottom and F.eq(s, one):  # both exponents are 0
                return field._one
            return Frac._reduced(field, MPoly(R, {top: s}), MPoly(R, {bottom: one}))
        if a.is_zero() or c.is_zero():
            return field._zero
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return Frac._reduced(field, a * c, b * d)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self) -> "Frac":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero fraction")
        field = self.field
        if self.num.terms == field._one.num.terms and self.den.is_const():
            return field._one
        _, lc = self.num.leading()
        c = field.scalars.inv(lc)
        return Frac._reduced(field, self.den.scale(c), self.num.scale(c))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Frac) or self.field is not other.field:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def key(self):
        return (self.num.key(), self.den.key())

    def __str__(self):
        if self.den.is_const():  # the monic denominator is 1
            return str(self.num)
        n = str(self.num) if len(self.num.terms) == 1 else f"({self.num})"
        d = str(self.den) if len(self.den.terms) == 1 else f"({self.den})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"Frac({self})"
