"""Simple separable algebraic extensions of rational function fields.

K(u)[z]/(P) with P monic and separable in z.  Elements are coefficient
tuples (c_0, ..., c_{d-1}) over the base fraction field, representing
c_0 + c_1 z + ... + c_{d-1} z^{d-1}.  A longer coefficient list reduces
modulo P from its top degree down, since z^d = -(p_0 + ... + p_{d-1} z^{d-1});
multiplication is one convolution and that reduction, inversion solves
a x = 1 with one Echelon of the products a z^j, and hom runs
GeneratorPowers.substitute like every other context.
"""

from __future__ import annotations

from typing import Sequence

from .frac import Frac, FracField
from .linalg import Echelon
from .ring import Ring, stacked_coordinates


class AlgebraicField(Ring):
    """The field base[z]/(minpoly); elements are coefficient tuples."""

    @staticmethod
    def _intern_key(base: FracField, gen: str, minpoly: Sequence[Frac]):
        return base, gen, tuple((c.field, c.key()) for c in minpoly)

    def __init__(self, base: FracField, gen: str, minpoly: Sequence[Frac]):
        minpoly = list(minpoly)
        if len(minpoly) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if not minpoly[-1] == base.one():
            raise ValueError("minimal polynomial must be monic")
        self.base = base
        self.scalars = base.scalars
        self.gen_name = gen
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1
        self.vars = base.vars + (gen,)

    # ----------------------------------------------------------- elements
    def element(self, coeffs: Sequence[Frac]) -> tuple:
        """The polynomial with these coefficients, reduced modulo the monic
        minpoly from its top degree down and padded to the degree."""
        c, P, d = list(coeffs), self.minpoly, self.degree
        while len(c) > d:
            lead = c.pop()
            if not lead.is_zero():
                for i in range(d):
                    c[len(c) - d + i] = c[len(c) - d + i] - lead * P[i]
        return tuple(c + [self.base.zero()] * (d - len(c)))

    def from_base(self, c: Frac) -> tuple:
        return self.element([c])

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([self.base.one()])

    def const(self, c):
        return self.from_base(self.base.const(c))

    scalar = const

    def var(self, name: str):
        if name == self.gen_name:
            return self.element([self.base.zero(), self.base.one()])
        return self.from_base(self.base.var(name))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [self.base.zero()] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = prod[i + j] + x * y
        return self.element(prod)

    def is_zero(self, a) -> bool:
        return all(x.is_zero() for x in a)

    def inv(self, a):
        """The solution x of a x = 1 over the columns a z^j, j < degree;
        ZeroDivisionError for 0 and for a zero divisor (when the minpoly is
        reducible), where the columns do not span 1."""
        columns = [a]
        for _ in range(1, self.degree):
            columns.append(self.element([self.base.zero(), *columns[-1]]))
        x = Echelon(self.base, columns).solve(self.one())
        if x is None:
            raise ZeroDivisionError("inverse of zero in algebraic extension" if self.is_zero(a)
                                    else "element shares a factor with the minimal polynomial")
        return tuple(x)

    def eq(self, a, b) -> bool:
        return all(x == y for x, y in zip(a, b))

    def hom(self, a, powers, lift):
        """The ring map of the protocol (ring.py) at a: the nonzero base
        coefficients mapped by base.hom, times the powers of the
        generator's image."""
        return powers.substitute((((d,), c) for d, c in enumerate(a) if not c.is_zero()),
                                 [(self.gen_name, 1)], lambda c: self.base.hom(c, powers, lift))

    def to_str(self, a) -> str:
        parts = []
        for i, c in enumerate(a):
            if c.is_zero():
                continue
            mono = "" if i == 0 else (self.gen_name if i == 1 else f"{self.gen_name}^{i}")
            cs = str(c)
            if mono and cs == "1":
                parts.append(mono)
            elif mono:
                parts.append(f"{cs}*{mono}" if "/" not in cs and "+" not in cs else f"({cs})*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts) if parts else "0"

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        return stacked_coordinates(self.base, len(elems),
                                   ((i, [e[i] for e in elems]) for i in range(self.degree)))

    def __repr__(self):
        return f"AlgebraicField({self.base!r}, {self.gen_name!r}, degree {self.degree})"
