"""Simple separable algebraic extensions of rational function fields.

K(u)[z]/(P) with P monic and separable in z.  Elements are coefficient
tuples (c_0, ..., c_{d-1}) over the base fraction field, representing
c_0 + c_1 z + ... + c_{d-1} z^{d-1}; multiplication reduces modulo P and
inversion runs the extended Euclidean algorithm in the polynomial ring
over the base field.
"""

from __future__ import annotations

from typing import Sequence

from .frac import Frac, FracField
from .ring import Ring, stacked_coordinates


def _poly_trim(p: list) -> list:
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_add(a: list, b: list, F: FracField) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero()
        y = b[i] if i < len(b) else F.zero()
        out.append(x + y)
    return _poly_trim(out)


def _poly_scale(a: list, c: Frac) -> list:
    return _poly_trim([x * c for x in a])


def _poly_mul(a: list, b: list, F: FracField) -> list:
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _poly_trim(out)


def _poly_divmod(a: list, b: list, F: FracField) -> tuple[list, list]:
    a = list(a)
    q = [F.zero()] * max(len(a) - len(b) + 1, 0)
    inv_lead = b[-1].inverse()
    while len(a) >= len(b) and a:
        c = a[-1] * inv_lead
        d = len(a) - len(b)
        q[d] = q[d] + c
        for i, y in enumerate(b):
            a[d + i] = a[d + i] - c * y
        _poly_trim(a)
    return _poly_trim(q), a


def _poly_gcd_ext(a: list, b: list, F: FracField) -> tuple[list, list, list]:
    """(g, s, t) with s a + t b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [F.one()], []
    t0, t1 = [], [F.one()]
    while r1:
        q, r = _poly_divmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(q, s1, F), -F.one()), F)
        t0, t1 = t1, _poly_add(t0, _poly_scale(_poly_mul(q, t1, F), -F.one()), F)
    return r0, s0, t0


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

    def is_separable(self) -> bool:
        d = _poly_trim([c * self.base.from_int(i) for i, c in enumerate(self.minpoly)][1:])
        g, _, _ = _poly_gcd_ext(self.minpoly, d, self.base)
        return len(g) == 1

    # ----------------------------------------------------------- elements
    def element(self, coeffs: Sequence[Frac]) -> tuple:
        coeffs = list(coeffs)
        if len(coeffs) > self.degree:
            coeffs = self._reduce(coeffs)
        while len(coeffs) < self.degree:
            coeffs.append(self.base.zero())
        return tuple(coeffs)

    def _reduce(self, coeffs: list) -> list:
        _, r = _poly_divmod(list(coeffs), self.minpoly, self.base)
        return r + [self.base.zero()] * (self.degree - len(r))

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
        prod = _poly_mul(_poly_trim(list(a)), _poly_trim(list(b)), self.base)
        return self.element(self._reduce(prod))

    def is_zero(self, a) -> bool:
        return all(x.is_zero() for x in a)

    def inv(self, a):
        p = _poly_trim(list(a))
        if not p:
            raise ZeroDivisionError("inverse of zero in algebraic extension")
        g, s, _ = _poly_gcd_ext(p, self.minpoly, self.base)
        if len(g) != 1:
            raise ZeroDivisionError("element shares a factor with the minimal polynomial")
        return self.element(_poly_scale(s, g[0].inverse()))

    def eq(self, a, b) -> bool:
        return all(x == y for x, y in zip(a, b))

    def hom(self, a, powers, lift):
        """The ring map of the protocol (ring.py) at a: the sum of the
        images of the nonzero base coefficients under base.hom, each times
        the power of the generator's image."""
        T = powers.target
        out = None
        for d, c in enumerate(a):
            if not c.is_zero():
                t = self.base.hom(c, powers, lift)
                if d:
                    t = T.mul(t, powers.power(self.gen_name, d))
                out = t if out is None else T.add(out, t)
        return T.zero() if out is None else out

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
