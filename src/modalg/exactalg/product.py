"""Finite products of a field with componentwise arithmetic.

Elements are tuples of factor elements.  A product of fields is not a field:
an element is a unit iff every component is nonzero, and zero divisors are
exactly the tuples with some (but not all) zero components.
"""

from __future__ import annotations

from .ring import Ring, stacked_coordinates


class ProductField(Ring):
    """The ring F x F x ... x F (count copies of the factor field)."""

    @staticmethod
    def _intern_key(factor, count: int):
        return factor, count

    def __init__(self, factor, count: int):
        if count < 1:
            raise ValueError("product needs at least one factor")
        self.factor = factor
        self.scalars = factor.scalars
        self.count = count

    def element(self, comps) -> tuple:
        comps = tuple(comps)
        if len(comps) != self.count:
            raise ValueError("wrong number of components")
        return comps

    def diagonal(self, c) -> tuple:
        return (c,) * self.count

    def zero(self):
        return self.diagonal(self.factor.zero())

    def one(self):
        return self.diagonal(self.factor.one())

    def const(self, c):
        return self.diagonal(self.factor.const(c))

    def add(self, a, b):
        return tuple(self.factor.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.factor.neg(x) for x in a)

    def mul(self, a, b):
        return tuple(self.factor.mul(x, y) for x, y in zip(a, b))

    def is_zero(self, a) -> bool:
        return all(self.factor.is_zero(x) for x in a)

    def is_unit(self, a) -> bool:
        return all(self.factor.is_unit(x) for x in a)

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("non-unit in product ring")
        return tuple(self.factor.inv(x) for x in a)

    def eq(self, a, b) -> bool:
        return all(self.factor.eq(x, y) for x, y in zip(a, b))

    def to_str(self, a) -> str:
        return "(" + ", ".join(self.factor.to_str(x) for x in a) + ")"

    def factors(self) -> tuple:
        return (self.factor,) * self.count

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        """Componentwise scalar coordinates, concatenated over the factors."""
        return stacked_coordinates(self.factor, len(elems),
                                   ((i, [e[i] for e in elems]) for i in range(self.count)))

    def __repr__(self):
        return f"ProductField({self.factor!r}, {self.count})"
