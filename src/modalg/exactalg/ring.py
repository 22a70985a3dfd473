"""The ring protocol: what every coefficient context answers.

A context says how to combine the plain values that are its elements
(Fraction, int, MPoly, Frac, tuples, dicts).  The contexts are RationalField
(QQ), PrimeField (GF(p)), PolyRing, FracField, AlgebraicField, ProductField
and NilAlgebra, and each of them provides:

  char, scalars        the characteristic, and the prime field (QQ or GF(p))
                       the context is a vector space over;
  vars, gens()         the names of the generators over the coefficient ring
                       and the generators themselves (none for a prime
                       field);
  zero(), one(), from_int(n), const(c)
                       constants; const(c) embeds a value c of scalars;
  add, sub, neg, mul, inv, div
  is_zero, is_unit, is_nilpotent, eq
  to_str(a)            the text of an element;
  scalar_coordinates(elems)
                       (labels, rows): coordinates over scalars on a common
                       finite basis, one row per element, such that a
                       scalar-linear combination of elems vanishes iff the
                       same combination of rows does.  A prime field returns
                       each element as its own single coordinate;
  factors()            the factor rings of a direct product, whose elements
                       are tuples of components; () for any other context.

Ring supplies the methods that follow from the others: from_int through
const, sub through add and neg, div through inv, eq through sub, gens
through vars, and the field and reduced-ring answers of is_unit and
is_nilpotent.  A context overrides them only where it computes them
differently.

NilAlgebra.inv, and PolyRing.inv over a local coefficient ring such as
NilAlgebra, invert a unit plus nilpotent terms by one geometric series,
unit_plus_nilpotent_inverse; a PolyRing unit is one unit monomial with a
unit coefficient plus terms with nilpotent coefficients.

Contexts are interned: constructing a context with equal arguments returns
the same object, so contexts compare by identity and a mismatch check is one
`is` test.  A new context validates its arguments when it is built, and a
construction that raises is not remembered.  A context class names what
identifies it in _intern_key, which takes the arguments of __init__ and
returns a hashable key.
"""

from __future__ import annotations

_contexts: dict = {}


class _Interned(type):
    """Metaclass of the contexts: one object per class and key."""

    def __call__(cls, *args, **kwargs):
        key = (cls, cls._intern_key(*args, **kwargs))
        ctx = _contexts.get(key)
        if ctx is None:
            ctx = _contexts[key] = super().__call__(*args, **kwargs)
        return ctx


class Ring(metaclass=_Interned):
    """Base of the coefficient contexts; see the module docstring."""

    vars: tuple = ()

    @staticmethod
    def _intern_key():
        return ()

    @property
    def char(self) -> int:
        return self.scalars.char

    def from_int(self, n: int):
        return self.const(self.scalars.from_int(n))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def is_unit(self, a) -> bool:
        return not self.is_zero(a)

    def is_nilpotent(self, a) -> bool:
        return self.is_zero(a)

    def gens(self) -> list:
        return [self.var(v) for v in self.vars]

    def factors(self) -> tuple:
        return ()


def power(x, n: int, one):
    """x ** n for an integer n >= 0 by binary powering; one() is called only
    for n == 0.  The product starts from x itself and squares only below the
    top bit of n, so x ** 1 makes no product and x ** n makes at most
    2 * floor(log2 n) of them."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return one()
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


def unit_plus_nilpotent_inverse(ring, unit_inv, nil):
    """(u + nil)^-1 for a unit u with inverse unit_inv and a nilpotent nil:
    unit_inv * sum_k (-unit_inv * nil)^k, up to the first zero power."""
    h = ring.neg(ring.mul(unit_inv, nil))
    out = term = ring.one()
    while True:
        term = ring.mul(term, h)
        if ring.is_zero(term):
            return ring.mul(out, unit_inv)
        out = ring.add(out, term)


def stacked_coordinates(ring, count: int, parts) -> tuple[list, list[list]]:
    """scalar_coordinates of count elements given by their components in
    ring: parts yields (key, comps) with comps[j] the component of element
    j at key.  Labels are (key, label) pairs, and each row concatenates the
    coordinate rows of its components over the parts."""
    labels: list = []
    rows: list[list] = [[] for _ in range(count)]
    for key, comps in parts:
        sub_labels, sub_rows = ring.scalar_coordinates(comps)
        labels.extend((key, lab) for lab in sub_labels)
        for row, sub in zip(rows, sub_rows):
            row.extend(sub)
    return labels, rows
