"""Exact base arithmetic: prime fields and rationals, sparse multivariate
polynomials, fraction fields, algebraic extensions, products of fields, and
small matrices.

Every coefficient context follows one ring protocol, documented in ring.py:
char and scalars (the prime field it is a vector space over), zero, one,
from_int, const (the embedding of a scalar), the arithmetic add, sub, neg,
mul, inv and div, the tests is_zero, is_unit, is_nilpotent and eq, to_str,
gens() and scalar_coordinates, and for the contexts with named generators
the ring map hom over a GeneratorPowers.  GeneratorPowers.substitute is the
one loop that substitutes images of generators: hom and evaluate (the
generators numbered by position) both run it.  Contexts are interned, so
equal constructions return the same object and contexts compare by identity;
their metaclass Interned is exported for the other interned descriptions.

AlgebraicField (algext.py) and ProductField (product.py) are loaded on first
use: the package answers either name by importing its module on the first
lookup, so a program that never builds an algebraic or a product field never
compiles them.  ``from modalg.exactalg import AlgebraicField``, ``import
modalg.exactalg.algext`` and ``from modalg.exactalg import *`` work as usual.
"""

from .fields import GF, QQ, PrimeField, RationalField
from .frac import Frac, FracField
from .linalg import Echelon, Matrix, kernel_basis, restriction_kernel, rref, solve_linear
from .poly import MPoly, PolyRing, grlex_key, poly_gcd
from .ring import GeneratorPowers, Interned, Ring, evaluate, power

__all__ = [
    "AlgebraicField",
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "Frac",
    "FracField",
    "Echelon",
    "Matrix",
    "kernel_basis",
    "restriction_kernel",
    "rref",
    "solve_linear",
    "MPoly",
    "evaluate",
    "PolyRing",
    "grlex_key",
    "poly_gcd",
    "ProductField",
    "GeneratorPowers",
    "Interned",
    "Ring",
    "power",
]


def __getattr__(name):
    if name == "AlgebraicField":
        from .algext import AlgebraicField as value
    elif name == "ProductField":
        from .product import ProductField as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
