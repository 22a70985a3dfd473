"""Exact base arithmetic: prime fields and rationals, sparse multivariate
polynomials, fraction fields, products of fields, and small matrices."""

from .algext import AlgebraicField
from .fields import GF, QQ, PrimeField, RationalField, binom, scalar_field
from .frac import Frac, FracField
from .linalg import Echelon, Matrix, kernel_basis, restriction_kernel, rref, solve_linear
from .poly import MPoly, PolyRing, evaluate, grlex_key, poly_gcd
from .product import ProductField

__all__ = [
    "AlgebraicField",
    "GF",
    "QQ",
    "PrimeField",
    "RationalField",
    "binom",
    "scalar_field",
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
]
