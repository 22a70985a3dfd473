"""Arithmetic on sparse term dicts, shared by every sparse type of the library.

A term dict maps a key to a coefficient of a ring context.  The key is an
exponent tuple for polynomials, series and the nilpotent test algebras, a
sorted tuple of (symbol, exponent) pairs for differential polynomials, and a
pair of exponent tuples for the tensor square of a Hopf algebra.  The
invariant: every stored coefficient is nonzero in its context, so the zero
element is the empty dict.  The context supplies add(a, b), mul(a, b) and
is_zero(a), and to_str(a) for printing; OPERATORS is the context of
coefficients that are values with +, * and is_zero().

mul(a, b, ring, combine) multiplies term by term: combine(k1, k2) returns the
key of the product of the monomials k1 and k2, or None when truncation drops
that product.  A combine is built once per context (add_keys, degree_bound,
a PolyRing's reducing combine), never per call, because almost every product
the library forms is one monomial times one monomial.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add as _add
from operator import methodcaller, mul as _mul


def accumulate(out: dict, items, ring) -> dict:
    """Add the (key, coefficient) pairs of items into out, in place, and
    return out; a key whose sum is zero is removed.  The coefficients of
    items must be nonzero."""
    radd, is_zero = ring.add, ring.is_zero
    for k, c in items:
        if k in out:
            s = radd(out[k], c)
            if is_zero(s):
                del out[k]
            else:
                out[k] = s
        else:
            out[k] = c
    return out


def add(a: dict, b: dict, ring) -> dict:
    """The sum of two term dicts, as a new dict."""
    return accumulate(dict(a), b.items(), ring)


def mul(a: dict, b: dict, ring, combine) -> dict:
    """The product of two term dicts, summed in the order of the pairs (the
    terms of a outer, those of b inner).  One term times one term, the
    common case, is a single key and coefficient product."""
    if len(a) == 1 and len(b) == 1:
        (k1, c1), = a.items()
        (k2, c2), = b.items()
        k = combine(k1, k2)
        if k is None:
            return {}
        c = ring.mul(c1, c2)
        return {} if ring.is_zero(c) else {k: c}
    out: dict = {}
    radd, rmul, is_zero = ring.add, ring.mul, ring.is_zero
    b_items = b.items()
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = combine(k1, k2)
            if k is None:
                continue
            c = rmul(c1, c2)
            if k in out:
                s = radd(out[k], c)
                if is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            elif not is_zero(c):
                out[k] = c
    return out


def add_keys(k1: tuple, k2: tuple) -> tuple:
    """Product key of two exponent tuples: their sum."""
    return tuple(map(_add, k1, k2))


@lru_cache(maxsize=None)
def degree_bound(bound: int):
    """The combine of exponent tuples that drops products of total degree
    above bound."""
    def combine(k1, k2):
        k = tuple(map(_add, k1, k2))
        return k if sum(k) <= bound else None

    return combine


def format_terms(items, ring, render) -> str:
    """Print terms given in print order as a signed sum.

    render(key) is the monomial ("" for the unit monomial); a coefficient is
    printed by ring.to_str and parenthesized when it is itself a sum."""
    parts = []
    for key, c in items:
        mono = render(key)
        cs = ring.to_str(c)
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append(f"-{mono}")
        else:
            if "+" in cs or "-" in cs[1:] or " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def power_str(names, exp) -> str:
    """The monomial prod names[i]^exp[i], as x*y^2 ("" for exponent zero)."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(names, exp) if e)


class _Operators:
    """Context of coefficients that are values with +, * and is_zero()."""

    add = staticmethod(_add)
    mul = staticmethod(_mul)
    is_zero = staticmethod(methodcaller("is_zero"))
    to_str = staticmethod(str)


OPERATORS = _Operators()
