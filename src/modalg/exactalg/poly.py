"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict mapping exponent tuples (one nonnegative int per
variable) to nonzero coefficients of the ring's scalar field:

    y^2 - 2  over QQ, vars ("y",)   ->   {(2,): Fraction(1), (0,): Fraction(-2)}

Terms are kept canonical: no zero coefficients, every exponent tuple has
length == number of variables.  Iteration and printing order is graded
lexicographic (total degree first), descending, which makes all output
deterministic.

A PolyRing may declare *inverse pairs* of variables: (i, j) means
vars[i] * vars[j] = 1.  The relation is reduced eagerly on every monomial
(min of the two exponents is cancelled), which models Laurent-type rings
such as K[x, x^-1] without a separate representation.
"""

from __future__ import annotations

from typing import Sequence

from . import terms as _terms
from .ring import GeneratorPowers, Ring, power, stacked_coordinates, unit_plus_nilpotent_inverse


def grlex_key(exp: tuple[int, ...]):
    """Sort key for graded lexicographic order (ascending)."""
    return (sum(exp), exp)


class PolyRing(Ring):
    """Context for MPoly values: coefficient ring, named variables, inverse
    pairs.  The coefficients live in field, which is a prime field except
    for the polynomial rings over a NilAlgebra that carry points over test
    algebras; scalar(c) embeds a coefficient and const(c) a scalar."""

    @staticmethod
    def _intern_key(field, variables: Sequence[str], inverse_pairs: Sequence[tuple[int, int]] = ()):
        return field, tuple(variables), tuple(tuple(p) for p in inverse_pairs)

    def __init__(self, field, variables: Sequence[str], inverse_pairs: Sequence[tuple[int, int]] = ()):
        self.field = field
        self.scalars = field.scalars
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self.inverse_pairs = tuple(tuple(p) for p in inverse_pairs)
        # the exponent tuple of the constant monomial
        self.const_exp = (0,) * len(self.vars)
        self.partners = {}
        for i, j in self.inverse_pairs:
            if not (0 <= i < len(self.vars) and 0 <= j < len(self.vars)) or i == j:
                raise ValueError(f"bad inverse pair ({i}, {j})")
            self.partners[self.vars[i]] = self.vars[j]
            self.partners[self.vars[j]] = self.vars[i]
        # the product key of two exponent tuples
        self._combine = self._reduced_sum if self.inverse_pairs else _terms.add_keys

    def nvars(self) -> int:
        return len(self.vars)

    def _reduce_exp(self, exp: tuple[int, ...]) -> tuple[int, ...]:
        if not self.inverse_pairs:
            return exp
        e = list(exp)
        for i, j in self.inverse_pairs:
            m = min(e[i], e[j])
            if m:
                e[i] -= m
                e[j] -= m
        return tuple(e)

    def _reduced_sum(self, e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
        return self._reduce_exp(_terms.add_keys(e1, e2))

    def poly(self, terms: dict) -> "MPoly":
        """Build a polynomial from raw terms (coefficients in field), canonicalizing."""
        f = self.field
        items = ((self._reduce_exp(tuple(exp)), c) for exp, c in terms.items() if not f.is_zero(c))
        return MPoly(self, _terms.accumulate({}, items, f))

    def zero(self) -> "MPoly":
        return MPoly(self, {})

    def one(self) -> "MPoly":
        return MPoly(self, {self.const_exp: self.field.one()})

    def scalar(self, c) -> "MPoly":
        """The constant polynomial with coefficient c, an element of field."""
        return self.poly({self.const_exp: c})

    def const(self, c) -> "MPoly":
        return self.scalar(self.field.const(c))

    def var(self, name: str) -> "MPoly":
        i = self.vars.index(name)
        exp = [0] * self.nvars()
        exp[i] = 1
        return MPoly(self, {tuple(exp): self.field.one()})

    # ring protocol (elements are MPoly) -------------------------------
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a.terms

    def eq(self, a, b) -> bool:
        return a == b

    def is_unit(self, a) -> bool:
        return a.unit_inverse_or_none() is not None

    def is_nilpotent(self, a) -> bool:
        return all(self.field.is_nilpotent(c) for c in a.terms.values())

    def inv(self, a):
        r = a.unit_inverse_or_none()
        if r is None:
            raise ZeroDivisionError(f"{a} is not a unit in {self}")
        return r

    def hom(self, p: "MPoly", powers, lift):
        """The ring map of the protocol (ring.py) at p, summed in the order
        of p's sorted terms by GeneratorPowers.substitute; a generator with
        no image in powers reads the inverse powers of its partner's."""
        images, keys = powers.images, []
        for name in self.vars:
            if name in images:
                keys.append((name, 1))
            elif self.partners.get(name) in images:
                keys.append((self.partners[name], -1))
            else:
                raise KeyError(f"no image declared for generator {name!r}")
        return powers.substitute(p.sorted_terms(), keys, lift)

    def to_str(self, a) -> str:
        return str(a)

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        """Coordinates over the scalar field: the coordinates of the
        coefficients of each monomial, on a common basis of monomials."""
        zero = self.field.zero()
        monomials = sorted({exp for p in elems for exp in p.terms})
        return stacked_coordinates(self.field, len(elems),
                                   ((m, [p.terms.get(m, zero) for p in elems]) for m in monomials))

    def __repr__(self):
        inv = f", inverse_pairs={self.inverse_pairs}" if self.inverse_pairs else ""
        return f"PolyRing({self.field!r}, {self.vars}{inv})"


class MPoly:
    """A canonical sparse polynomial; arithmetic requires equal rings."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries --------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and self.ring.const_exp in t)

    def const_coeff(self):
        return self.terms.get(self.ring.const_exp, self.ring.field.zero())

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> tuple[tuple[int, ...], object]:
        """Leading (exponent, coefficient) under graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def key(self):
        """A hashable snapshot of the canonical terms, equal exactly when the
        polynomials are (for caches and deduplication; it has no order)."""
        return frozenset(self.terms.items())

    # -- arithmetic -------------------------------------------------------
    def _check(self, other: "MPoly"):
        if self.ring is not other.ring:
            raise ValueError("polynomial ring mismatch")

    def __add__(self, other):
        self._check(other)
        return MPoly(self.ring, _terms.add(self.terms, other.terms, self.ring.field))

    def __neg__(self):
        f = self.ring.field
        return MPoly(self.ring, {exp: f.neg(c) for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        return MPoly(ring, _terms.mul(self.terms, other.terms, ring.field, ring._combine))

    def __pow__(self, n: int):
        return power(self, n, self.ring.one)

    def scale(self, c) -> "MPoly":
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return MPoly(self.ring, {e: f.mul(cc, c) for e, cc in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, MPoly) or self.ring is not other.ring:
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        f = self.ring.field
        return all(f.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def unit_inverse_or_none(self):
        """Inverse when this is a unit: one term with a unit coefficient on
        a unit monomial (a constant, or a product of inverse-pair
        generators) plus any terms with nilpotent coefficients."""
        ring = self.ring
        f = ring.field
        terms = self.terms
        units = [(e, c) for e, c in terms.items() if not f.is_nilpotent(c)]
        if len(units) != 1:
            return None
        (exp, c), = units
        if not f.is_unit(c):
            return None
        inv_of = {}
        for i, j in ring.inverse_pairs:
            inv_of[i] = j
            inv_of[j] = i
        e = [0] * ring.nvars()
        for i, v in enumerate(exp):
            if v == 0:
                continue
            if i not in inv_of:
                return None
            e[inv_of[i]] = v
        unit_inv = MPoly(ring, {tuple(e): f.inv(c)})
        if len(terms) == 1:
            return unit_inv
        nil = MPoly(ring, {k: x for k, x in terms.items() if k != exp})
        return unit_plus_nilpotent_inverse(ring, unit_inv, nil)

    def exact_div(self, d: "MPoly") -> "MPoly":
        """Exact polynomial division; raises ValueError when not divisible.

        A one-term divisor c*x^e takes one pass: every exponent is shifted
        by -e and every coefficient divided by c, and the division is exact
        exactly when no shifted exponent is negative.  Other divisors take
        long division under graded lex order.

        Only for rings without inverse pairs (divide units out instead)."""
        self._check(d)
        if self.ring.inverse_pairs:
            raise ValueError("exact_div is not defined on rings with inverse pairs")
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.ring.field
        if len(d.terms) == 1:
            (dexp, dc), = d.terms.items()
            q = {}
            for exp, c in self.terms.items():
                qexp = tuple(a - b for a, b in zip(exp, dexp))
                if min(qexp, default=0) < 0:
                    raise ValueError("non-exact polynomial division")
                q[qexp] = f.div(c, dc)
            return MPoly(self.ring, q)
        r = self
        q: dict = {}
        dexp, dc = d.leading()
        while not r.is_zero():
            rexp, rc = r.leading()
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                raise ValueError("non-exact polynomial division")
            qc = f.div(rc, dc)
            q[qexp] = f.add(q.get(qexp, f.zero()), qc)
            r = r - MPoly(self.ring, {qexp: qc}) * d
        return self.ring.poly(q)

    def subs(self, images: dict[str, "MPoly"]) -> "MPoly":
        """Substitute ring elements for variables (same ring)."""
        ring = self.ring
        gens = {v: images[v] if v in images else ring.var(v) for v in ring.vars}
        return ring.hom(self, GeneratorPowers(ring, gens), ring.scalar)

    def __str__(self):
        names = self.ring.vars
        return _terms.format_terms(self.sorted_terms(), self.ring.field,
                                   lambda exp: _terms.power_str(names, exp))

    def __repr__(self):
        return f"MPoly({self})"


def _coeffs_in_var(p: MPoly, i: int) -> dict[int, MPoly]:
    """View p as univariate in variable i with MPoly coefficients."""
    out: dict[int, dict] = {}
    for exp, c in p.terms.items():
        e = list(exp)
        d = e[i]
        e[i] = 0
        out.setdefault(d, {})[tuple(e)] = c
    return {d: MPoly(p.ring, t) for d, t in out.items()}


def _from_coeffs(ring: PolyRing, i: int, coeffs: dict[int, MPoly]) -> MPoly:
    terms: dict = {}
    for d, c in coeffs.items():
        for exp, cc in c.terms.items():
            e = list(exp)
            e[i] += d
            terms[tuple(e)] = cc
    return MPoly(ring, terms)


def _pseudo_rem(a: MPoly, b: MPoly, i: int) -> MPoly:
    """Pseudo-remainder of a by b, both viewed as univariate in variable i."""
    ring = a.ring
    ca = _coeffs_in_var(a, i)
    cb = _coeffs_in_var(b, i)
    db = max(cb)
    lb = cb[db]
    r = dict(ca)
    dr = max(r, default=-1)
    while r and dr >= db:
        lr = r[dr]
        # lb * r  -  lr * x^(dr-db) * b
        new: dict[int, MPoly] = {}
        for d, c in r.items():
            new[d] = c * lb
        for d, c in cb.items():
            t = c * lr
            k = d + dr - db
            new[k] = new.get(k, ring.zero()) - t
        r = {d: c for d, c in new.items() if not c.is_zero()}
        dr = max(r, default=-1)
    return _from_coeffs(ring, i, r)


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """GCD of two polynomials, normalized so the leading coefficient under
    graded lex order is 1.  Primitive pseudo-remainder sequence, recursing on
    the coefficient polynomials, except that a gcd with a one-term argument
    (a Laurent denominator, say) is a monomial read off the exponents, which
    is monic as computed and is not rescaled; exact over QQ and GF(p)."""
    if a.ring is not b.ring:
        raise ValueError("polynomial ring mismatch")
    if a.ring.inverse_pairs:
        raise ValueError("gcd is not defined on rings with inverse pairs")
    g = _gcd_rec(a, b)
    if g.is_zero():
        return g
    _, lc = g.leading()
    f = g.ring.field
    return g if f.eq(lc, f.one()) else g.scale(f.inv(lc))


def _content_and_primitive(p: MPoly, i: int) -> tuple[MPoly, MPoly]:
    coeffs = _coeffs_in_var(p, i)
    content = None
    for d in sorted(coeffs):
        content = coeffs[d] if content is None else _gcd_rec(content, coeffs[d])
    if content.is_const():
        return p.ring.one(), p
    prim = {d: c.exact_div(content) for d, c in coeffs.items()}
    return content, _from_coeffs(p.ring, i, prim)


def _monomial_gcd(m: MPoly, p: MPoly) -> MPoly:
    """gcd of a one-term m and a nonzero p: the monomial whose exponents are
    the componentwise minimum of m's exponents and all exponents of p."""
    (low,) = m.terms
    for exp in p.terms:
        low = tuple(map(min, low, exp))
    return MPoly(m.ring, {low: m.ring.field.one()})


def _gcd_rec(a: MPoly, b: MPoly) -> MPoly:
    ring = a.ring
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if len(a.terms) == 1:
        return _monomial_gcd(a, b)
    if len(b.terms) == 1:
        return _monomial_gcd(b, a)
    i = next(k for k in range(ring.nvars()) if a.degree_in(k) > 0 or b.degree_in(k) > 0)
    if a.degree_in(i) < b.degree_in(i):
        a, b = b, a
    ca, pa = _content_and_primitive(a, i)
    cb, pb = _content_and_primitive(b, i)
    cont = _gcd_rec(ca, cb)
    while True:
        r = _pseudo_rem(pa, pb, i)
        if r.is_zero():
            break
        if r.degree_in(i) == 0:
            pb = ring.one()
            break
        _, r = _content_and_primitive(r, i)
        # the content of constant coefficients is 1, so over QQ r keeps the
        # scalars it picked up; a leading coefficient of 1 stops them swelling
        _, lc = r.leading()
        r = r.scale(ring.field.inv(lc))
        pa, pb = pb, r
    return cont * pb
