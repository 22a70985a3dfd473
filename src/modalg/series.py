"""Truncated multivariate formal power series over an exact coefficient ring.

A TruncSeries keeps every monomial of total degree <= horizon and drops the
rest.  Coefficients live in any ring following the exactalg protocol (QQ,
GF(p), FracField, PolyRing, NilAlgebra, ProductField), so the same series
code serves power series over a function field as well as infinitesimal
transformations over a nilpotent test algebra.  SeriesRing is the interned
context of the series of one shape, so series can be coefficients of
series: a t-series over SeriesRing(L, w, h) is a series in t and w whose
terms keep t-degree <= its horizon and w-degree <= h, the box of
taylor.ExpansionAlgebra.

Exactness contract: addition and multiplication of two series agree with the
untruncated result in every degree <= horizon.  So does the quotient
a.divide(b) whenever b has a unit constant term (ValueError otherwise): its
coefficient of w^e is solved from the coefficients of a and b in degrees
<= |e| alone, so it equals the coefficient of the untruncated quotient;
b.recip() is the quotient 1.divide(b).  Composition f(phi) is the
polynomial substitution of the stored terms of f; it agrees with untruncated
composition in every degree <= horizon whenever the constant terms of phi are
zero.  With merely nilpotent constant terms the agreement additionally needs
f's dropped tail to contribute nothing below the nilpotency order; callers
that rely on this (group composition over nilpotent algebras) must inflate
the working horizon accordingly.
"""

from __future__ import annotations

import math
from operator import add as _add, eq as _eq, neg as _neg
from operator import methodcaller, mul as _mul
from typing import Iterable, Sequence

from .exactalg import Matrix, evaluate, power
from .exactalg import terms as _terms
from .exactalg.ring import Ring


class TruncSeries:
    """Series sum_e c_e * w^e with |e| <= horizon, canonical sparse terms."""

    __slots__ = ("ring", "vars", "horizon", "terms")

    def __init__(self, ring, variables: Sequence[str], horizon: int, terms: dict | None = None):
        self.ring = ring
        self.vars = tuple(variables)
        self.horizon = horizon
        self.terms: dict = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if sum(exp) <= horizon and not ring.is_zero(c):
                    self.terms[exp] = c

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls, ring, variables, horizon) -> "TruncSeries":
        return cls(ring, variables, horizon, {})

    @classmethod
    def const(cls, ring, variables, horizon, c) -> "TruncSeries":
        n = len(tuple(variables))
        return cls(ring, variables, horizon, {(0,) * n: c})

    @classmethod
    def one(cls, ring, variables, horizon) -> "TruncSeries":
        return cls.const(ring, variables, horizon, ring.one())

    @classmethod
    def variable(cls, ring, variables, horizon, name: str) -> "TruncSeries":
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls(ring, variables, horizon, {tuple(exp): ring.one()})

    def _make(self, terms: dict) -> "TruncSeries":
        """A series of this shape from terms already canonical for it: nonzero
        coefficients and total degrees <= horizon, so nothing is rechecked."""
        out = TruncSeries.__new__(TruncSeries)
        out.ring, out.vars, out.horizon, out.terms = self.ring, self.vars, self.horizon, terms
        return out

    def _check(self, other: "TruncSeries"):
        if self.ring is not other.ring or self.vars != other.vars or self.horizon != other.horizon:
            raise ValueError("series context mismatch")

    # ------------------------------------------------------------- queries
    def coeff(self, exp: Iterable[int]):
        return self.terms.get(tuple(exp), self.ring.zero())

    def constant_term(self):
        return self.coeff((0,) * len(self.vars))

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int:
        """Least total degree of a nonzero term (horizon + 1 for zero)."""
        return min((sum(e) for e in self.terms), default=self.horizon + 1)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.ring.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    # ---------------------------------------------------------- arithmetic
    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return self._make(_terms.add(self.terms, other.terms, self.ring))

    def __neg__(self) -> "TruncSeries":
        R = self.ring
        return self._make({e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return self._make(_terms.mul(self.terms, other.terms, self.ring,
                                     _terms.degree_bound(self.horizon)))

    def __pow__(self, n: int) -> "TruncSeries":
        return power(self, n, lambda: TruncSeries.one(self.ring, self.vars, self.horizon))

    def scale(self, c) -> "TruncSeries":
        R = self.ring
        # c may be zero or a zero divisor of the coefficient ring
        return self._make({e: m for e, cc in self.terms.items()
                           if not R.is_zero(m := R.mul(cc, c))})

    # -------------------------------------------------------- derivations
    def hasse_deriv(self, k: Iterable[int]) -> "TruncSeries":
        """Divided-power derivative: w^e -> C(e, k) w^(e-k), componentwise.

        These satisfy the iteration rule deriv(i) o deriv(j) =
        C(i+j, i) deriv(i+j) in every characteristic."""
        k = tuple(k)
        R = self.ring
        out: dict = {}
        for e, c in self.terms.items():
            if any(a < b for a, b in zip(e, k)):
                continue
            b = 1
            for a, bb in zip(e, k):
                b *= math.comb(a, bb)
            coef = c if b == 1 else R.mul(c, R.from_int(b))
            if not R.is_zero(coef):
                out[tuple(a - bb for a, bb in zip(e, k))] = coef
        return self._make(out)

    # ------------------------------------------------- composition, recip
    def compose(self, phis: Sequence["TruncSeries"], strict: bool = True) -> "TruncSeries":
        """Substitute phis[i] for the i-th variable.

        strict requires every constant term of phis to be zero or nilpotent
        in the coefficient ring (the condition under which truncated
        composition is meaningful); pass strict=False for plain polynomial
        substitution of the stored terms."""
        if len(phis) != len(self.vars):
            raise ValueError("wrong number of series to substitute")
        if not phis:
            return self
        tgt = phis[0]
        for p in phis[1:]:
            tgt._check(p)
        if strict:
            for p in phis:
                c0 = p.constant_term()
                if not p.ring.is_nilpotent(c0):
                    raise ValueError("substitution needs zero or nilpotent constant term")
        S = SeriesRing(tgt.ring, tgt.vars, tgt.horizon)
        return evaluate(self.sorted_terms(), phis, S, S.scalar)

    def recip(self) -> "TruncSeries":
        """Multiplicative inverse; needs a unit constant term."""
        return TruncSeries.one(self.ring, self.vars, self.horizon).divide(self)

    def divide(self, den: "TruncSeries") -> "TruncSeries":
        """The quotient self / den; den needs a unit constant term c0.

        Solved degree by degree, q_e = c0^-1 (a_e - sum_{0<f<=e} b_f q_(e-f))
        for self = sum a_e w^e and den = sum b_f w^f: once q_e is known, its
        products with the nonconstant terms of den are subtracted from the
        pending sums of the higher degrees."""
        self._check(den)
        R = self.ring
        c0 = den.constant_term()
        if not R.is_unit(c0):
            raise ValueError("division needs a unit constant term in the denominator")
        inv0 = R.inv(c0)
        radd, rmul, is_zero = R.add, R.mul, R.is_zero
        h = self.horizon
        tail = [(f, R.neg(b)) for f, b in den.terms.items() if any(f)]
        # pending[d]: a_e - sum b_f q_(e-f) so far, for the exponents e of degree d
        pending: list[dict] = [{} for _ in range(h + 1)]
        for e, a in self.terms.items():
            pending[sum(e)][e] = a
        out: dict = {}
        for layer in pending:
            for e, s in layer.items():
                q = rmul(inv0, s)
                if is_zero(q):
                    continue
                out[e] = q
                for f, nb in tail:
                    k = tuple(map(_add, e, f))
                    d = sum(k)
                    if d > h:
                        continue
                    c = rmul(nb, q)
                    bucket = pending[d]
                    bucket[k] = radd(bucket[k], c) if k in bucket else c
        return self._make(out)

    # ------------------------------------------------------ reshaping maps
    def with_horizon(self, horizon: int) -> "TruncSeries":
        """The stored terms at another horizon: truncated when it is lower,
        reinterpreted (exact for polynomial data) when it is higher."""
        return TruncSeries(self.ring, self.vars, horizon, self.terms)

    def map_coeffs(self, fn, ring=None) -> "TruncSeries":
        return TruncSeries(ring or self.ring, self.vars, self.horizon,
                           {e: fn(c) for e, c in self.terms.items()})

    def __str__(self):
        names = self.vars
        return _terms.format_terms(self.sorted_terms(), self.ring,
                                   lambda e: _terms.power_str(names, e))

    def __repr__(self):
        return f"TruncSeries({self})"


class SeriesRing(Ring):
    """Ring context of the series of one shape (coefficient ring, variables,
    horizon), for exactalg.evaluate, a context's hom and the series with
    series coefficients: scalar(c) embeds a coefficient c as a constant
    series, const(c) a scalar of the prime field."""

    @staticmethod
    def _intern_key(ring, variables: Sequence[str], horizon: int):
        return ring, tuple(variables), horizon

    def __init__(self, ring, variables: Sequence[str], horizon: int):
        self.ring = ring
        self.scalars = ring.scalars
        self.vars = tuple(variables)
        self.horizon = horizon

    add = staticmethod(_add)
    neg = staticmethod(_neg)
    mul = staticmethod(_mul)
    eq = staticmethod(_eq)
    is_zero = staticmethod(methodcaller("is_zero"))
    to_str = staticmethod(str)

    def zero(self) -> TruncSeries:
        return TruncSeries.zero(self.ring, self.vars, self.horizon)

    def one(self) -> TruncSeries:
        return TruncSeries.one(self.ring, self.vars, self.horizon)

    def scalar(self, c) -> TruncSeries:
        return TruncSeries.const(self.ring, self.vars, self.horizon, c)

    def const(self, c) -> TruncSeries:
        return self.scalar(self.ring.const(c))

    def var(self, name: str) -> TruncSeries:
        return TruncSeries.variable(self.ring, self.vars, self.horizon, name)

    def is_unit(self, a: TruncSeries) -> bool:
        return self.ring.is_unit(a.constant_term())

    def is_nilpotent(self, a: TruncSeries) -> bool:
        return self.ring.is_nilpotent(a.constant_term())

    def inv(self, a: TruncSeries) -> TruncSeries:
        return a.recip()

    def div(self, a: TruncSeries, b: TruncSeries) -> TruncSeries:
        return a.divide(b)


def identity_tuple(ring, variables, horizon) -> tuple[TruncSeries, ...]:
    return tuple(SeriesRing(ring, variables, horizon).gens())


def formal_inverse(phis: Sequence[TruncSeries]) -> tuple[TruncSeries, ...]:
    """Compositional inverse of a tuple with zero (or nilpotent) constant
    terms and invertible Jacobian of linear parts; the one fixed-point lift
    of the library, which InfTransform.invert also runs.

    Solves degree by degree: with J the Jacobian, the update
    g <- g - J^{-1} (phi(g) - w) fixes one filtration layer per sweep; each
    residual phi(g) - w is computed once, the result is verified
    two-sidedly and an ArithmeticError is raised when the iteration fails
    to close (singular data slipping past the Jacobian test).
    """
    if not phis:
        return ()
    base = phis[0]
    n = len(base.vars)
    if len(phis) != n:
        raise ValueError("need as many series as variables")
    R = base.ring
    sweeps = base.horizon + 4  # one layer per sweep, with slack
    for p in phis:
        base._check(p)
        c0 = p.constant_term()
        if not R.is_nilpotent(c0):
            raise ValueError("formal inverse needs zero or nilpotent constant terms")
        # each nonzero power of a constant term may cost one more sweep
        c = c0
        while not R.is_zero(c):
            sweeps += 1
            c = R.mul(c, c0)
    unit_exps = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    jac = Matrix(R, [[phis[i].coeff(unit_exps[j]) for j in range(n)] for i in range(n)])
    jinv = jac.inverse()  # raises ValueError when singular

    ident = identity_tuple(R, base.vars, base.horizon)
    g = list(ident)
    for sweep in range(sweeps + 1):
        resid = [phis[i].compose(g, strict=False) - ident[i] for i in range(n)]
        if all(r.is_zero() for r in resid):
            break
        if sweep == sweeps:
            raise ArithmeticError("formal inverse iteration did not converge")
        g = [
            g[i] - _sum_series([resid[j].scale(jinv.entry(i, j)) for j in range(n)])
            for i in range(n)
        ]
    back = [gg.compose(list(phis), strict=False) - ident[i] for i, gg in enumerate(g)]
    if any(not b.is_zero() for b in back):
        raise ArithmeticError("formal inverse iteration did not converge")
    return tuple(g)


def _sum_series(items: list[TruncSeries]) -> TruncSeries:
    out = items[0]
    for s in items[1:]:
        out = out + s
    return out


def truncated_exp(s: TruncSeries) -> TruncSeries:
    """exp of a series with zero constant term, characteristic 0 only."""
    R = s.ring
    if R.char != 0:
        raise ValueError("exp needs characteristic 0")
    if not R.is_zero(s.constant_term()):
        raise ValueError("exp needs zero constant term")
    out = TruncSeries.one(R, s.vars, s.horizon)
    p = TruncSeries.one(R, s.vars, s.horizon)
    for k in range(1, s.horizon + 1):
        p = p * s
        if p.is_zero():
            break
        out = out + p.scale(R.inv(R.from_int(math.factorial(k))))
    return out
