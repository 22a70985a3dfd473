"""Infinitesimal coordinate transformations over nilpotent test algebras,
differential polynomials in the transformation coefficients, and zero sets.

The group studied here consists of n-tuples of truncated series congruent to
(w_1, ..., w_n) modulo nilpotent coefficients, multiplied by composition.
Zero sets of differential-polynomial ideals cut out subgroups; the shipped
solver parametrizes them exactly by layered linear algebra.  Its linear
system is the Jacobian of the generators at the identity tuple, read off in
closed form, and its kernel is the Lie algebra of the Umemura functor at the
stated horizon.  The Hasse binomials C(k0, k) and the exponents of the
generators enter through the base ring's from_int, so in characteristic p
they vanish mod p exactly as in TruncSeries.hasse_deriv.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Sequence

from .exactalg import Echelon, evaluate
from .exactalg import terms as _terms
from .exactalg.ring import Ring, stacked_coordinates, unit_plus_nilpotent_inverse
from .series import SeriesRing, TruncSeries, formal_inverse, identity_tuple


# ----------------------------------------------------------------- algebra


class NilAlgebra(Ring):
    """L[e_1, ..., e_r] with every monomial of total degree >= order set to 0.

    Elements are dicts mapping exponent tuples (total degree < order) to
    nonzero base-ring coefficients.  The generator names are vars.  The
    nilradical is spanned by the positive-degree monomials; unit_part is the
    degree-0 projection.
    """

    @staticmethod
    def _intern_key(base, gens: Sequence[str], order: int):
        return base, tuple(gens), order

    def __init__(self, base, gens: Sequence[str], order: int):
        if order < 1:
            raise ValueError("nilpotency order must be >= 1")
        self.base = base
        self.scalars = base.scalars
        self.vars = tuple(gens)
        self.order = order
        self._combine = _terms.degree_bound(order - 1)

    def monomials(self) -> list[tuple[int, ...]]:
        """All surviving exponent tuples, sorted by (degree, lex)."""
        return multi_indices(len(self.vars), self.order - 1)

    def element(self, terms: dict) -> dict:
        """The element with these terms, whose coefficients lie in base."""
        base, order = self.base, self.order
        items = ((tuple(e), c) for e, c in terms.items() if sum(e) < order and not base.is_zero(c))
        return _terms.accumulate({}, items, base)

    def zero(self):
        return {}

    def one(self):
        return {(0,) * len(self.vars): self.base.one()}

    def scalar(self, c):
        """The constant element with coefficient c, an element of base."""
        return self.element({(0,) * len(self.vars): c})

    def const(self, c):
        return self.scalar(self.base.const(c))

    def var(self, name: str):
        e = [0] * len(self.vars)
        e[self.vars.index(name)] = 1
        return {tuple(e): self.base.one()}

    gen = var

    def add(self, a, b):
        return _terms.add(a, b, self.base)

    def neg(self, a):
        return {exp: self.base.neg(c) for exp, c in a.items()}

    def mul(self, a, b):
        return _terms.mul(a, b, self.base, self._combine)

    def is_zero(self, a) -> bool:
        return not a

    def transport(self, target: "NilAlgebra", offset: int):
        """The algebra map to target sending generator i to target's offset + i:
        it relabels exponents and drops degrees >= target.order, with no
        arithmetic; a ring map only if self.order >= target.order (else
        ValueError)."""
        if self.order < target.order:
            raise ValueError(f"no algebra map from order {self.order} to order {target.order}")
        head, tail = (0,) * offset, (0,) * (len(target.vars) - offset - len(self.vars))
        return lambda a: {head + e + tail: c for e, c in a.items() if sum(e) < target.order}

    def unit_part(self, a):
        """Image under the projection killing the nilradical."""
        return a.get((0,) * len(self.vars), self.base.zero())

    def nil_part(self, a):
        return {e: c for e, c in a.items() if sum(e) > 0}

    def is_nilpotent(self, a) -> bool:
        return self.base.is_zero(self.unit_part(a))

    def is_unit(self, a) -> bool:
        return self.base.is_unit(self.unit_part(a))

    def inv(self, a):
        u = self.unit_part(a)
        if not self.base.is_unit(u):
            raise ZeroDivisionError("non-unit in nilpotent algebra")
        return unit_plus_nilpotent_inverse(self, self.scalar(self.base.inv(u)), self.nil_part(a))

    def to_str(self, a) -> str:
        items = sorted(a.items(), key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))
        return _terms.format_terms(items, self.base, lambda e: _terms.power_str(self.vars, e))

    def scalar_coordinates(self, elems: list) -> tuple[list, list[list]]:
        zero = self.base.zero()
        return stacked_coordinates(self.base, len(elems),
                                   ((m, [e.get(m, zero) for e in elems]) for m in self.monomials()))

    def __repr__(self):
        return f"NilAlgebra({self.base!r}, {self.vars}, order={self.order})"


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def multi_indices(n: int, max_total: int, min_total: int = 0) -> list[tuple[int, ...]]:
    """All n-dim multi-indices with min_total <= |k| <= max_total, sorted."""
    out = []
    for total in range(min_total, max_total + 1):
        out.extend(_compositions(total, n))
    return out


# ---------------------------------------------------- group of transforms


class InfTransform:
    """Tuple (phi_1, ..., phi_n) of series over a NilAlgebra with
    phi_i == w_i modulo nilpotent coefficients; a group under composition."""

    __slots__ = ("algebra", "comps")

    def __init__(self, algebra: NilAlgebra, comps: Sequence[TruncSeries], check: bool = True):
        self.algebra = algebra
        self.comps = tuple(comps)
        if check:
            self._validate()

    def _validate(self):
        A = self.algebra
        n = len(self.comps)
        if n == 0:
            raise ValueError("empty transformation")
        vars_ = self.comps[0].vars
        if len(vars_) != n:
            raise ValueError("component count must match variable count")
        for i, phi in enumerate(self.comps):
            if phi.ring is not A:
                raise ValueError("component not over the declared algebra")
            for exp, c in phi.terms.items():
                is_wi = sum(exp) == 1 and exp[i] == 1
                dev = A.sub(c, A.one()) if is_wi else c
                if not A.is_zero(dev) and not A.is_nilpotent(dev):
                    raise ValueError("transformation is not congruent to the identity "
                                     "modulo nilpotents")

    @property
    def vars(self):
        return self.comps[0].vars

    @property
    def horizon(self):
        return self.comps[0].horizon

    @classmethod
    def identity(cls, algebra: NilAlgebra, variables: Sequence[str], horizon: int) -> "InfTransform":
        return cls(algebra, identity_tuple(algebra, variables, horizon), check=False)

    def _work_horizon(self) -> int:
        # composing truncated tuples with nilpotent constant terms is exact
        # at the target horizon once intermediates carry order-2 extra slack
        return self.horizon + max(self.algebra.order - 2, 0)

    def compose(self, other: "InfTransform") -> "InfTransform":
        """self . other, the transformation w -> self(other(w))."""
        if self.algebra is not other.algebra or self.vars != other.vars or self.horizon != other.horizon:
            raise ValueError("transformation context mismatch")
        H = self._work_horizon()
        lifted_inner = [p.with_horizon(H) for p in other.comps]
        out = [
            p.with_horizon(H).compose(lifted_inner).with_horizon(self.horizon)
            for p in self.comps
        ]
        return InfTransform(self.algebra, out, check=False)

    def invert(self) -> "InfTransform":
        """Group inverse: series.formal_inverse of the components at the
        working horizon, which certifies it on both sides there, truncated
        back to this horizon.  Truncation keeps the composite below the
        horizon, since every product of series terms has at least the
        degree of each factor."""
        H = self._work_horizon()
        psi = formal_inverse([p.with_horizon(H) for p in self.comps])
        return InfTransform(self.algebra, [p.with_horizon(self.horizon) for p in psi], check=False)

    def is_identity(self) -> bool:
        ident = InfTransform.identity(self.algebra, self.vars, self.horizon)
        return self == ident

    def __eq__(self, other):
        if not isinstance(other, InfTransform):
            return NotImplemented
        return self.algebra is other.algebra and all(a == b for a, b in zip(self.comps, other.comps))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return f"InfTransform{self}"


# ------------------------------------------------- differential polynomials

# A symbol (i, k) stands for the k-th divided derivative of the i-th unknown
# series; a DiffPoly term maps a sorted tuple of ((i, k), exponent) pairs to a
# coefficient series in w over the base ring.


class DiffPoly:
    """Polynomial in finitely many symbols Y_i^(k) with coefficients in w:
    TruncSeries over coeff_ring, or JointElements in umemura.

    The derivation sends Y_i^(k) to C(k+l, k) Y_i^(k+l), dropping a symbol
    it moves above the horizon, and acts on the w's of the coefficients;
    evaluation substitutes the k-th divided derivative of a transformation
    component for Y_i^(k)."""

    __slots__ = ("nstreams", "coeff_ring", "wvars", "horizon", "terms")

    def __init__(self, nstreams: int, coeff_ring, wvars: Sequence[str], horizon: int, terms: dict):
        self.nstreams = nstreams
        self.coeff_ring = coeff_ring
        self.wvars = tuple(wvars)
        self.horizon = horizon
        items = ((tuple(sorted(key)), c) for key, c in terms.items() if not c.is_zero())
        self.terms = _terms.accumulate({}, items, _terms.OPERATORS)

    # builders ---------------------------------------------------------
    @classmethod
    def coefficient(cls, nstreams: int, series: TruncSeries) -> "DiffPoly":
        return cls(nstreams, series.ring, series.vars, series.horizon, {(): series})

    @classmethod
    def symbol(cls, nstreams: int, coeff_ring, wvars, horizon: int, i: int, k: tuple[int, ...]) -> "DiffPoly":
        one = TruncSeries.one(coeff_ring, wvars, horizon)
        return cls(nstreams, coeff_ring, wvars, horizon, {(((i, tuple(k)), 1),): one})

    def _check(self, other: "DiffPoly"):
        if (self.nstreams, self.coeff_ring, self.wvars, self.horizon) != (
            other.nstreams,
            other.coeff_ring,
            other.wvars,
            other.horizon,
        ):
            raise ValueError("differential polynomial context mismatch")

    def _make(self, terms: dict) -> "DiffPoly":
        """A polynomial of this shape from terms already canonical for it:
        sorted keys and nonzero coefficients, so nothing is rechecked."""
        out = DiffPoly.__new__(DiffPoly)
        out.nstreams, out.coeff_ring, out.wvars, out.horizon = (
            self.nstreams, self.coeff_ring, self.wvars, self.horizon)
        out.terms = terms
        return out

    def __add__(self, other):
        self._check(other)
        return self._make(_terms.add(self.terms, other.terms, _terms.OPERATORS))

    def __neg__(self):
        return self._make({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self._make(_terms.mul(self.terms, other.terms, _terms.OPERATORS, _merge_keys))

    def scale_series(self, s: TruncSeries) -> "DiffPoly":
        return DiffPoly(
            self.nstreams, self.coeff_ring, self.wvars, self.horizon,
            {k: c * s for k, c in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[tuple[int, tuple[int, ...]]]:
        return {sym for key in self.terms for sym, _ in key}

    def y_degree(self) -> int:
        return max((sum(e for _, e in key) for key in self.terms), default=0)

    # derivation --------------------------------------------------------
    def hasse_deriv(self, l: tuple[int, ...]) -> "DiffPoly":
        """Divided derivative of order l by the Leibniz rule: a coefficient c
        taking the part p of l times the symbol_derivatives of the rest."""
        l = tuple(l)
        if not any(l):
            return self
        from_int = self.coeff_ring.from_int
        items = []
        for key, c in self.terms.items():
            for part, rest in _splits(l, 2):
                dc = c.hasse_deriv(part) if any(part) else c
                if dc.is_zero():
                    continue
                for dkey, m in symbol_derivatives(key, rest, self.horizon):
                    t = dc if m == 1 else dc.scale(from_int(m))
                    if not t.is_zero():
                        items.append((dkey, t))
        return self._make(_terms.accumulate({}, items, _terms.OPERATORS))

    def evaluate(self, phi: InfTransform, lift) -> TruncSeries:
        """Substitute the divided derivatives of phi for the symbols.

        lift: base-coefficient -> algebra element embedding for the
        coefficient series; the substitution is evaluate_symbols."""
        A = phi.algebra
        if phi.vars != self.wvars:
            raise ValueError("variable mismatch in evaluation")
        if any(sum(k) > phi.horizon for _, k in self.symbols()):
            raise ValueError("symbol order exceeds the horizon")
        return evaluate_symbols(self.terms.items(), lambda s: phi.comps[s[0]].hasse_deriv(s[1]),
                                SeriesRing(A, phi.vars, phi.horizon),
                                lambda c: c.map_coeffs(lift, A))

    def __str__(self):
        def render(key):
            return "*".join(
                (f"Y{i + 1}" if self.nstreams > 1 else "Y")
                + (f"^({','.join(map(str, k))})" if any(k) else "")
                + (f"**{e}" if e > 1 else "")
                for (i, k), e in key
            )

        items = sorted(self.terms.items(), key=lambda t: _key_sort(t[0]), reverse=True)
        return _terms.format_terms(items, _terms.OPERATORS, render)

    def __repr__(self):
        return f"DiffPoly({self})"


def evaluate_symbols(terms, image, target, lift, is_one=None):
    """exactalg.evaluate of the terms (symbol-product key, coefficient) of a
    differential polynomial with each symbol s sent to image(s): the sorted
    symbols are the variables, so each one's powers are built once."""
    terms = list(terms)
    symbols = sorted({sym for key, _ in terms for sym, _ in key})
    return evaluate(((tuple(dict(key).get(sym, 0) for sym in symbols), c) for key, c in terms),
                    [image(sym) for sym in symbols], target, lift, is_one)


def _merge_keys(k1, k2):
    counts: dict = {}
    for sym, e in itertools.chain(k1, k2):
        counts[sym] = counts.get(sym, 0) + e
    return tuple(sorted(counts.items()))


def _key_sort(key):
    return (sum(e for _, e in key), tuple((i, k, e) for (i, k), e in key))


def symbol_derivatives(key, l: tuple[int, ...], horizon: int):
    """The divided derivative of order l of the symbol product key, as
    (key, integer) pairs, one per product reached.  Each split of l over the
    factors (Y^e is e factors) turns a factor Y_i^(k) taking the part p into
    C(k+p, k)*Y_i^(k+p); a split that moves a symbol above the horizon is
    dropped, since such a symbol vanishes on every transformation at that
    horizon.  The caller maps the integers into its ring (they may vanish
    mod p)."""
    factors = [sym for sym, e in key for _ in range(e)]
    out: dict = {}
    for split in _splits(tuple(l), len(factors)):
        n = 1
        counts: dict = {}
        for (i, k), p in zip(factors, split):
            kp = _terms.add_keys(k, p)
            if sum(kp) > horizon:
                break
            n *= math.prod(map(math.comb, kp, k))
            counts[(i, kp)] = counts.get((i, kp), 0) + 1
        else:
            dkey = tuple(sorted(counts.items()))
            out[dkey] = out.get(dkey, 0) + n
    return out.items()


def _splits(l: tuple[int, ...], parts: int):
    """All ways to write l as an ordered sum of `parts` multi-indices."""
    if parts == 0:
        if not any(l):
            yield ()
        return
    if parts == 1:
        yield (l,)
        return
    n = len(l)
    for first in itertools.product(*(range(a + 1) for a in l)):
        rest = tuple(a - b for a, b in zip(l, first))
        for tail in _splits(rest, parts - 1):
            yield (first,) + tail


class LieRittIdeal:
    """Finitely many differential-polynomial generators plus optional tail
    schemes (i, k0) standing for the generators Y_i^(k) for all |k| >= k0."""

    def __init__(self, nstreams: int, coeff_ring, wvars, horizon: int,
                 generators: Sequence[DiffPoly], tails: Sequence[tuple[int, int]] = ()):
        self.nstreams = nstreams
        self.coeff_ring = coeff_ring
        self.wvars = tuple(wvars)
        self.horizon = horizon
        self.generators = list(generators)
        self.tails = tuple(tails)

    def materialized(self) -> list[DiffPoly]:
        gens = list(self.generators)
        for i, k0 in self.tails:
            for k in multi_indices(len(self.wvars), self.horizon, k0):
                gens.append(
                    DiffPoly.symbol(self.nstreams, self.coeff_ring, self.wvars, self.horizon, i, k)
                )
        return gens

    def __repr__(self):
        tail = f", tails={self.tails}" if self.tails else ""
        return f"LieRittIdeal({[str(g) for g in self.generators]}{tail})"


# ------------------------------------------------------------- zero sets


class SolutionFamily:
    """Parametrization of a zero set over a test algebra.

    components[i] is a series over NilAlgebra(base, params, order) whose
    parameter monomials encode the family; substituting nilpotent values for
    the parameters enumerates the actual points."""

    def __init__(self, algebra: NilAlgebra, variables, horizon: int,
                 params: list[str], components: list[TruncSeries],
                 empty: bool = False, constraints: list[str] | None = None):
        self.algebra = algebra
        self.vars = tuple(variables)
        self.horizon = horizon
        self.params = params
        self.components = components
        self.empty = empty
        self.constraints = constraints or []

    def instantiate(self, algebra: NilAlgebra, values: dict) -> InfTransform:
        """Substitute nilpotent algebra elements for the parameters.

        values maps parameter names to elements of `algebra` (each must lie
        in the nilradical); the base ring must agree."""
        if self.empty:
            raise ValueError("empty solution family")
        if algebra.base is not self.algebra.base:
            raise ValueError("base ring mismatch")
        for name in self.params:
            v = values[name]
            if not algebra.is_nilpotent(v):
                raise ValueError(f"value for {name} is not nilpotent")

        images = [values[name] for name in self.algebra.vars]
        comps = [c.map_coeffs(lambda p: evaluate(p.items(), images, algebra, algebra.scalar),
                              algebra)
                 for c in self.components]
        return InfTransform(algebra, comps)

    @cached_property
    def symbolic_pair(self) -> tuple[InfTransform, InfTransform, InfTransform]:
        """(f, g, f . g): the members at the symbolic parameters s_i and t_i
        of NilAlgebra(base, (s_0, ..., t_0, ...), 3), the family transported
        along a_i -> s_i and a_i -> t_i (so its order must be >= 3), and
        their composite, built once and shared by the group-law checks."""
        k = len(self.params)
        P2 = NilAlgebra(self.algebra.base, tuple(f"s{i}" for i in range(k))
                        + tuple(f"t{i}" for i in range(k)), 3)
        f, g = (InfTransform(P2, [c.map_coeffs(self.algebra.transport(P2, offset), P2)
                                  for c in self.components])
                for offset in (0, k))
        return f, g, f.compose(g)

    def shape(self) -> str:
        if self.empty:
            return "<empty>"
        body = ", ".join(str(c) for c in self.components)
        if len(self.components) > 1:
            body = f"({body})"
        params = ", ".join(self.params) if self.params else "-"
        return f"{{ {body} : {params} in N(A) }}"

    def __repr__(self):
        return f"SolutionFamily({self.shape()})"


def solve_zero_set(ideal: LieRittIdeal, param_order: int = 3) -> SolutionFamily:
    """Parametrize the transformations annihilating every generator.

    The unknown coefficient of w^k in component i, |k| <= ideal.horizon,
    ranges over the nilradical of the test algebra.  The linear system is
    the Jacobian of the generators at the identity tuple, whose kernel is
    the Lie algebra of the Umemura functor at this horizon; its Hasse
    binomials C(k0, k) and Y-exponents are taken through base_ring.from_int,
    so in characteristic p an entry divisible by p vanishes.  One symbolic
    nilpotent parameter is introduced per kernel direction.  For ideals of
    degree <= 1 in the Y-symbols the linear family is the complete answer
    over every test algebra.  Nonlinear generators leave residues of
    parameter degree >= 2, which are absorbed layer by layer with
    corrections solved against the same linear system; a residue no
    correction can absorb is reported as a parameter constraint cutting out
    the actual zero set.
    """
    horizon = ideal.horizon
    base_ring = ideal.coeff_ring
    n = ideal.nstreams
    wvars = ideal.wvars
    gens = ideal.materialized()
    unknowns = [(i, k) for i in range(n) for k in multi_indices(len(wvars), horizon)]

    columns, consistent = _jacobian_at_identity(gens, base_ring, len(wvars), horizon, unknowns)
    if not consistent:
        # nothing nilpotent can cancel a nonzero base-ring constant
        return SolutionFamily(NilAlgebra(base_ring, (), 1), wvars, horizon, [], [], empty=True)
    jacobian = Echelon(base_ring, columns)
    params = [f"a{j}" for j in range(len(jacobian.dependent))]
    algebra = NilAlgebra(base_ring, params, param_order)

    def components(values: list) -> list[TruncSeries]:
        comps = []
        for i in range(n):
            terms = {tuple(int(j == i) for j in range(len(wvars))): algebra.one()}
            for (i0, k), v in zip(unknowns, values):
                if i0 == i and v:
                    terms[k] = algebra.add(terms.get(k, algebra.zero()), v)
            comps.append(TruncSeries(algebra, wvars, horizon, terms))
        return comps

    def residues(values: list) -> dict:
        phi = InfTransform(algebra, components(values), check=False)
        return {(gi, exp): c for gi, g in enumerate(gens)
                for exp, c in g.evaluate(phi, algebra.scalar).terms.items()}

    values = kernel_values(jacobian, algebra)
    constraints = []
    if any(g.y_degree() > 1 for g in gens):
        constraints = ["parameter monomial " + _terms.power_str(algebra.vars, mono)
                       + ": residue not absorbable; the zero set satisfies an extra relation"
                       for mono in absorb_residues(algebra, jacobian, values, residues)]
    return SolutionFamily(algebra, wvars, horizon, params, components(values),
                          constraints=constraints)


def kernel_values(jacobian: Echelon, algebra: NilAlgebra) -> list:
    """The linear family over algebra: the value at each unknown (a vector
    of jacobian) of the sum over j of the j-th generator of algebra times
    the relation of the j-th dependent vector, a kernel vector."""
    values = [algebra.zero()] * jacobian.size
    for j, u in enumerate(jacobian.dependent):
        e = tuple(int(i == j) for i in range(len(algebra.vars)))
        for v, c in jacobian.relation(u).items():
            values[v] = algebra.add(values[v], algebra.element({e: c}))
    return values


def absorb_residues(algebra: NilAlgebra, jacobian: Echelon, values: list, residues) -> list:
    """Layered corrections absorbing the parameter-degree >= 2 residues of a
    nonlinear system whose linearization is jacobian.

    values[u] is the value in algebra of the unknown u (the u-th vector of
    jacobian) and is corrected in place; residues(values) maps row keys of
    jacobian to the residues in algebra.  Each layer takes the residues
    once and, for each parameter monomial of degree >= 2 in (degree, lex)
    order, solves jacobian against minus its coefficients and adds the
    solution times the monomial to the values.  Returns the monomials whose
    residue is outside the span of jacobian, in the order met."""
    F = jacobian.field
    unabsorbed = []
    for _layer in range(2, algebra.order):
        res = residues(values)
        monos = {m for r in res.values() for m in r if sum(m) >= 2}
        progressed = False
        for mono in sorted(monos, key=lambda e: (sum(e), e)):
            sol = jacobian.solve({key: F.neg(r[mono]) for key, r in res.items() if mono in r})
            if sol is None:
                unabsorbed.append(mono)
                continue
            progressed = True
            for u, x in enumerate(sol):
                if not F.is_zero(x):
                    values[u] = algebra.add(values[u], algebra.element({mono: x}))
        if not progressed:
            break
    return unabsorbed


def _jacobian_at_identity(gens, base_ring, nvars: int, horizon: int, unknowns):
    """The generators linearized at the identity tuple, and whether the
    identity annihilates them all, in one pass over the terms.

    The linearization is one sparse column per unknown (i, k0), in the order
    of unknowns, mapping (generator, w-exponent) to the nonzero coefficient
    of the unknown there.  At the identity Y_i^(k) is w_i, 1 or 0, so the
    value of a term c * prod Y_f^e_f and its partial derivative in a factor
    f are w^m * c and w^m_f * e_f * c, or 0.  Moving the unknown (i, k0) by
    p*w^k0 moves Y_i^(k) by C(k0, k)*p*w^(k0-k), so the factor Y_i^(k) adds
    e_f * C(k0, k) * w^(m_f + k0 - k) * c to the column of (i, k0)."""
    F = base_ring
    zero = (0,) * nvars
    units = [tuple(int(j == i) for j in range(nvars)) for i in range(nvars)]
    # the exponent m of Y_i^(k) = w^m at the identity; an absent symbol is 0
    at_identity = {**{(i, zero): u for i, u in enumerate(units)},
                   **{(i, u): zero for i, u in enumerate(units)}}
    columns: list[dict] = [{} for _ in unknowns]
    consistent = True
    for gi, g in enumerate(gens):
        residue: dict = {}
        for key, c in g.terms.items():
            if any(sum(k) > horizon for (_, k), _ in key):
                raise ValueError("symbol order exceeds the horizon")
            values = [(at_identity.get(sym), e) for sym, e in key]
            m = _monomial_power(values, nvars)
            if m is not None:
                _terms.accumulate(residue, _shifted(c, m, horizon), F)
            for f, ((i, k), e) in enumerate(key):
                m = _monomial_power(values[:f] + [(values[f][0], e - 1)] + values[f + 1:], nvars)
                if m is None:
                    continue
                for col, (i0, k0) in enumerate(unknowns):
                    if i0 != i:
                        continue
                    n = e * math.prod(map(math.comb, k0, k))  # 0 unless k0 >= k
                    if not n or F.is_zero(factor := F.from_int(n)):
                        continue
                    shift = tuple(a + top - bot for a, top, bot in zip(m, k0, k))
                    _terms.accumulate(columns[col], (((gi, s), F.mul(factor, x))
                                                     for s, x in _shifted(c, shift, horizon)), F)
        consistent = consistent and not residue
    return columns, consistent


def _monomial_power(values, nvars: int):
    """The exponent of prod (w^m)^e over the (m, e) pairs, with m None for
    the value 0; None when the product is 0."""
    if any(e and m is None for m, e in values):
        return None
    return tuple(sum(e * m[j] for m, e in values if e) for j in range(nvars))


def _shifted(c: TruncSeries, shift: tuple[int, ...], horizon: int):
    """The terms of w^shift * c up to the horizon."""
    for s, x in c.terms.items():
        exp = _terms.add_keys(s, shift)
        if sum(exp) <= horizon:
            yield exp, x


# ------------------------------------------------------- formal group law


def group_law_coeffs(n: int, horizon: int, max_l: int | None = None):
    """Composition law of the coefficient coordinates, as exact polynomials.

    Returns a dict mapping (i, l) to the polynomial f giving the w^l
    coefficient of psi_i(phi), where u_{j,k} are the coefficients of the
    inner tuple phi and v_{j,k} those of the outer tuple psi (full
    coefficients, both restricted to |k| <= horizon).  Polynomials live in a
    PolyRing over QQ with integer coefficients and no constant terms."""
    from .exactalg import QQ, PolyRing

    if max_l is None:
        max_l = horizon
    ks = multi_indices(n, horizon)
    uvars = [f"u{j + 1}_" + "_".join(map(str, k)) for j in range(n) for k in ks]
    vvars = [f"v{j + 1}_" + "_".join(map(str, k)) for j in range(n) for k in ks]
    ring = PolyRing(QQ, uvars + vvars)

    def u(j, k):
        return ring.var(f"u{j + 1}_" + "_".join(map(str, k)))

    def v(j, k):
        return ring.var(f"v{j + 1}_" + "_".join(map(str, k)))

    wvars = [f"w{i + 1}" for i in range(n)]
    phi = [
        TruncSeries(ring, wvars, horizon, {tuple(k): u(j, k) for k in ks})
        for j in range(n)
    ]
    out = {}
    for i in range(n):
        psi = TruncSeries(ring, wvars, horizon, {tuple(k): v(i, k) for k in ks})
        composed = psi.compose(phi, strict=False)
        for l in multi_indices(n, max_l):
            out[(i, tuple(l))] = composed.coeff(l)
    return ring, out
