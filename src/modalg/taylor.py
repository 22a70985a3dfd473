"""Universal expansion maps and their function-space realizations.

ActionSpec.expand realizes a ring element as a function on the acting
bialgebra: divided-power coefficients for derivation actions (a Taylor
expansion), iterates for endomorphism actions (an Euler-style expansion),
wordwise for monoid actions.  The map is a homomorphism into the convolution
algebra and intertwines the ring action with right translation; both facts
are checked by the test suite, and the factorization property (every
homomorphism into a translation algebra factors through it) is verified by
check_expansion_universal.

ExpansionAlgebra is the bivariate refinement: values are series in the
operator variables t and in deformation variables w, with independent bounds
on the two groups.  It hosts a second, commuting derivation action in the w
direction and the multiplication map that merges a hull element tensor a
w-series into a single function; this is where the Galois-hull and
automorphism computations live.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .actions import ActionSpec, HomElement, Report
from .exactalg import GeneratorPowers, power
from .series import TruncSeries


def _identity(c):
    return c


def check_expansion_universal(action: ActionSpec, Lambda: Callable, target,
                              target_lift: Callable, samples: Sequence,
                              horizon: int, word_bound: int | None = None) -> Report:
    """Factorization check: Lambda must equal coordinatewise application of
    ev-at-unit(Lambda) after the universal expansion.

    Lambda maps ring elements to HomElements with coefficients in `target`;
    the induced plain ring map is recovered on the generators and extended
    multiplicatively."""
    ring = action.ring
    if word_bound is None:
        word_bound = action.default_word_bound()
    powers = GeneratorPowers(target, {name: Lambda(ring.var(name)).ev_unit() for name in ring.vars})
    failures = []
    checked = 0
    for s in samples:
        checked += 1
        try:
            lam_s = ring.hom(s, powers, target_lift)
        except ZeroDivisionError:
            failures.append(f"induced map undefined on {s}")
            continue
        got = Lambda(s)
        expanded = action.expand(s, horizon, word_bound)
        mapped = HomElement(
            target, expanded.monoid, expanded.tvars, expanded.horizon, expanded.word_bound,
            {w: series.map_coeffs(
                lambda c: ring.hom(c, powers, target_lift),
                target,
            ) for w, series in expanded.data.items()},
        )
        if got != mapped:
            failures.append(f"factorization fails on {s}")
        elif not target.eq(lam_s, got.ev_unit()):
            failures.append(f"unit evaluation disagrees on {s}")
    return Report(not failures, checked, failures, {"horizon": horizon, "samples": len(samples)})


# ------------------------------------------------------- bivariate algebra


class ExpansionAlgebra:
    """Functions on the bialgebra with values in truncated w-series.

    Elements map monoid words to series in tvars + wvars over a coefficient
    ring; the t group is bounded by t_horizon, the w group by w_horizon,
    enforced after every product.  The derivation action in the w direction
    (wordwise divided derivatives) commutes with right translation in the t
    direction.
    """

    def __init__(self, action: ActionSpec, theta_u: ActionSpec, t_horizon: int,
                 w_horizon: int, word_bound: int | None = None, ring=None):
        self.action = action
        self.theta_u = theta_u
        self.ring = ring if ring is not None else action.ring
        self.t_horizon = t_horizon
        self.w_horizon = w_horizon
        self.word_bound = action.default_word_bound() if word_bound is None else word_bound
        self.tvars = action.tvars()
        self.wvars = theta_u.wvars
        self.vars = self.tvars + self.wvars
        self.monoid = action.monoid if action.has_monoid() else None

    # -------------------------------------------------------- constructors
    def _prune(self, s: TruncSeries) -> TruncSeries:
        nt = len(self.tvars)
        out = {}
        for e, c in s.terms.items():
            if sum(e[:nt]) <= self.t_horizon and sum(e[nt:]) <= self.w_horizon:
                out[e] = c
        return TruncSeries(s.ring, s.vars, s.horizon, out)

    def _series(self, terms: dict) -> TruncSeries:
        return self._prune(TruncSeries(self.ring, self.vars, self.t_horizon + self.w_horizon, terms))

    def _words(self) -> list:
        return self.monoid.words(self.word_bound) if self.monoid is not None else [0]

    def element(self, data: dict) -> "JointElement":
        return JointElement(self, data)

    def zero(self) -> "JointElement":
        return self.element({w: self._series({}) for w in self._words()})

    def const(self, c) -> "JointElement":
        s = self._series({(0,) * len(self.vars): c})
        return self.element({w: s for w in self._words()})

    def one(self) -> "JointElement":
        return self.const(self.ring.one())

    def add(self, a: "JointElement", b: "JointElement") -> "JointElement":
        return a + b

    def mul(self, a: "JointElement", b: "JointElement") -> "JointElement":
        return a * b

    def from_hom(self, f: HomElement, lift: Callable = _identity) -> "JointElement":
        """Embed a t-only realization (no w-dependence)."""
        data = {}
        for word, s in f.data.items():
            terms = {}
            for e, c in s.terms.items():
                terms[tuple(e) + (0,) * len(self.wvars)] = lift(c)
            data[word] = self._series(terms)
        return self.element(data)

    def from_w_series(self, s: TruncSeries, lift: Callable = _identity) -> "JointElement":
        """Constant-in-t embedding of a w-series (a rho0-style coefficient)."""
        terms = {}
        for e, c in s.terms.items():
            terms[(0,) * len(self.tvars) + tuple(e)] = lift(c)
        ser = self._series(terms)
        return self.element({w: ser for w in self._words()})

    def expand_plain(self, elem) -> HomElement:
        return self.action.expand(elem, self.t_horizon, self.word_bound)

    def expand_rho(self, elem) -> "JointElement":
        """The universal expansion followed by the w-direction derivation on
        every value: the fully deformed realization of elem."""
        return self._deform_hom(self.expand_plain(elem))

    def expand_rho0(self, elem) -> "JointElement":
        """The trivially-embedded element, w-deformed: theta_u(elem) at t=0."""
        wseries = self.theta_u.theta_series(elem, self.w_horizon)
        return self.from_w_series(wseries)

    def merge_tensor(self, terms: Sequence[tuple[HomElement, TruncSeries]],
                     lift: Callable = _identity, target_ring=None) -> "JointElement":
        """Multiplication map on simple tensors: sum of theta_u-deformed hull
        factors times constant embeddings of the w-series factors.

        The hull factors are t-realizations over the base field; the series
        factors live over the target coefficient ring (lift embeds base
        coefficients there).  The kernel behaviour that makes this map
        injective on truncations is exercised by the tests."""
        alg = self if target_ring is None else self.with_ring(target_ring)
        out = alg.zero()
        for hull_part, wpart in terms:
            deformed = alg._deform_hom(hull_part, lift)
            out = out + deformed * alg.from_w_series(wpart)
        return out

    def _deform_hom(self, f: HomElement, lift: Callable = _identity) -> "JointElement":
        data = {}
        for word, s in f.data.items():
            terms: dict = {}
            for e, c in s.terms.items():
                wseries = self.theta_u.theta_series(c, self.w_horizon)
                for we, wc in wseries.terms.items():
                    terms[tuple(e) + tuple(we)] = lift(wc)
            data[word] = self._series(terms)
        return self.element(data)

    def with_ring(self, ring) -> "ExpansionAlgebra":
        alg = ExpansionAlgebra(self.action, self.theta_u, self.t_horizon, self.w_horizon,
                               self.word_bound, ring=ring)
        return alg

    def __eq__(self, other):
        return (
            isinstance(other, ExpansionAlgebra)
            and self.action is other.action
            and self.theta_u is other.theta_u
            and (self.ring, self.t_horizon, self.w_horizon, self.word_bound)
            == (other.ring, other.t_horizon, other.w_horizon, other.word_bound)
        )


class JointElement:
    """Element of an ExpansionAlgebra: word -> series in (t, w)."""

    __slots__ = ("alg", "data")

    def __init__(self, alg: ExpansionAlgebra, data: dict):
        self.alg = alg
        self.data = data

    def _check(self, other: "JointElement"):
        if self.alg != other.alg:
            raise ValueError("expansion algebra mismatch")

    def __add__(self, other):
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return JointElement(self.alg, {w: self.data[w] + other.data[w] for w in common})

    def __neg__(self):
        return JointElement(self.alg, {w: -s for w, s in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return JointElement(
            self.alg, {w: self.alg._prune(self.data[w] * other.data[w]) for w in common}
        )

    def scale(self, c) -> "JointElement":
        return JointElement(self.alg, {w: s.scale(c) for w, s in self.data.items()})

    def __pow__(self, n: int):
        return power(self, n, self.alg.one)

    def map_coeffs(self, fn, alg: ExpansionAlgebra) -> "JointElement":
        """The element of alg with fn applied to every coefficient."""
        return JointElement(alg, {w: s.map_coeffs(fn, alg.ring) for w, s in self.data.items()})

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.data.values())

    def __eq__(self, other):
        if not isinstance(other, JointElement):
            return NotImplemented
        self._check(other)
        if self.data.keys() != other.data.keys():
            return False
        return all(self.data[w] == other.data[w] for w in self.data)

    def hasse_deriv(self, k: tuple[int, ...]) -> "JointElement":
        """Divided derivative in the w direction (wordwise)."""
        kk = (0,) * len(self.alg.tvars) + tuple(k)
        return JointElement(self.alg, {w: s.hasse_deriv(kk) for w, s in self.data.items()})

    def w_slice(self, k: tuple[int, ...]) -> HomElement:
        """The coefficient of w^k as a t-only realization."""
        nt = len(self.alg.tvars)
        k = tuple(k)
        data = {}
        for word, s in self.data.items():
            terms = {}
            for e, c in s.terms.items():
                if e[nt:] == k:
                    terms[e[:nt]] = c
            data[word] = TruncSeries(self.alg.ring, self.alg.tvars, self.alg.t_horizon, terms)
        return HomElement(self.alg.ring, self.alg.monoid, self.alg.tvars,
                          self.alg.t_horizon, self.alg.word_bound, data)

    def coordinates(self) -> dict:
        """Flat coordinate map (word, t-exp, w-exp) -> coefficient."""
        nt = len(self.alg.tvars)
        out = {}
        for word, s in self.data.items():
            for e, c in s.terms.items():
                out[(word, e[:nt], e[nt:])] = c
        return out

    def __str__(self):
        if self.alg.monoid is None or self.alg.word_bound == 0:
            word = self.alg.monoid.unit() if self.alg.monoid is not None else 0
            return str(self.data.get(word, "0"))
        items = sorted(self.data.items(), key=lambda t: (self.alg.monoid.length(t[0]), str(t[0])))
        return "; ".join(f"{self.alg.monoid.word_str(w)} -> {s}" for w, s in items)

    def __repr__(self):
        return f"JointElement({self})"
