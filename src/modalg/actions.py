"""Bialgebra actions on rings and their function-space realizations.

An ActionSpec fixes which bialgebra acts and how its generators move the
ring generators.  Supported shapes:

  trivial            every operator acts through the counit
  der                one derivation d, characteristic 0, declared by the
                     images d(g) of the generators g (0 where undeclared;
                     an undeclared inverse-pair partner follows its
                     partner) and realized through its divided powers
                     d^k/k!.  d extends to every element through the ring
                     map: d(a) is the coefficient of w in the image of a
                     under g -> g + d(g) w into series of horizon 1
  iterder(n)         n commuting iterative derivations: generator images are
                     truncated series  theta(g) = g + ... in w_1..w_n
  end                one endomorphism per generator of the declared
                     MonoidDesc, whose kind sets the words: powers of one
                     endomorphism ("endo") or automorphism ("auto", with
                     declared inverses), a cyclic group, or free words
  smash              iterder(n) together with a monoid part; the monoid is
                     assumed to commute with the derivations unless an
                     explicit rewriting rule is declared (declared rules are
                     verified by the checker, not expanded)

The realization of an element a is a HomElement: for each monoid word g
within the word bound, the truncated series sum_k theta^(k)(g(a)) t^k.  The
series multiply wordwise under convolution, the counit is evaluation at the
empty word and t = 0, and translation by an operator shifts the series and
the word, with the horizon shrinking accordingly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactalg import FracField, GeneratorPowers, PolyRing, restriction_kernel
from .lieritt import multi_indices
from .series import SeriesRing, TruncSeries


# ------------------------------------------------------------------ monoid


class MonoidDesc:
    """Monoid of operator words.

    kind "endo": powers of one endomorphism (words are ints >= 0);
    kind "auto": powers of one automorphism (words are ints);
    kind "cyclic": one generator of finite order (words are ints mod order);
    kind "free": free words over several generators (tuples of indices).
    """

    def __init__(self, kind: str, gens: Sequence[str] = ("sigma",), order: int | None = None):
        if kind not in ("endo", "auto", "cyclic", "free"):
            raise ValueError(f"unknown monoid kind {kind!r}")
        if kind == "cyclic" and (order is None or order < 1):
            raise ValueError("cyclic monoid needs a positive order")
        if kind != "free" and len(gens) != 1:
            raise ValueError(f"monoid kind {kind!r} has exactly one generator")
        self.kind = kind
        self.gens = tuple(gens)
        self.order = order

    def unit(self):
        return () if self.kind == "free" else 0

    def compose(self, w1, w2):
        if self.kind == "free":
            return tuple(w1) + tuple(w2)
        s = w1 + w2
        return s % self.order if self.kind == "cyclic" else s

    def words(self, bound: int) -> list:
        if self.kind == "endo":
            return list(range(bound + 1))
        if self.kind == "auto":
            return list(range(-bound, bound + 1))
        if self.kind == "cyclic":
            return list(range(min(bound + 1, self.order)))
        out: list = [()]
        frontier: list = [()]
        for _ in range(bound):
            frontier = [w + (i,) for w in frontier for i in range(len(self.gens))]
            out.extend(frontier)
        return out

    def length(self, w) -> int:
        return len(w) if self.kind == "free" else abs(w)

    def in_bound(self, w, bound: int) -> bool:
        if self.kind == "cyclic":
            return 0 <= w < self.order and self.length(w) <= max(bound, self.order - 1)
        return self.length(w) <= bound

    def word_str(self, w) -> str:
        if self.kind == "free":
            return "1" if not w else "*".join(self.gens[i] for i in w)
        g = self.gens[0]
        if w == 0:
            return "1"
        if w == 1:
            return g
        return f"{g}^{w}"

    def __eq__(self, other):
        return (
            isinstance(other, MonoidDesc)
            and (self.kind, self.gens, self.order) == (other.kind, other.gens, other.order)
        )

    def __hash__(self):
        return hash((self.kind, self.gens, self.order))

    def __repr__(self):
        extra = f", order={self.order}" if self.order else ""
        return f"MonoidDesc({self.kind!r}, {self.gens}{extra})"


TRIVIAL_WORD_BOUND = 0
DEFAULT_WORD_BOUND = 8


# ------------------------------------------------------------- hom elements


class HomElement:
    """Realization of a function on the acting bialgebra.

    data maps monoid words to truncated series in the t-variables over ring;
    the value on the basis operator (word g, multi-index k) is the t^k
    coefficient of data[g].  Missing words are unknown (outside the word
    bound), not zero.  The values may themselves be series: over a
    SeriesRing in w they are w-series, and the element is a function with
    values in L[[w]], the form of taylor.ExpansionAlgebra.
    """

    __slots__ = ("ring", "monoid", "tvars", "horizon", "word_bound", "data")

    def __init__(self, ring, monoid: MonoidDesc | None, tvars: Sequence[str], horizon: int,
                 word_bound: int, data: dict):
        self.ring = ring
        self.monoid = monoid
        self.tvars = tuple(tvars)
        self.horizon = horizon
        self.word_bound = word_bound
        self.data = {w: s for w, s in data.items()
                     if monoid is None or monoid.in_bound(w, word_bound)}

    def _unit_word(self):
        return self.monoid.unit() if self.monoid is not None else 0

    def _check(self, other: "HomElement"):
        if (
            self.ring is not other.ring
            or self.monoid != other.monoid
            or self.tvars != other.tvars
            or self.horizon != other.horizon
            or self.word_bound != other.word_bound
        ):
            raise ValueError("hom element context mismatch")

    def value(self, word, k: tuple[int, ...]):
        if word not in self.data:
            raise KeyError(f"word {word} outside the stored bound")
        return self.data[word].coeff(k)

    def is_zero(self) -> bool:
        return all(s.is_zero() for s in self.data.values())

    def ev_unit(self):
        """Evaluation at the unit operator (counit direction)."""
        return self.value(self._unit_word(), (0,) * len(self.tvars))

    def __add__(self, other):
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: self.data[w] + other.data[w] for w in common},
        )

    def __neg__(self):
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: -s for w, s in self.data.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution: wordwise product of the t-series (the coproduct is
        grouplike on words and splits the t-indices)."""
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: self.data[w] * other.data[w] for w in common},
        )

    def one(self) -> "HomElement":
        """The unit on the words of this element, in its context."""
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: TruncSeries.one(self.ring, self.tvars, self.horizon) for w in self.data},
        )

    def scale(self, c) -> "HomElement":
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: s.scale(c) for w, s in self.data.items()},
        )

    def map_coeffs(self, fn, ring) -> "HomElement":
        """The element over ring with fn applied to every value."""
        return HomElement(ring, self.monoid, self.tvars, self.horizon, self.word_bound,
                          {w: s.map_coeffs(fn, ring) for w, s in self.data.items()})

    def hasse_deriv(self, k: tuple[int, ...]) -> "HomElement":
        """The divided derivative of order k of every value, which must be
        a series: over a SeriesRing in w, the derivative in the w
        direction."""
        return self.map_coeffs(lambda c: c.hasse_deriv(k), self.ring)

    def translate(self, word, k: tuple[int, ...]) -> "HomElement":
        """Right translation by the operator (word, k): the new value at
        (g, j) is binom(j+k, j) times the old value at (g*word, j+k).

        The t-horizon shrinks by |k| and the word bound by the word length;
        shrinking below zero is an error."""
        k = tuple(k)
        new_h = self.horizon - sum(k)
        if new_h < 0:
            raise ValueError("translation shrinks the horizon below zero")
        if self.monoid is None:
            if word not in (0, None) and word != ():
                raise ValueError("no monoid part in this realization")
            new_wb = self.word_bound
            out = {w: s.hasse_deriv(k).with_horizon(new_h) for w, s in self.data.items()}
            return HomElement(self.ring, self.monoid, self.tvars, new_h, new_wb, out)
        new_wb = self.word_bound - self.monoid.length(word)
        if new_wb < 0:
            raise ValueError("translation shrinks the word bound below zero")
        out = {}
        for w in self.data:
            if not self.monoid.in_bound(w, new_wb):
                continue
            tgt = self.monoid.compose(w, word)
            if tgt in self.data:
                out[w] = self.data[tgt].hasse_deriv(k).with_horizon(new_h)
        return HomElement(self.ring, self.monoid, self.tvars, new_h, new_wb, out)

    def truncate(self, horizon: int, word_bound: int | None = None) -> "HomElement":
        wb = self.word_bound if word_bound is None else word_bound
        out = {}
        for w, s in self.data.items():
            if self.monoid is None or self.monoid.in_bound(w, wb):
                out[w] = s.with_horizon(horizon)
        return HomElement(self.ring, self.monoid, self.tvars, horizon, wb, out)

    def __eq__(self, other):
        if not isinstance(other, HomElement):
            return NotImplemented
        self._check(other)
        if self.data.keys() != other.data.keys():
            return False
        return all(self.data[w] == other.data[w] for w in self.data)

    def __str__(self):
        if self.monoid is None or self.word_bound == 0:
            return str(self.data.get(self._unit_word(), "0"))
        items = sorted(self.data.items(), key=lambda t: (self.monoid.length(t[0]), str(t[0])))
        return "; ".join(f"{self.monoid.word_str(w)} -> {s}" for w, s in items)

    def __repr__(self):
        return f"HomElement({self})"


# ------------------------------------------------------------- action spec


class ActionSpec:
    """A declared module-algebra structure on a ring context."""

    def __init__(self, ring, kind: str, n: int = 0,
                 theta_images: dict | None = None,
                 d_images: dict | None = None,
                 monoid: MonoidDesc | None = None,
                 endo_maps: Sequence[dict] | None = None,
                 inv_maps: Sequence[dict] | None = None,
                 commutation=None,
                 wvars: Sequence[str] | None = None):
        self.ring = ring
        self.kind = kind
        self.n = n
        self.theta_images = dict(theta_images or {})
        self.d_images = dict(d_images or {})
        self.monoid = monoid
        self.endo_maps = [dict(m) for m in (endo_maps or [])]
        self.inv_maps = [dict(m) for m in (inv_maps or [])] if inv_maps else None
        self.commutation = commutation
        if wvars is None:
            wvars = ("w",) if n == 1 else tuple(f"w{i+1}" for i in range(n))
        self.wvars = tuple(wvars)
        self._check_shape()
        # horizon -> GeneratorPowers of the theta images, filled by theta_series
        self._theta_powers: dict = {}

    def _check_shape(self):
        if not isinstance(self.ring, (FracField, PolyRing)):
            from .exactalg import AlgebraicField

            if not isinstance(self.ring, AlgebraicField):
                raise ValueError(f"unsupported ring context {self.ring!r}")
        if self.kind not in ("trivial", "der", "iterder", "end", "smash"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("der", "iterder", "smash") and self.n < 1:
            raise ValueError("derivation actions need n >= 1")
        if self.kind in ("end", "smash") and self.monoid is None:
            raise ValueError("monoid actions need a monoid description")
        if self.kind == "der" and self.ring.char != 0:
            raise ValueError("plain derivations are supported in characteristic 0 only; "
                             "use iterder in characteristic p")

    @property
    def char(self) -> int:
        return self.ring.char

    def has_theta(self) -> bool:
        return self.kind in ("der", "iterder", "smash")

    def has_monoid(self) -> bool:
        return self.monoid is not None and self.kind in ("end", "smash")

    def default_word_bound(self) -> int:
        return DEFAULT_WORD_BOUND if self.has_monoid() else TRIVIAL_WORD_BOUND

    # ----------------------------------------------------- generator images
    def _der_series(self, name: str, horizon: int) -> TruncSeries:
        """The divided powers sum_k d^k(g)/k! w^k of the derivation at the
        generator name, each d(a) read off the ring map at horizon 1 (see
        the module docstring)."""
        ring = self.ring
        S = SeriesRing(ring, self.wvars, 1)
        declared = {v: TruncSeries(ring, self.wvars, 1, {(0,): ring.var(v), (1,): d})
                    for v, d in self.d_images.items()}
        # d vanishes on a generator when neither it nor its partner declares d
        fixed = {v: S.scalar(ring.var(v)) for v in ring.vars
                 if v not in declared and ring.partners.get(v) not in declared}
        first = GeneratorPowers(S, {**fixed, **declared})
        cur = ring.var(name)
        out = {(0,): cur}
        for k in range(1, horizon + 1):
            cur = ring.hom(cur, first, lambda c: S.scalar(ring.scalar(c))).coeff((1,))
            if ring.is_zero(cur):
                break
            inv_fact = ring.from_int(math.factorial(k))
            out[(k,)] = ring.mul(cur, ring.inv(inv_fact))
        return TruncSeries(ring, self.wvars, horizon, out)

    # --------------------------------------------------------- application
    def _apply_with(self, maps: Sequence[dict], gen_idx: int, elem):
        ring = self.ring
        try:
            return ring.hom(elem, GeneratorPowers(ring, maps[gen_idx]), ring.scalar)
        except ZeroDivisionError as exc:
            raise ValueError(f"endomorphism {gen_idx} cannot act on {ring.to_str(elem)}: "
                             f"{exc}") from None

    def apply_generator(self, gen_idx: int, elem):
        """Apply one monoid generator to a ring element."""
        return self._apply_with(self.endo_maps, gen_idx, elem)

    def apply_generator_inverse(self, gen_idx: int, elem):
        """Apply the declared inverse of one monoid generator."""
        if self.inv_maps is None:
            raise ValueError("action has no declared inverses")
        return self._apply_with(self.inv_maps, gen_idx, elem)

    def apply_word(self, word, elem):
        if not self.has_monoid():
            if word in ((), 0, None):
                return elem
            raise ValueError("action has no monoid part")
        kind = self.monoid.kind
        if kind == "free":
            for idx in reversed(word):
                elem = self.apply_generator(idx, elem)
            return elem
        k = word % self.monoid.order if kind == "cyclic" else word
        if k >= 0:
            for _ in range(k):
                elem = self.apply_generator(0, elem)
        else:
            for _ in range(-k):
                elem = self.apply_generator_inverse(0, elem)
        return elem

    def theta_series(self, elem, horizon: int) -> TruncSeries:
        """The derivation expansion sum_k theta^(k)(elem) w^k.

        It is the ring's hom into the series of this horizon.  The
        horizon-adjusted images of the generators and their powers are built
        on the first call at each horizon and kept on this action,
        so they live exactly as long as it does; a later call extends a power
        row only when it needs a higher exponent.  An element's numerator and
        denominator are sums of scaled cached powers, and a fraction costs one
        TruncSeries.divide, none when its denominator is a monomial, which
        deforms to cached powers of reciprocal images; so a constant deforms
        to the constant series, and the polynomial coefficients that umemura
        deforms after clearing denominators cost no division."""
        ring = self.ring
        if not self.has_theta() and self.kind != "trivial":
            return TruncSeries.const(ring, (), 0, elem)
        if self.kind == "trivial":
            return TruncSeries.const(ring, self.wvars, horizon, elem)
        powers = self._theta_powers.get(horizon)
        if powers is None:
            if self.kind == "der":
                images = {name: self._der_series(name, horizon) for name in ring.vars}
            else:
                images = {name: s.with_horizon(horizon) for name, s in self.theta_images.items()}
            powers = self._theta_powers[horizon] = GeneratorPowers(
                SeriesRing(ring, self.wvars, horizon), images)
        S = powers.target
        return ring.hom(elem, powers, lambda c: S.scalar(ring.scalar(c)))

    def theta_coefficient(self, elem, k: tuple[int, ...]):
        return self.theta_series(elem, sum(k)).coeff(k)

    # ----------------------------------------------------------- expansion
    def tvars(self) -> tuple[str, ...]:
        if not self.has_theta() and self.kind != "trivial":
            return ()
        return ("t",) if self.n in (0, 1) else tuple(f"t{i+1}" for i in range(self.n))

    def expand(self, elem, horizon: int, word_bound: int | None = None) -> HomElement:
        """The universal expansion of a ring element: for every word g within
        the bound, the series sum_k theta^(k)(g(elem)) t^k."""
        if word_bound is None:
            word_bound = self.default_word_bound()
        tvars = self.tvars()
        monoid = self.monoid if self.has_monoid() else None
        data = {}
        words = monoid.words(word_bound) if monoid is not None else [0]
        for w in words:
            moved = self.apply_word(w, elem) if monoid is not None else elem
            if tvars:
                s = self.theta_series(moved, horizon)
                s = TruncSeries(s.ring, tvars, horizon, s.terms)
            else:
                s = TruncSeries.const(self.ring, (), 0, moved)
            data[w] = s
        h = horizon if tvars else 0
        return HomElement(self.ring, monoid, tvars, h, word_bound if monoid is not None else 0, data)

    def constant_expansion(self, elem, horizon: int, word_bound: int | None = None) -> HomElement:
        """Expansion for the trivial structure: the counit times the element."""
        if word_bound is None:
            word_bound = self.default_word_bound()
        tvars = self.tvars()
        monoid = self.monoid if self.has_monoid() else None
        words = monoid.words(word_bound) if monoid is not None else [0]
        if tvars:
            s = TruncSeries.const(self.ring, tvars, horizon, elem)
        else:
            s = TruncSeries.const(self.ring, (), 0, elem)
        data = {w: s for w in words}
        h = horizon if tvars else 0
        return HomElement(self.ring, monoid, tvars, h, word_bound if monoid is not None else 0, data)

    def __repr__(self):
        return f"ActionSpec({self.kind!r}, ring={self.ring!r}, n={self.n})"


def d_basis_entries(action: ActionSpec, horizon: int) -> list[tuple]:
    """Representative operators: derivation orders and monoid generators."""
    out = []
    if action.has_theta():
        n = max(action.n, 1)
        for k in multi_indices(n, horizon):
            if any(k):
                out.append(("theta", tuple(k)))
    if action.has_monoid():
        for g in range(len(action.monoid.gens)):
            out.append(("endo", g))
    return out


# ------------------------------------------------------------------ reports


class Report:
    """Outcome of a verification: ok flag, witnesses, and the bounds used."""

    def __init__(self, ok: bool, checked: int, failures: list[str], bounds: dict):
        self.ok = ok
        self.checked = checked
        self.failures = failures
        self.bounds = bounds

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "failures": list(self.failures),
            "bounds": dict(self.bounds),
        }

    def __bool__(self):
        return self.ok

    def __repr__(self):
        status = "pass" if self.ok else "fail"
        tail = f"; first failure: {self.failures[0]}" if self.failures else ""
        return f"Report({status}, checked={self.checked}{tail})"


# ----------------------------------------------------------------- constants


def constants(ring, action, degree: int, horizon: int | None = None) -> list:
    """Scalar-field basis of the elements fixed by every tested operator.

    The search space is the span of generator monomials of total degree <=
    degree (inverse-pair exponents included).  In characteristic p the
    derivation conditions are imposed for the divided powers of orders 1,
    p, p^2, ... along each direction only, which cut the same kernel: every
    divided power is a product of these by Lucas' theorem."""
    if horizon is None:
        horizon = max(degree, 2)
    basis = monomial_basis(ring, degree)
    scalars = ring.scalars
    columns: list[list] = [[] for _ in basis]
    if action.has_theta():
        tlen = max(action.n, 1)
        if ring.char == 0:
            orders = [k for k in multi_indices(tlen, horizon) if any(k)]
        else:
            orders = []
            for pos in range(tlen):
                q = 1
                while q <= horizon:
                    k = [0] * tlen
                    k[pos] = q
                    orders.append(tuple(k))
                    q *= ring.char
        for j, b in enumerate(basis):
            s = action.theta_series(b, horizon)
            for k in orders:
                columns[j].append(s.coeff(k))
    if action.has_monoid():
        for g_idx in range(len(action.monoid.gens)):
            for j, b in enumerate(basis):
                moved = action.apply_generator(g_idx, b)
                columns[j].append(ring.sub(moved, b))
    if not columns[0]:
        return basis
    return kernel_elements(ring, basis, restriction_kernel(columns, ring, scalars))


def kernel_elements(ring, basis: list, kernel: list[list]) -> list:
    """The elements sum_j x_j * basis[j] for the scalar vectors x of kernel."""
    out = []
    for vec in kernel:
        elem = ring.zero()
        for x, b in zip(vec, basis):
            if not ring.scalars.is_zero(x):
                elem = ring.add(elem, ring.mul(b, ring.const(x)))
        out.append(elem)
    return out


def monomial_basis(ring, degree: int) -> list:
    """The distinct monomials of total degree <= degree in the generators of
    ring, in the order of multi_indices; a monomial that an inverse pair
    reduces to an earlier one is kept once, at its first place.  Each
    monomial is one product: an earlier monomial times one generator."""
    gens = ring.gens()
    built: dict = {}
    seen = set()
    out = []
    for exp in multi_indices(len(gens), degree):
        j = next((i for i, e in enumerate(exp) if e), None)
        if j is None:
            m = ring.one()
        else:
            m = ring.mul(built[exp[:j] + (exp[j] - 1,) + exp[j + 1:]], gens[j])
        built[exp] = m
        key = ring.to_str(m)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out
