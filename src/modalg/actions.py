"""Bialgebra actions on rings and their function-space realizations.

An ActionSpec fixes which bialgebra acts and how its generators move the
ring generators.  The shape of an action is n >= 0 derivation directions
together with a monoid of endomorphisms.  An action that declares no monoid
has the trivial monoid {1}, TRIVIAL_MONOID, the free monoid on no
generators, whose only word is the unit ().  The kind names how the two
parts are declared:

  trivial            every operator acts through the counit, for any n >= 0
  der                one derivation d, characteristic 0, declared by the
                     images d(g) of the generators g (0 where undeclared;
                     an undeclared inverse-pair partner follows its
                     partner) and realized through its divided powers
                     d^k/k!.  d extends to every element through the ring
                     map: d(a) is the coefficient of w in the image of a
                     under g -> g + d(g) w into series of horizon 1
  iterder(n)         n commuting iterative derivations: generator images are
                     truncated series  theta(g) = g + ... in w_1..w_n
  end                n = 0 and one endomorphism per generator of the
                     declared MonoidDesc, whose kind sets the words: powers
                     of one endomorphism ("endo") or automorphism ("auto",
                     with declared inverses), a cyclic group, or free words
  smash              iterder(n) together with a monoid part; the monoid
                     commutes with the derivations

An action that declares neither theta_images nor d_images acts through the
counit in its n directions.  ActionSpec checks the shape when it is built:
end and smash need a monoid with one endomorphism per generator (and an
inverse for "auto"), and the other kinds take none; theta_images belong to
iterder and smash only, d_images to der only.

The realization of an element a is a HomElement: for each monoid word g
within the word bound, the truncated series sum_k theta^(k)(g(a)) t^k.  The
series multiply wordwise under convolution, the counit is evaluation at the
empty word and t = 0, and translation by an operator shifts the series and
the word, with the horizon shrinking accordingly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .exactalg import FracField, GeneratorPowers, Interned, PolyRing, restriction_kernel
from .lieritt import multi_indices
from .series import SeriesRing, TruncSeries


# ------------------------------------------------------------------ monoid


class MonoidDesc(metaclass=Interned):
    """Monoid of operator words.

    kind "endo": powers of one endomorphism (words are ints >= 0);
    kind "auto": powers of one automorphism (words are ints);
    kind "cyclic": one generator of finite order (words are ints mod order);
    kind "free": free words over several generators (tuples of indices).

    Descriptions are interned like the ring contexts (exactalg.Interned):
    equal arguments give the same object, so monoids compare by identity.
    """

    @staticmethod
    def _intern_key(kind: str, gens: Sequence[str] = ("sigma",), order: int | None = None):
        return kind, tuple(gens), order

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

    def check_word(self, w):
        """ValueError unless w is a word of this monoid: an int >= 0 for
        "endo", an int for "auto", 0 <= w < order for "cyclic", a tuple of
        generator indices for "free"."""
        kind = self.kind
        if kind == "free":
            ok = type(w) is tuple and all(type(i) is int and 0 <= i < len(self.gens) for i in w)
        elif kind == "cyclic":
            ok = type(w) is int and 0 <= w < self.order
        else:
            ok = type(w) is int and (kind == "auto" or w >= 0)
        if not ok:
            raise ValueError(f"{w!r} is not a word of {self!r}")

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

    def __repr__(self):
        extra = f", order={self.order}" if self.order else ""
        return f"MonoidDesc({self.kind!r}, {self.gens}{extra})"


TRIVIAL_MONOID = MonoidDesc("free", gens=())
DEFAULT_WORD_BOUND = 8


# ------------------------------------------------------------- hom elements


class HomElement:
    """Realization of a function on the acting bialgebra.

    data maps monoid words to truncated series in the t-variables over ring;
    the value on the basis operator (word g, multi-index k) is the t^k
    coefficient of data[g].  Missing words are unknown (outside the word
    bound), not zero.  The values may themselves be series: over a
    SeriesRing in w they are w-series, and the element is a function with
    values in L[[w]], the form of taylor.ExpansionAlgebra.  Every word of
    the trivial monoid has length 0, so its word bound is 0.
    """

    __slots__ = ("ring", "monoid", "tvars", "horizon", "word_bound", "data")

    def __init__(self, ring, monoid: MonoidDesc, tvars: Sequence[str], horizon: int,
                 word_bound: int, data: dict):
        self.ring = ring
        self.monoid = monoid
        self.tvars = tuple(tvars)
        self.horizon = horizon
        self.word_bound = word_bound if monoid.gens else 0
        self.data = {w: s for w, s in data.items() if monoid.in_bound(w, self.word_bound)}

    def _make(self, data: dict, ring=None, horizon: int | None = None,
              word_bound: int | None = None) -> "HomElement":
        """An element of this shape, with the given parts replaced, from data
        whose words are already within its bound, so nothing is refiltered."""
        out = HomElement.__new__(HomElement)
        out.ring = self.ring if ring is None else ring
        out.monoid, out.tvars = self.monoid, self.tvars
        out.horizon = self.horizon if horizon is None else horizon
        out.word_bound = self.word_bound if word_bound is None else word_bound
        out.data = data
        return out

    def _check(self, other: "HomElement"):
        if (
            self.ring is not other.ring
            or self.monoid is not other.monoid
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
        return self.value(self.monoid.unit(), (0,) * len(self.tvars))

    def __add__(self, other):
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return self._make({w: self.data[w] + other.data[w] for w in common})

    def __neg__(self):
        return self._make({w: -s for w, s in self.data.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution: wordwise product of the t-series (the coproduct is
        grouplike on words and splits the t-indices)."""
        self._check(other)
        common = self.data.keys() & other.data.keys()
        return self._make({w: self.data[w] * other.data[w] for w in common})

    def one(self) -> "HomElement":
        """The unit on the words of this element, in its context."""
        return self._make({w: TruncSeries.one(self.ring, self.tvars, self.horizon)
                           for w in self.data})

    def scale(self, c) -> "HomElement":
        return self._make({w: s.scale(c) for w, s in self.data.items()})

    def map_coeffs(self, fn, ring) -> "HomElement":
        """The element over ring with fn applied to every value."""
        return self._make({w: s.map_coeffs(fn, ring) for w, s in self.data.items()}, ring=ring)

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
        self.monoid.check_word(word)
        k = tuple(k)
        new_h = self.horizon - sum(k)
        if new_h < 0:
            raise ValueError("translation shrinks the horizon below zero")
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
        return self._make(out, horizon=new_h, word_bound=new_wb)

    def truncate(self, horizon: int) -> "HomElement":
        return self._make({w: s.with_horizon(horizon) for w, s in self.data.items()},
                          horizon=horizon)

    def __eq__(self, other):
        if not isinstance(other, HomElement):
            return NotImplemented
        self._check(other)
        if self.data.keys() != other.data.keys():
            return False
        return all(self.data[w] == other.data[w] for w in self.data)

    def __str__(self):
        if self.word_bound == 0:
            return str(self.data.get(self.monoid.unit(), "0"))
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
                 monoid: MonoidDesc = TRIVIAL_MONOID,
                 endo_maps: Sequence[dict] | None = None,
                 inv_maps: Sequence[dict] | None = None,
                 wvars: Sequence[str] | None = None):
        self.ring = ring
        self.kind = kind
        self.n = n
        self.theta_images = dict(theta_images or {})
        self.d_images = dict(d_images or {})
        self.monoid = monoid
        self.endo_maps = [dict(m) for m in (endo_maps or [])]
        self.inv_maps = [dict(m) for m in (inv_maps or [])] if inv_maps else None
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
        if self.kind == "der" and self.n != 1:
            raise ValueError("der declares one derivation, so n = 1")
        if self.kind == "end" and self.n:
            raise ValueError("endomorphism actions have n = 0")
        wants_monoid = self.kind in ("end", "smash")
        if self.has_monoid() != wants_monoid:
            need = "needs a monoid with generators" if wants_monoid else "takes no monoid"
            raise ValueError(f"kind {self.kind!r} {need}")
        if len(self.endo_maps) != len(self.monoid.gens):
            raise ValueError(f"{len(self.monoid.gens)} monoid generators need as many "
                             f"endo_maps, got {len(self.endo_maps)}")
        if self.monoid.kind == "auto" and len(self.inv_maps or ()) != 1:
            raise ValueError("an auto monoid needs one map in inv_maps")
        if self.theta_images and self.kind not in ("iterder", "smash"):
            raise ValueError(f"kind {self.kind!r} takes no theta_images")
        if self.d_images and self.kind != "der":
            raise ValueError(f"kind {self.kind!r} takes no d_images")
        if self.kind == "der" and self.ring.char != 0:
            raise ValueError("plain derivations are supported in characteristic 0 only; "
                             "use iterder in characteristic p")

    @property
    def char(self) -> int:
        return self.ring.char

    def has_theta(self) -> bool:
        return self.n > 0

    def has_monoid(self) -> bool:
        return bool(self.monoid.gens)

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
        self.monoid.check_word(word)
        if self.monoid.kind == "free":
            for idx in reversed(word):
                elem = self.apply_generator(idx, elem)
            return elem
        if word >= 0:
            for _ in range(word):
                elem = self.apply_generator(0, elem)
        else:
            for _ in range(-word):
                elem = self.apply_generator_inverse(0, elem)
        return elem

    def theta_series(self, elem, horizon: int) -> TruncSeries:
        """The derivation expansion sum_k theta^(k)(elem) w^k.

        An action that declares no images acts through the counit, so elem
        maps to its constant series.  Otherwise it is the ring's hom into
        the series of this horizon.  The
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
        if not (self.theta_images or self.d_images):
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
        return ("t",) if self.n == 1 else tuple(f"t{i+1}" for i in range(self.n))

    def expand(self, elem, horizon: int, word_bound: int = DEFAULT_WORD_BOUND) -> HomElement:
        """The universal expansion of a ring element: for every word g within
        the bound, the series sum_k theta^(k)(g(elem)) t^k.  With no
        t-variables the horizon is 0."""
        tvars = self.tvars()
        h = horizon if tvars else 0
        data = {}
        for w in self.monoid.words(word_bound):
            s = self.theta_series(self.apply_word(w, elem), h)
            data[w] = TruncSeries(s.ring, tvars, h, s.terms)
        return HomElement(self.ring, self.monoid, tvars, h, word_bound, data)

    def constant_expansion(self, elem, horizon: int,
                           word_bound: int = DEFAULT_WORD_BOUND) -> HomElement:
        """Expansion for the trivial structure: the counit times the element."""
        tvars = self.tvars()
        h = horizon if tvars else 0
        s = TruncSeries.const(self.ring, tvars, h, elem)
        return HomElement(self.ring, self.monoid, tvars, h, word_bound,
                          dict.fromkeys(self.monoid.words(word_bound), s))

    def __repr__(self):
        return f"ActionSpec({self.kind!r}, ring={self.ring!r}, n={self.n})"


def d_basis_entries(action: ActionSpec, horizon: int) -> list[tuple]:
    """Representative operators: derivation orders and monoid generators."""
    out = [("theta", tuple(k)) for k in multi_indices(action.n, horizon) if any(k)]
    return out + [("endo", g) for g in range(len(action.monoid.gens))]


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
    columns: list[list] = [[] for _ in basis]
    if action.has_theta():
        if ring.char == 0:
            orders = [k for k in multi_indices(action.n, horizon) if any(k)]
        else:
            orders = []
            for pos in range(action.n):
                q = 1
                while q <= horizon:
                    k = [0] * action.n
                    k[pos] = q
                    orders.append(tuple(k))
                    q *= ring.char
        for j, b in enumerate(basis):
            s = action.theta_series(b, horizon)
            for k in orders:
                columns[j].append(s.coeff(k))
    for g_idx in range(len(action.monoid.gens)):
        for j, b in enumerate(basis):
            moved = action.apply_generator(g_idx, b)
            columns[j].append(ring.sub(moved, b))
    if not columns[0]:
        return basis
    return kernel_elements(ring, basis, restriction_kernel(columns, ring))


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
