"""Bialgebra actions on rings and their function-space realizations.

An ActionSpec fixes which bialgebra acts and how its generators move the
ring generators.  Supported shapes:

  trivial            every operator acts through the counit
  der                one derivation, characteristic 0 (realized through its
                     divided powers d^k/k!)
  iterder(n)         n commuting iterative derivations: generator images are
                     truncated series  theta(g) = g + ... in w_1..w_n
  end / auto         one (injective) endomorphism / automorphism sigma
  monoid             finitely many endomorphism generators, free words
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

import itertools
from typing import Callable, Iterable, Sequence

from .exactalg import Frac, FracField, PolyRing, ProductField, restriction_kernel
from .exactalg.algext import AlgebraicField
from .lieritt import multi_indices
from .series import TruncSeries


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

    data maps monoid words to truncated series in the t-variables; the value
    on the basis operator (word g, multi-index k) is the t^k coefficient of
    data[g].  Missing words are unknown (outside the word bound), not zero.
    """

    __slots__ = ("ring", "monoid", "tvars", "horizon", "word_bound", "data")

    def __init__(self, ring, monoid: MonoidDesc | None, tvars: Sequence[str], horizon: int,
                 word_bound: int, data: dict):
        self.ring = ring
        self.monoid = monoid
        self.tvars = tuple(tvars)
        self.horizon = horizon
        self.word_bound = word_bound
        self.data = {}
        for w, s in data.items():
            if monoid is not None and not monoid.in_bound(w, word_bound):
                continue
            self.data[w] = s

    def _unit_word(self):
        return self.monoid.unit() if self.monoid is not None else 0

    def _check(self, other: "HomElement"):
        if (
            self.ring != other.ring
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

    def scale(self, c) -> "HomElement":
        return HomElement(
            self.ring, self.monoid, self.tvars, self.horizon, self.word_bound,
            {w: s.scale(c) for w, s in self.data.items()},
        )

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
            out = {w: s.hasse_deriv(k).truncate(new_h) for w, s in self.data.items()}
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
                out[w] = self.data[tgt].hasse_deriv(k).truncate(new_h)
        return HomElement(self.ring, self.monoid, self.tvars, new_h, new_wb, out)

    def truncate(self, horizon: int, word_bound: int | None = None) -> "HomElement":
        wb = self.word_bound if word_bound is None else word_bound
        out = {}
        for w, s in self.data.items():
            if self.monoid is None or self.monoid.in_bound(w, wb):
                out[w] = s.truncate(horizon)
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

    def _check_shape(self):
        if self.kind not in ("trivial", "der", "iterder", "end", "auto", "monoid", "smash"):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("der", "iterder", "smash") and self.n < 1:
            raise ValueError("derivation actions need n >= 1")
        if self.kind in ("end", "auto", "monoid", "smash") and self.monoid is None:
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
        return self.monoid is not None and self.kind in ("end", "auto", "monoid", "smash")

    def default_word_bound(self) -> int:
        return DEFAULT_WORD_BOUND if self.has_monoid() else TRIVIAL_WORD_BOUND

    # ----------------------------------------------------- generator images
    def _gen_names(self) -> tuple[str, ...]:
        ring = self.ring
        if isinstance(ring, (FracField, PolyRing, AlgebraicField)):
            return ring.vars
        raise ValueError(f"unsupported ring context {ring!r}")

    def _gen_element(self, name: str):
        ring = self.ring
        return ring.var(name)

    def _theta_image(self, name: str, horizon: int) -> TruncSeries:
        """theta(gen) as a series in the w variables, horizon-adjusted."""
        if self.kind == "trivial" or not self.has_theta():
            return TruncSeries.const(self.ring, self.wvars, horizon, self._gen_element(name))
        if self.kind == "der":
            return self._der_series(name, horizon)
        if name in self.theta_images:
            return self.theta_images[name].with_horizon(horizon)
        partner = self._inverse_partner(name)
        if partner is not None and partner in self.theta_images:
            return self.theta_images[partner].with_horizon(horizon).recip()
        raise KeyError(f"no derivation image declared for generator {name!r}")

    def _inverse_partner(self, name: str) -> str | None:
        ring = self.ring
        if isinstance(ring, PolyRing) and ring.inverse_pairs:
            for i, j in ring.inverse_pairs:
                if ring.vars[i] == name:
                    return ring.vars[j]
                if ring.vars[j] == name:
                    return ring.vars[i]
        return None

    def _der_series(self, name: str, horizon: int) -> TruncSeries:
        # divided powers of a single derivation: sum d^k(g)/k! w^k
        import math

        ring = self.ring
        out = {(0,): self._gen_element(name)}
        cur = self._gen_element(name)
        for k in range(1, horizon + 1):
            cur = self._apply_derivation(cur)
            if ring.is_zero(cur):
                break
            inv_fact = ring.from_int(math.factorial(k))
            out[(k,)] = ring.mul(cur, ring.inv(inv_fact))
        return TruncSeries(ring, self.wvars, horizon, out)

    def _apply_derivation(self, elem):
        """Extend the declared derivation from the generators by the Leibniz
        and quotient rules."""
        ring = self.ring
        if isinstance(ring, FracField):
            num, den = elem.num, elem.den
            dnum = self._derive_poly_into_field(num)
            dden = self._derive_poly_into_field(den)
            fden = ring.from_poly(den)
            return dnum / fden - ring.frac(num, den) * dden / fden
        out = ring.zero()
        for i, v in enumerate(ring.vars):
            img = self.d_images.get(v)
            if img is None:
                partner = self._inverse_partner(v)
                if partner is None or partner not in self.d_images:
                    continue
                # d(1/u) = -d(u) u^(-2), expressed through the inverse variable
                img = ring.neg(self.d_images[partner]) * ring.var(v) ** 2
            out = out + elem.partial(i) * img
        return out

    def _derive_poly_into_field(self, p):
        ring = self.ring
        total = ring.zero()
        for i, v in enumerate(ring.poly_ring.vars):
            img = self.d_images.get(v)
            if img is None:
                continue
            img_f = img if isinstance(img, Frac) else ring.from_poly(img)
            total = total + ring.from_poly(p.partial(i)) * img_f
        return total

    def _endo_image(self, maps: Sequence[dict], gen_idx: int, name: str):
        m = maps[gen_idx]
        if name in m:
            return m[name]
        partner = self._inverse_partner(name)
        if partner is not None and partner in m:
            img = m[partner]
            inv = img.unit_inverse_or_none() if hasattr(img, "unit_inverse_or_none") else None
            if inv is None and hasattr(img, "inverse"):
                inv = img.inverse()
            if inv is None:
                raise ValueError(
                    f"endomorphism image of {partner!r} is not a unit; cannot act on {name!r}"
                )
            return inv
        raise KeyError(f"no endomorphism image declared for generator {name!r}")

    # --------------------------------------------------------- application
    def _apply_with(self, maps: Sequence[dict], gen_idx: int, elem):
        images = {name: self._endo_image(maps, gen_idx, name) for name in self._gen_names()}
        return self._ring_hom(elem, images)

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
        """The derivation expansion sum_k theta^(k)(elem) w^k."""
        if not self.has_theta() and self.kind != "trivial":
            return TruncSeries.const(self.ring, (), 0, elem)
        if self.kind == "trivial":
            return TruncSeries.const(self.ring, self.wvars, horizon, elem)
        images = {name: self._theta_image(name, horizon) for name in self._gen_names()}
        return self._series_hom(elem, images, horizon)

    def theta_coefficient(self, elem, k: tuple[int, ...]):
        return self.theta_series(elem, sum(k)).coeff(k)

    def _ring_hom(self, elem, images: dict):
        ring = self.ring
        if isinstance(ring, FracField):
            num = self._poly_at(elem.num, images, ring)
            den = self._poly_at(elem.den, images, ring)
            return num / den
        if isinstance(ring, AlgebraicField):
            out = ring.zero()
            zpow = ring.one()
            for c in ring.decompose(elem):
                cnum = _frac_hom(c, images, ring)
                out = ring.add(out, ring.mul(cnum, zpow))
                zpow = ring.mul(zpow, images[ring.gen_name])
            return out
        out = ring.zero()
        for exp, c in elem.sorted_terms():
            t = ring.const(c)
            for i, e in enumerate(exp):
                for _ in range(e):
                    t = t * images[ring.vars[i]]
            out = out + t
        return out

    @staticmethod
    def _poly_at(p, images: dict, field: FracField):
        out = field.zero()
        for exp, c in p.sorted_terms():
            t = field.const(c)
            for i, e in enumerate(exp):
                for _ in range(e):
                    t = t * images[p.ring.vars[i]]
            out = out + t
        return out

    def _series_hom(self, elem, images: dict[str, TruncSeries], horizon: int) -> TruncSeries:
        ring = self.ring
        if isinstance(ring, FracField):
            num = self._poly_series(elem.num, images, horizon)
            den = self._poly_series(elem.den, images, horizon)
            return num * den.recip()
        if isinstance(ring, AlgebraicField):
            out = TruncSeries.zero(ring, self.wvars, horizon)
            zimg = images[ring.gen_name]
            zpow = TruncSeries.one(ring, self.wvars, horizon)
            for c in ring.decompose(elem):
                cser = _frac_series(c, images, ring, self.wvars, horizon)
                out = out + cser * zpow
                zpow = zpow * zimg
            return out
        return self._poly_series(elem, images, horizon)

    def _poly_series(self, p, images: dict[str, TruncSeries], horizon: int) -> TruncSeries:
        ring = self.ring
        out = TruncSeries.zero(ring, self.wvars, horizon)
        pow_cache: dict[tuple[str, int], TruncSeries] = {}

        def power(name: str, e: int) -> TruncSeries:
            if (name, e) not in pow_cache:
                pow_cache[(name, e)] = images[name] ** e
            return pow_cache[(name, e)]

        for exp, c in p.sorted_terms():
            t = TruncSeries.const(ring, self.wvars, horizon, ring.const(c))
            for i, e in enumerate(exp):
                if e:
                    t = t * power(p.ring.vars[i], e)
            out = out + t
        return out

    # ----------------------------------------------------------- expansion
    def tvars(self) -> tuple[str, ...]:
        if not self.has_theta() and self.kind != "trivial":
            return ()
        if self.kind == "trivial":
            return ("t",) if self.n in (0, 1) else tuple(f"t{i+1}" for i in range(self.n))
        return ("t",) if self.n == 1 else tuple(f"t{i+1}" for i in range(self.n))

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

    def d_basis(self, horizon: int, word_bound: int | None = None) -> list[tuple]:
        """Basis labels (word, multi-index) of the acting bialgebra within
        the bounds."""
        if word_bound is None:
            word_bound = self.default_word_bound()
        words = self.monoid.words(word_bound) if self.has_monoid() else [0]
        tlen = len(self.tvars())
        ks = multi_indices(tlen, horizon) if tlen else [()]
        return [(w, k) for w in words for k in ks]

    def counit(self, word, k: tuple[int, ...]):
        one = self.ring.from_int(1) if hasattr(self.ring, "from_int") else 1
        if any(k):
            return self.ring.from_int(0)
        return one

    def __repr__(self):
        return f"ActionSpec({self.kind!r}, ring={self.ring!r}, n={self.n})"


def _frac_hom(c: Frac, images: dict, alg: AlgebraicField):
    """Apply base-variable images to a base-field fraction, inside alg."""
    def poly_at(p):
        out = alg.zero()
        for exp, cc in p.sorted_terms():
            t = alg.from_base(alg.base.const(cc))
            for i, e in enumerate(exp):
                for _ in range(e):
                    t = alg.mul(t, images[p.ring.vars[i]])
            out = alg.add(out, t)
        return out

    return alg.div(poly_at(c.num), poly_at(c.den))


def _frac_series(c: Frac, images: dict[str, TruncSeries], alg: AlgebraicField,
                 wvars, horizon: int) -> TruncSeries:
    """Series image of a base-field fraction under base-variable images."""
    def poly_series(p):
        out = TruncSeries.zero(alg, wvars, horizon)
        for exp, cc in p.sorted_terms():
            t = TruncSeries.const(alg, wvars, horizon, alg.from_base(alg.base.const(cc)))
            for i, e in enumerate(exp):
                for _ in range(e):
                    t = t * images[p.ring.vars[i]]
            out = out + t
        return out

    return poly_series(c.num) * poly_series(c.den).recip()


def convolution(f: HomElement, g: HomElement) -> HomElement:
    return f * g


def translate(f: HomElement, word, k: tuple[int, ...]) -> HomElement:
    return f.translate(word, k)


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


def _lift_scalar(ring, c):
    """Embed a scalar-field value into the ring context."""
    if isinstance(ring, AlgebraicField):
        return ring.from_base(ring.base.const(c))
    if hasattr(ring, "const"):
        return ring.const(c)
    return c


def _test_elements(ring, depth: int) -> list:
    """Ring elements exercised by the checkers: monomials in the generators
    of total degree <= depth."""
    gens = ring.gens()
    one = ring.one()
    out = [one]
    frontier = [one]
    for _ in range(depth):
        frontier = [ring.mul(f, g) for f in frontier for g in gens]
        seen = []
        for f in frontier:
            if all(not ring.eq(f, s) for s in seen):
                seen.append(f)
        frontier = seen
        out.extend(frontier)
    uniq = []
    for f in out:
        if all(not ring.eq(f, s) for s in uniq):
            uniq.append(f)
    return uniq


def check_measuring(action: ActionSpec | Callable, ring, depth: int,
                    expander: Callable | None = None) -> Report:
    """Verify the multiplicative law of the expansion: the realization of a
    product is the convolution of the realizations, and the unit expands to
    the unit.  Failures carry the offending pair."""
    if expander is None:
        expander = lambda a: action.expand(a, depth, min(depth, 3) if action.has_monoid() else 0)  # noqa: E731
    elems = _test_elements(ring, max(depth // 2, 1))
    failures = []
    checked = 0
    one_img = expander(ring.one())
    unit_ok = True
    try:
        unit_val = one_img.ev_unit()
        unit_ok = ring.eq(unit_val, ring.one())
        ref = expander(ring.one())
        for w, s in ref.data.items():
            expect = TruncSeries.const(s.ring, s.vars, s.horizon, ring.one())
            if s != expect:
                unit_ok = False
    except Exception as exc:  # broken hand-made expanders land here
        unit_ok = False
        failures.append(f"unit expansion failed: {exc}")
    if not unit_ok and not failures:
        failures.append("expansion of 1 is not the unit")
    for a, b in itertools.combinations_with_replacement(elems, 2):
        checked += 1
        lhs = expander(ring.mul(a, b))
        rhs = expander(a) * expander(b)
        if lhs != rhs:
            failures.append(f"product law fails at (a, b) = ({a}, {b})")
            if len(failures) > 4:
                break
    return Report(not failures, checked, failures, {"depth": depth})


def check_module_algebra(action: ActionSpec, ring, depth: int,
                         expander: Callable | None = None) -> Report:
    """Verify compatibility with the operator algebra structure: the unit
    operator acts as the identity; iterated divided derivatives compose with
    binomial structure constants; monoid words compose; declared smash
    commutation rules hold."""
    failures: list[str] = []
    checked = 0
    elems = _test_elements(ring, max(depth // 2, 1))

    def expand(a, horizon):
        if expander is not None:
            return expander(a, horizon)
        return action.expand(a, horizon, 0 if not action.has_monoid() else min(depth, 3))

    for a in elems:
        checked += 1
        if not ring.eq(expand(a, depth).ev_unit(), a):
            failures.append(f"unit operator moves {a}")

    if action.has_theta() or action.kind == "der":
        tlen = max(action.n, 1)
        for a in elems:
            ea = expand(a, depth)
            unit_word = ea._unit_word()
            for i in multi_indices(tlen, depth):
                if not any(i):
                    continue
                da = ea.value(unit_word, i)
                eda = expand(da, depth - sum(i))
                for j in multi_indices(tlen, depth - sum(i)):
                    if sum(i) + sum(j) > depth:
                        continue
                    checked += 1
                    lhs = eda.value(unit_word, j)
                    from .exactalg import binom as _binom

                    c = _binom(tuple(x + y for x, y in zip(i, j)), i, ring.char)
                    ij = tuple(x + y for x, y in zip(i, j))
                    rhs = ring.mul(ea.value(unit_word, ij), _lift_scalar(ring, c))
                    if not ring.eq(lhs, rhs):
                        failures.append(
                            f"iteration rule fails at (i, j) = ({i}, {j}) on {a}"
                        )
                        break
                if failures:
                    break
            if failures:
                break

    if action.has_monoid() and action.monoid.kind == "free" and expander is None:
        for a in elems[: max(len(elems) // 2, 1)]:
            for w1 in action.monoid.words(1):
                for w2 in action.monoid.words(1):
                    checked += 1
                    lhs = action.apply_word(action.monoid.compose(w1, w2), a)
                    rhs = action.apply_word(w1, action.apply_word(w2, a))
                    if not ring.eq(lhs, rhs):
                        failures.append(f"word composition fails at {w1}, {w2} on {a}")

    if action.kind == "smash" and expander is None:
        rule = action.commutation
        for a in elems:
            for k in multi_indices(max(action.n, 1), min(depth, 3)):
                if not any(k):
                    continue
                checked += 1
                da = action.theta_coefficient(a, k)
                lhs = action.apply_generator(0, da)
                if rule is None:
                    rhs = action.theta_coefficient(action.apply_generator(0, a), k)
                else:
                    rhs = ring.zero() if hasattr(ring, "zero") else 0
                    for coeff, j in rule.get(tuple(k), [(ring.one(), tuple(k))]):
                        rhs = ring.add(rhs, ring.mul(coeff, action.theta_coefficient(
                            action.apply_generator(0, a), j)))
                if not ring.eq(lhs, rhs):
                    failures.append(f"commutation rule fails at k = {k} on {a}")
                    break
            if failures:
                break

    return Report(not failures, checked, failures, {"depth": depth})


# ----------------------------------------------------------------- constants


def constants(ring, action, degree: int, horizon: int | None = None) -> list:
    """Scalar-field basis of the elements fixed by every tested operator.

    The search space is the span of generator monomials of total degree <=
    degree (inverse-pair exponents included).  In characteristic p the
    derivation conditions are imposed for the divided powers at p-power
    orders only, which cut the same kernel."""
    if isinstance(ring, ProductRingSpec):
        return product_constants(ring, action, degree)
    if horizon is None:
        horizon = max(degree, 2)
    basis = _monomial_basis(ring, degree)
    scalars = ring.scalars if isinstance(ring, FracField) else ring.field
    columns: list[list] = [[] for _ in basis]
    if action.has_theta() or action.kind == "der":
        tlen = max(action.n, 1)
        if ring.char == 0:
            orders = [k for k in multi_indices(tlen, horizon) if any(k)]
        else:
            orders = []
            for pos in range(tlen):
                q = ring.char
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
    kernel = restriction_kernel(columns, ring, scalars)
    out = []
    for vec in kernel:
        elem = ring.zero()
        for x, b in zip(vec, basis):
            if not scalars.is_zero(x):
                elem = ring.add(elem, _scale_by_scalar(ring, b, x))
        out.append(elem)
    return out


def _scale_by_scalar(ring, elem, c):
    if isinstance(ring, (FracField, AlgebraicField)):
        return ring.mul(elem, _lift_scalar(ring, c))
    return elem.scale(c)


def _monomial_basis(ring, degree: int) -> list:
    gens = ring.gens()
    n = len(gens)
    seen = []
    out = []
    for exp in multi_indices(n, degree):
        m = ring.one()
        for g, e in zip(gens, exp):
            for _ in range(e):
                m = ring.mul(m, g)
        key = ring.to_str(m)
        if key not in seen:
            seen.append(key)
            out.append(m)
    return out


# --------------------------------------------------------- products of fields


class ProductRingSpec:
    """A product of copies of one field, with monoid generators acting by
    index permutations composed with factor endomorphisms."""

    def __init__(self, factor, count: int, perms: Sequence[Sequence[int]],
                 factor_maps: Sequence | None = None):
        self.ring = ProductField(factor, count)
        self.factor = factor
        self.count = count
        self.perms = [tuple(p) for p in perms]
        for p in self.perms:
            if sorted(p) != list(range(count)):
                raise ValueError(f"{p} is not a permutation of range({count})")
        self.factor_maps = factor_maps

    def apply_generator(self, g_idx: int, elem: tuple) -> tuple:
        p = self.perms[g_idx]
        moved = tuple(elem[p[i]] for i in range(self.count))
        if self.factor_maps and self.factor_maps[g_idx] is not None:
            moved = tuple(self.factor_maps[g_idx](x) for x in moved)
        return moved

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the factor indices under all generators."""
        parent = list(range(self.count))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for p in self.perms:
            for i in range(self.count):
                a, b = find(i), find(p[i])
                if a != b:
                    parent[a] = b
        groups: dict[int, list[int]] = {}
        for i in range(self.count):
            groups.setdefault(find(i), []).append(i)
        return sorted(groups.values())


def check_product_simplicity(spec: ProductRingSpec) -> Report:
    """Simple iff the index action is transitive and every generator is
    injective; the failure report carries the orbit partition."""
    failures = []
    checked = len(spec.perms) + 1
    for gi, p in enumerate(spec.perms):
        if sorted(p) != list(range(spec.count)):
            failures.append(f"generator {gi} is not injective on the factors: {p}")
    orbs = spec.orbits()
    if len(orbs) > 1:
        failures.append(f"factor action is not transitive; orbits {orbs}")
    return Report(not failures, checked, failures, {"factors": spec.count})


def product_constants(spec: ProductRingSpec, action, degree: int) -> list:
    """Fixed points of the permutation action on tuples of factor monomials."""
    factor = spec.factor
    if hasattr(factor, "gens"):
        fbasis = _monomial_basis(factor, degree)
    else:
        fbasis = [factor.one()]
    P = spec.ring
    scalars = factor.scalars if isinstance(factor, FracField) else getattr(factor, "field", factor)
    basis = []
    for i in range(spec.count):
        for b in fbasis:
            v = [factor.zero() if hasattr(factor, "zero") else 0] * spec.count
            v[i] = b
            basis.append(tuple(v))
    columns: list[list] = [[] for _ in basis]
    for g_idx in range(len(spec.perms)):
        for j, b in enumerate(basis):
            moved = spec.apply_generator(g_idx, b)
            columns[j].append(P.sub(moved, b))
    kernel = restriction_kernel(columns, P, scalars)
    out = []
    for vec in kernel:
        elem = P.zero()
        for x, b in zip(vec, basis):
            if not scalars.is_zero(x):
                scaled = tuple(_scale_by_scalar(factor, comp, x) if hasattr(factor, "gens")
                               else factor.mul(comp, x) for comp in b)
                elem = P.add(elem, scaled)
        out.append(elem)
    return out

