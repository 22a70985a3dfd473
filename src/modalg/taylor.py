"""Universal expansion maps and their function-space realizations.

ActionSpec.expand realizes a ring element as a function on the acting
bialgebra: divided-power coefficients for derivation actions (a Taylor
expansion), iterates for endomorphism actions (an Euler-style expansion),
wordwise for monoid actions.  The map is a homomorphism into the convolution
algebra and intertwines the ring action with right translation; both facts
are checked by the test suite, and the factorization property (every
homomorphism into a translation algebra factors through it) is verified by
axioms.check_expansion_universal.

ExpansionAlgebra is the bivariate refinement: its elements are HomElements
whose values are w-series, functions with values in L[[w]] cut to the box
t-degree <= t_horizon, w-degree <= w_horizon.  It hosts a second, commuting
derivation action in the w direction and the multiplication map that merges
a hull element tensor a w-series into a single function; this is where the
Galois-hull and automorphism computations live.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .actions import DEFAULT_WORD_BOUND, ActionSpec, HomElement
from .series import SeriesRing, TruncSeries


def _identity(c):
    return c


# ------------------------------------------------------- bivariate algebra


class ExpansionAlgebra:
    """Functions on the bialgebra with values in truncated w-series.

    An element is a HomElement over coeffs = SeriesRing(ring, wvars,
    w_horizon): each monoid word maps to a t-series of horizon t_horizon
    whose coefficients are w-series of horizon w_horizon, so a product keeps
    exactly the box of both bounds.  The derivation action in the w
    direction (HomElement.hasse_deriv) commutes with right translation in
    the t direction.  The algebra is the context of its elements for
    exactalg.evaluate (zero, add, mul); w_slice, coordinates and lift read
    and map them.
    """

    def __init__(self, action: ActionSpec, theta_u: ActionSpec, t_horizon: int,
                 w_horizon: int, word_bound: int = DEFAULT_WORD_BOUND, ring=None):
        self.action = action
        self.theta_u = theta_u
        self.ring = ring if ring is not None else action.ring
        self.t_horizon = t_horizon
        self.w_horizon = w_horizon
        self.word_bound = word_bound
        self.tvars = action.tvars()
        self.wvars = theta_u.wvars
        self.coeffs = SeriesRing(self.ring, self.wvars, w_horizon)
        # the t-horizon of expand_plain's realizations
        self._th = t_horizon if self.tvars else 0

    # -------------------------------------------------------- constructors
    def element(self, data: dict) -> HomElement:
        """The element with the t-series data[word] over coeffs, in the shape
        of expand_plain."""
        return HomElement(self.coeffs, self.action.monoid, self.tvars, self._th, self.word_bound,
                          data)

    def _constant(self, s: TruncSeries) -> HomElement:
        """The constant-in-t element with value s, a w-series over coeffs,
        on every word."""
        value = TruncSeries.const(self.coeffs, self.tvars, self._th, s)
        return self.element(dict.fromkeys(self.action.monoid.words(self.word_bound), value))

    def zero(self) -> HomElement:
        return self._constant(self.coeffs.zero())

    def one(self) -> HomElement:
        return self._constant(self.coeffs.one())

    def add(self, a: HomElement, b: HomElement) -> HomElement:
        return a + b

    def mul(self, a: HomElement, b: HomElement) -> HomElement:
        return a * b

    def from_hom(self, f: HomElement) -> HomElement:
        """Embed a t-only realization (no w-dependence)."""
        return f.map_coeffs(self.coeffs.scalar, self.coeffs)

    def from_w_series(self, s: TruncSeries, lift: Callable = _identity) -> HomElement:
        """Constant-in-t embedding of a w-series (a rho0-style coefficient),
        with lift applied to its coefficients."""
        return self._constant(TruncSeries(self.ring, self.wvars, self.w_horizon,
                                          {e: lift(c) for e, c in s.terms.items()}))

    def expand_plain(self, elem) -> HomElement:
        return self.action.expand(elem, self.t_horizon, self.word_bound)

    def expand_rho(self, elem) -> HomElement:
        """The universal expansion followed by the w-direction derivation on
        every value: the fully deformed realization of elem."""
        return self._deform_hom(self.expand_plain(elem))

    def merge_tensor(self, terms: Sequence[tuple[HomElement, TruncSeries]]) -> HomElement:
        """Multiplication map on simple tensors: sum of theta_u-deformed hull
        factors times constant embeddings of the w-series factors.

        The hull factors are t-realizations over the base field.  The kernel
        behaviour that makes this map injective on truncations is exercised
        by the tests."""
        out = self.zero()
        for hull_part, wpart in terms:
            out = out + self._deform_hom(hull_part) * self.from_w_series(wpart)
        return out

    def _deform_hom(self, f: HomElement) -> HomElement:
        """f with each value c replaced by its deformation theta_u(c), a
        w-series."""
        theta, wh = self.theta_u.theta_series, self.w_horizon
        return f.map_coeffs(lambda c: theta(c, wh), self.coeffs)

    def with_ring(self, ring) -> "ExpansionAlgebra":
        return ExpansionAlgebra(self.action, self.theta_u, self.t_horizon, self.w_horizon,
                                self.word_bound, ring=ring)

    # ------------------------------------------------------- reading maps
    @staticmethod
    def w_slice(f: HomElement, k: tuple[int, ...]) -> HomElement:
        """The coefficient of w^k of f, a t-only realization."""
        return f.map_coeffs(lambda s: s.coeff(k), f.ring.ring)

    @staticmethod
    def coordinates(f: HomElement) -> dict:
        """Flat coordinate map (word, t-exp, w-exp) -> coefficient of f."""
        return {(word, te, we): c for word, s in f.data.items()
                for te, ws in s.terms.items() for we, c in ws.terms.items()}

    @staticmethod
    def lift(f: HomElement, fn: Callable, alg: "ExpansionAlgebra") -> HomElement:
        """The element of alg with fn applied to every coefficient of every
        w-series value of f."""
        return f.map_coeffs(lambda s: s.map_coeffs(fn, alg.ring), alg.coeffs)
