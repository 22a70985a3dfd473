"""Module-algebra structure tests: measuring and algebra-compatibility
checkers, the theta expansion against an evaluate-then-reciprocal reference,
constants, the internal translation action, convolution, and simplicity of
products of fields."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalg.actions import TRIVIAL_MONOID, ActionSpec, HomElement, MonoidDesc, constants
from modalg.axioms import (
    ProductRingSpec,
    check_measuring,
    check_module_algebra,
    check_product_simplicity,
    product_constants,
)
from modalg.exactalg import GF, QQ, AlgebraicField, FracField, PolyRing, evaluate, kernel_basis
from modalg.hull import variable_basis_derivation
from modalg.series import SeriesRing, TruncSeries, truncated_exp


def shift_action(field=QQ):
    """theta(y) = y + w on the rational function field."""
    L = FracField(field, ["y"])
    y = L.var("y")
    w_img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
    return L, ActionSpec(L, "iterder", n=1, theta_images={"y": w_img})


def endo_action(image_coeff=2):
    L = FracField(QQ, ["y"])
    y = L.var("y")
    act = ActionSpec(
        L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * L.from_int(image_coeff)}]
    )
    return L, act


# ----------------------------------------------------------------- measuring


def test_measuring_shift_action_passes():
    L, act = shift_action()
    assert check_measuring(act, L, depth=3).ok


def test_measuring_two_variable_translation():
    L = FracField(QQ, ["x1", "x2"])
    imgs = {
        "x1": TruncSeries(L, ("w1", "w2"), 4, {(0, 0): L.var("x1"), (1, 0): L.one()}),
        "x2": TruncSeries(L, ("w1", "w2"), 4, {(0, 0): L.var("x2"), (0, 1): L.one()}),
    }
    act = ActionSpec(L, "iterder", n=2, theta_images=imgs)
    assert check_measuring(act, L, depth=3).ok


def test_measuring_rejects_squaring_map():
    # a first-order operator acting by a -> a^2 violates the product law
    L = FracField(QQ, ["y"])

    def broken(a):
        s = TruncSeries(L, ("t",), 3, {(0,): a, (1,): a * a})
        return HomElement(L, TRIVIAL_MONOID, ("t",), 3, 0, {(): s})

    rep = check_measuring(None, L, depth=2, expander=broken)
    assert not rep.ok
    assert any(f.startswith("product law fails") and "y" in f for f in rep.failures)


def test_measuring_reports_an_expander_that_raises_on_the_unit():
    # a broken hand-made expander fails the report instead of raising
    L, act = shift_action()

    def broken(a):
        if L.eq(a, L.one()):
            raise ZeroDivisionError("no expansion of 1")
        return act.expand(a, 2)

    rep = check_measuring(None, L, depth=2, expander=broken)
    assert not rep.ok
    assert [f.split(":")[0] for f in rep.failures] == ["unit expansion failed"]


def test_measuring_reports_an_expander_that_raises_on_a_product():
    # an expander that raises on y^2 only fails the pair (y, y) of the
    # product-law loop instead of raising out of it
    L, act = shift_action()
    y = L.var("y")

    def broken(a):
        if L.eq(a, y * y):
            raise ZeroDivisionError("no expansion of y^2")
        return act.expand(a, 2)

    rep = check_measuring(None, L, depth=2, expander=broken)
    assert not rep.ok
    assert len(rep.failures) == 1 and "(y, y)" in rep.failures[0]


def test_measuring_endomorphism_passes():
    # any ring endomorphism measures: sigma(y) = y^2
    L = FracField(QQ, ["y"])
    y = L.var("y")
    act = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * y}])
    assert check_measuring(act, L, depth=3).ok


# ---------------------------------------------------------- generator images


def test_undeclared_generator_raises_key_error_naming_it():
    L = FracField(QQ, ["x", "y"])
    x, y = L.var("x"), L.var("y")
    theta = ActionSpec(L, "iterder", n=1, theta_images={
        "x": TruncSeries(L, ("w",), 4, {(0,): x, (1,): L.one()})})
    with pytest.raises(KeyError, match="'y'"):
        theta.theta_series(y, 2)
    endo = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"x": x * x}])
    with pytest.raises(KeyError, match="'y'"):
        endo.apply_generator(0, y)


def test_endomorphism_acts_on_an_undeclared_partner_through_its_inverse():
    # y -> y^2 sends the partner yi to 1/y^2 = yi^2; y -> y + 1 has no
    # image for yi, since y + 1 is not a unit of Q[y, 1/y]
    R = PolyRing(QQ, ["y", "yi"], [(0, 1)])
    y, yi = R.var("y"), R.var("yi")
    square = ActionSpec(R, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * y}])
    assert square.apply_generator(0, yi + y) == yi * yi + y * y
    shift = ActionSpec(R, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y + R.one()}])
    with pytest.raises(ValueError, match="not a unit"):
        shift.apply_generator(0, yi)


# -------------------------------------------------------------- module algebra


def test_module_algebra_shift_passes_char0():
    L, act = shift_action()
    assert check_module_algebra(act, L, depth=6).ok


def test_module_algebra_shift_passes_char2():
    L, act = shift_action(GF(2))
    rep = check_module_algebra(act, L, depth=6)
    assert rep.ok
    # the characteristic-2 signature: theta^(1)(y^2) = 0, theta^(2)(y^2) = 1
    y = L.var("y")
    s = act.theta_series(y * y, 3)
    assert s.coeff((1,)).is_zero()
    assert s.coeff((2,)) == L.one()


def test_module_algebra_rejects_non_iterative():
    # theta(y) = y + w + w^2 declares theta^(1)(y) = theta^(2)(y) = 1,
    # which breaks theta^(1) o theta^(1) = 2 theta^(2) over QQ
    L = FracField(QQ, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 6, {(0,): y, (1,): L.one(), (2,): L.one()})
    act = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    rep = check_module_algebra(act, L, depth=4)
    assert not rep.ok
    assert any("(1,)), ((1,)" in f or "((1,), (1,))" in f for f in rep.failures)


def test_module_algebra_rejects_non_iterative_in_char3():
    # theta(y) = y*(1 + w) over GF(3) declares theta^(1)(y) = y and
    # theta^(2)(y) = 0, so theta^(1) theta^(1)(y) = y while the rule asks for
    # C(2, 1) theta^(2)(y) = 2*0 = 0
    L = FracField(GF(3), ["y"])
    y = L.var("y")
    act = ActionSpec(L, "iterder", n=1,
                     theta_images={"y": TruncSeries(L, ("w",), 6, {(0,): y, (1,): y})})
    rep = check_module_algebra(act, L, depth=4)
    assert not rep.ok
    assert rep.failures[0].startswith("iteration rule fails at (i, j) = ((1,), (1,))")


def test_module_algebra_endomorphism():
    L, act = endo_action()
    assert check_module_algebra(act, L, depth=4).ok


def test_der_matches_iterder_in_char0():
    # d/dy realized through divided powers equals the translation action
    L = FracField(QQ, ["y"])
    der = ActionSpec(L, "der", n=1, d_images={"y": L.one()})
    _, itd = shift_action()
    y = L.var("y")
    for elem in [y, y * y, L.one() / y, (y + L.one()) / y]:
        assert der.theta_series(elem, 5) == itd.theta_series(elem, 5)


def test_der_on_an_algebraic_extension():
    # L = Q(u)(z) with z^2 = u and d = d/du, so d(z) = z/(2u); the divided
    # powers of d at z = u^(1/2) are binom(1/2, k) u^(1/2 - k)
    base = FracField(QQ, ["u"])
    u = base.var("u")
    L = AlgebraicField(base, "z", [-u, base.zero(), base.one()])
    z = L.var("z")
    uL = L.from_base(u)

    def times_z_over(c, power):  # c * z / u^power
        return L.mul(z, L.inv(L.mul(L.const(c), L.from_base(u ** power))))

    der = ActionSpec(L, "der", n=1, d_images={"u": L.one(), "z": times_z_over(2, 1)})
    s = der.theta_series(z, 3)
    expected = [z, times_z_over(2, 1), times_z_over(-8, 2), times_z_over(16, 3)]
    assert [s.coeff((k,)) for k in range(4)] == expected
    assert L.eq(der.theta_coefficient(uL, (1,)), L.one())
    solved = variable_basis_derivation(L, 3).theta_images["z"]
    assert [solved.coeff((k,)) for k in range(4)] == expected


def test_der_on_an_inverse_pair_follows_the_partner():
    # Q[u, 1/u] with d(u) = u: theta(u) = u exp(w), so theta(1/u) = (1/u) exp(-w)
    R = PolyRing(QQ, ["u", "ui"], inverse_pairs=[(0, 1)])
    der = ActionSpec(R, "der", n=1, d_images={"u": R.var("u")})
    w = TruncSeries.variable(R, ("w",), 5, "w")
    expected = TruncSeries.const(R, ("w",), 5, R.var("ui")) * truncated_exp(-w)
    assert der.theta_series(R.var("ui"), 5) == expected
    assert der.theta_series(R.var("u") * R.var("ui"), 5) == TruncSeries.one(R, ("w",), 5)


def test_smash_commuting_passes():
    # sigma(y) = 2y commutes with the exponential derivation
    # theta(y) = y exp(w), whose divided powers are theta^(k)(y) = y/k!
    import math

    L = FracField(QQ, ["y"])
    y = L.var("y")
    img = TruncSeries(
        L, ("w",), 6, {(k,): y * L.const(Fraction(1, math.factorial(k))) for k in range(7)}
    )
    act = ActionSpec(
        L,
        "smash",
        n=1,
        theta_images={"y": img},
        monoid=MonoidDesc("endo"),
        endo_maps=[{"y": y * L.from_int(2)}],
    )
    assert check_module_algebra(act, L, depth=4).ok


def test_smash_noncommuting_detected():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 6, {(0,): y, (1,): L.one()})
    act = ActionSpec(
        L,
        "smash",
        n=1,
        theta_images={"y": img},
        monoid=MonoidDesc("endo"),
        endo_maps=[{"y": y * L.from_int(2)}],
    )
    rep = check_module_algebra(act, L, depth=3)
    assert not rep.ok
    assert any("commutation" in f for f in rep.failures)


# ------------------------------------------------------------ theta expansion


def geometric_recip(f: TruncSeries) -> TruncSeries:
    # c0^-1 sum_k (1 - f/c0)^k, which ends within horizon + 1 products
    R = f.ring
    inv0 = R.inv(f.constant_term())
    one = TruncSeries.one(R, f.vars, f.horizon)
    g = one - f.scale(inv0)
    acc, p = one, one
    for _ in range(f.horizon + 1):
        p = p * g
        acc = acc + p
    return acc.scale(inv0)


def theta_reference(act: ActionSpec, elem, horizon: int) -> TruncSeries:
    """Reference: the declared images (an undeclared inverse-pair partner gets
    the reciprocal of its partner's image) substituted by exactalg.evaluate,
    every fraction as numerator times the geometric reciprocal of the
    denominator."""
    ring = act.ring
    S = SeriesRing(ring, act.wvars, horizon)
    images = {name: act.theta_images[name].with_horizon(horizon)
              for name in ring.vars if name in act.theta_images}
    for i, j in ring.inverse_pairs if isinstance(ring, PolyRing) else ():
        a, b = ring.vars[i], ring.vars[j]
        if a not in images:
            images[a] = geometric_recip(images[b])
        if b not in images:
            images[b] = geometric_recip(images[a])

    def frac(c):
        num, den = (evaluate(p.sorted_terms(), [images[v] for v in c.field.vars], S,
                             lambda x: S.scalar(ring.const(x))) for p in (c.num, c.den))
        return num * geometric_recip(den)

    if isinstance(ring, AlgebraicField):
        return evaluate([((d,), c) for d, c in enumerate(elem)],
                        [images[ring.gen_name]], S, frac)
    if isinstance(ring, FracField):
        return frac(elem)
    return evaluate(elem.sorted_terms(), [images[v] for v in ring.vars], S,
                    lambda x: S.scalar(ring.scalar(x)))


def _rational_action():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    return ActionSpec(L, "iterder", n=1, theta_images={
        "y": TruncSeries.const(L, ("w",), 8, y) * truncated_exp(w) + w * w})


def _two_variable_action():
    return variable_basis_derivation(FracField(QQ, ["x1", "x2"]), 8)


def _algebraic_action():
    base = FracField(QQ, ["u"])
    u = base.var("u")
    return variable_basis_derivation(AlgebraicField(base, "z", [-u, base.zero(), base.one()]), 8)


def _laurent_action():
    R = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    return ActionSpec(R, "iterder", n=1, theta_images={
        "y": TruncSeries(R, ("w",), 8, {(0,): R.var("y"), (1,): R.one(), (2,): R.var("y")})})


THETA_ACTIONS = {
    "QQ(y)": _rational_action,
    "GF7(y)": lambda: shift_action(GF(7))[1],
    "QQ(x1,x2)": _two_variable_action,
    "QQ(u)[z]/(z^2-u)": _algebraic_action,
    "QQ[y,1/y]": _laurent_action,
}


@st.composite
def theta_cases(draw):
    """A fresh action and an element of its ring: a quotient of small
    polynomials in the generators (a polynomial for a polynomial ring)."""
    act = THETA_ACTIONS[draw(st.sampled_from(sorted(THETA_ACTIONS)))]()
    ring = act.ring
    field = ring.base if isinstance(ring, AlgebraicField) else ring
    gens = field.gens()

    def small():
        out = field.from_int(draw(st.integers(-2, 2)))
        for g in gens:
            out = out + field.from_int(draw(st.integers(-2, 2))) * g
        out = out + field.from_int(draw(st.integers(-1, 1))) * gens[-1] * gens[0]
        return out

    if isinstance(ring, PolyRing):
        return act, small()
    if isinstance(ring, AlgebraicField):
        parts = []
        for _ in range(ring.degree):
            den = small()
            parts.append(small() / (den if not den.is_zero() else field.one()))
        return act, ring.element(parts)
    den = small()
    return act, small() / (den if not den.is_zero() else field.one())


@settings(max_examples=20, deadline=None)
@given(theta_cases())
def test_theta_series_matches_evaluate_then_reciprocal(case):
    act, elem = case
    # in two variables the reference at horizon 8 takes over a second
    top = 8 if len(act.wvars) == 1 else 5
    low = act.theta_series(elem, 3)
    high = act.theta_series(elem, top)
    # the later, higher expansion agrees with the earlier one in degrees <= 3
    assert high.with_horizon(3) == low
    assert act.theta_series(elem, 3) == low
    assert low == theta_reference(act, elem, 3)
    assert high == theta_reference(act, elem, top)


FIELD_ACTIONS = ("QQ(y)", "GF7(y)", "QQ(x1,x2)")


@st.composite
def field_elements(draw, count: int):
    """A fresh action over a rational function field and count of its
    elements: small polynomials over small polynomials or over monomials."""
    act = THETA_ACTIONS[draw(st.sampled_from(FIELD_ACTIONS))]()
    L = act.ring
    gens = L.gens()

    def small():
        out = L.from_int(draw(st.integers(-2, 2)))
        for g in gens:
            out = out + L.from_int(draw(st.integers(-2, 2))) * g
        return out + L.from_int(draw(st.integers(-1, 1))) * gens[-1] * gens[0]

    def monomial():
        out = L.one()
        for g in gens:
            out = out * g ** draw(st.integers(0, 3))
        return out

    elems = []
    for _ in range(count):
        den = draw(st.sampled_from((small, monomial)))()
        elems.append(small() / (den if not den.is_zero() else L.one()))
    return act, elems


def _horizon(act) -> int:
    # a quotient of general polynomials in two variables at horizon 3 takes
    # seconds to divide
    return 4 if len(act.wvars) == 1 else 2


@settings(max_examples=25, deadline=None)
@given(field_elements(2))
def test_theta_series_is_multiplicative_at_the_horizon(case):
    # theta is a ring homomorphism and truncated products are exact, so
    # deforming a product equals multiplying the deformations
    act, (a, b) = case
    h = _horizon(act)
    assert act.theta_series(a * b, h) == act.theta_series(a, h) * act.theta_series(b, h)


@settings(max_examples=25, deadline=None)
@given(field_elements(1))
def test_theta_series_of_a_quotient_matches_the_reference(case):
    # half the denominators are monomials, deformed through cached powers
    # of reciprocal images rather than by a series division
    act, (elem,) = case
    h = _horizon(act)
    assert act.theta_series(elem, h) == theta_reference(act, elem, h)


@pytest.mark.parametrize("name", FIELD_ACTIONS + ("QQ[y,1/y]",))
@pytest.mark.parametrize("value", [0, 1, Fraction(-3, 2)])
def test_a_constant_deforms_to_the_constant_series(name, value):
    act = THETA_ACTIONS[name]()
    R = act.ring
    c = R.const(value)
    got = act.theta_series(c, 5)
    assert got == TruncSeries.const(R, act.wvars, 5, c)
    assert got == theta_reference(act, c, 5)


def test_action_over_an_unsupported_context_is_rejected_when_built():
    with pytest.raises(ValueError, match="unsupported ring context"):
        ActionSpec(QQ, "iterder", n=1)


# ------------------------------------------------------------- action shape


def test_trivial_action_without_directions_expands_to_the_element():
    # n = 0 directions and the trivial monoid: no t-variables, one word
    L = FracField(QQ, ["y"])
    y = L.var("y")
    f = ActionSpec(L, "trivial").expand(y, 2)
    assert f.tvars == ()
    assert f.ev_unit() == y
    assert str(f) == "y"


def test_monoid_descriptions_are_interned():
    assert MonoidDesc("endo") is MonoidDesc("endo")
    assert MonoidDesc("endo") is MonoidDesc("endo", gens=["sigma"])
    assert MonoidDesc("free", gens=()) is TRIVIAL_MONOID
    assert MonoidDesc("cyclic", order=2) is not MonoidDesc("cyclic", order=3)


def test_derivation_realization_has_the_single_word_unit():
    L, act = shift_action()
    assert act.monoid is TRIVIAL_MONOID and not act.has_monoid()
    for f in (act.expand(L.var("y"), 3), act.expand(L.var("y"), 3, 3)):
        assert list(f.data) == [()]
        assert f.word_bound == 0


def _doubling(L):
    return {"y": L.var("y") * L.from_int(2)}


# kind -> the keyword arguments of a well-shaped ActionSpec of that kind
WELL_SHAPED = {
    "trivial": lambda L: {"n": 1},
    "der": lambda L: {"n": 1},
    "iterder": lambda L: {"n": 1},
    "end": lambda L: {"monoid": MonoidDesc("endo"), "endo_maps": [_doubling(L)]},
    "smash": lambda L: {"n": 1, "monoid": MonoidDesc("endo"), "endo_maps": [_doubling(L)]},
}

# (kind, keyword arguments of ActionSpec given L, the ValueError's message)
BAD_SHAPES = {
    "free on two generators, one map": (
        "end", lambda L: {"monoid": MonoidDesc("free", gens=("s", "t")),
                          "endo_maps": [_doubling(L)]},
        "2 monoid generators need as many endo_maps, got 1"),
    "auto without inverse": (
        "end", lambda L: {"monoid": MonoidDesc("auto"), "endo_maps": [_doubling(L)]},
        "inv_maps"),
    **{f"{kind} with a monoid": (
        kind, lambda L: {"n": 1, "d_images": {"y": L.one()}, "monoid": MonoidDesc("endo"),
                         "endo_maps": [_doubling(L)]},
        f"kind {kind!r} takes no monoid") for kind in ("der", "iterder", "trivial")},
    "end without a monoid": ("end", lambda L: {}, "kind 'end' needs a monoid with generators"),
    "der with n = 2": ("der", lambda L: {"n": 2, "d_images": {"y": L.one()}}, "n = 1"),
    "end with n = 1": (
        "end", lambda L: {"n": 1, "monoid": MonoidDesc("endo"), "endo_maps": [_doubling(L)]},
        "n = 0"),
    # images the kind would misread (a trivial action would expand y to
    # y + t) or drop (der ignores theta_images)
    **{f"{kind} with theta_images": (
        kind, lambda L, shape=WELL_SHAPED[kind]: {**shape(L), "theta_images": {
            "y": TruncSeries(L, ("w",), 2, {(0,): L.var("y"), (1,): L.one()})}},
        f"kind {kind!r} takes no theta_images") for kind in ("der", "trivial", "end")},
    **{f"{kind} with d_images": (
        kind, lambda L, shape=WELL_SHAPED[kind]: {**shape(L), "d_images": {"y": L.one()}},
        f"kind {kind!r} takes no d_images") for kind in ("iterder", "smash", "trivial", "end")},
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_shape_is_checked_when_the_action_is_built(case):
    kind, kwargs, message = BAD_SHAPES[case]
    L = FracField(QQ, ["y"])
    with pytest.raises(ValueError, match=message):
        ActionSpec(L, kind, **kwargs(L))


def _end(monoid, maps, inverses=False):
    """An "end" action given L: maps doublings of y, and their inverse."""
    return lambda L: ActionSpec(
        L, "end", monoid=monoid, endo_maps=[_doubling(L)] * maps,
        inv_maps=[{"y": L.var("y") / L.from_int(2)}] if inverses else None)


# monoid kind -> (the action given L, a word outside its monoid)
NON_WORDS = {
    "endo": (_end(MonoidDesc("endo"), 1), -1),
    "auto": (_end(MonoidDesc("auto"), 1, inverses=True), (1,)),
    "cyclic": (_end(MonoidDesc("cyclic", order=3), 1), 3),
    "free": (_end(MonoidDesc("free", gens=("s", "t")), 2), (0, 2)),
    "trivial, of a derivation": (lambda L: shift_action()[1], 0),
}


def test_realizations_print_their_words():
    # sigma(y) = 3y, with sigma^-1(y) = y/3 for "auto"; in the free monoid
    # on s: y -> 3y and t: y -> y + 1 the word s*t acts as s after t, so
    # s*t sends y to s(y + 1) = 3y + 1 and t*s sends y to t(3y) = 3y + 3
    L = FracField(QQ, ["y"])
    y, three = L.var("y"), L.from_int(3)
    sigma = {"y": y * three}
    endo = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[sigma])
    assert str(endo.expand(y, 0, 2)) == "1 -> y; sigma -> 3*y; sigma^2 -> 9*y"
    auto = ActionSpec(L, "end", monoid=MonoidDesc("auto"), endo_maps=[sigma],
                      inv_maps=[{"y": y / three}])
    assert str(auto.expand(y, 0, 2)) == (
        "1 -> y; sigma^-1 -> 1/3*y; sigma -> 3*y; sigma^-2 -> 1/9*y; sigma^2 -> 9*y")
    free = ActionSpec(L, "end", monoid=MonoidDesc("free", gens=("s", "t")),
                      endo_maps=[sigma, {"y": y + L.one()}])
    assert str(free.expand(y, 0, 2)) == (
        "1 -> y; s -> 3*y; t -> y + 1; s*s -> 9*y; s*t -> 3*y + 1; t*s -> 3*y + 3; "
        "t*t -> y + 2")


@pytest.mark.parametrize("kind", sorted(NON_WORDS))
def test_words_outside_the_monoid_are_rejected(kind):
    # translate and apply_word accept only words of the monoid: a negative
    # power of an endomorphism, a residue out of range, an unknown free
    # generator or an int for the trivial monoid's () is a ValueError
    # naming the word and the monoid
    make, word = NON_WORDS[kind]
    L = FracField(QQ, ["y"])
    y = L.var("y")
    act = make(L)
    f = act.expand(y, 1, 2)
    k = (0,) * len(f.tvars)
    good = act.monoid.words(2)[-1]
    assert f.translate(good, k).ev_unit() == act.apply_word(good, y)
    message = re.escape(f"{word!r} is not a word of {act.monoid!r}")
    with pytest.raises(ValueError, match=message):
        f.translate(word, k)
    with pytest.raises(ValueError, match=message):
        act.apply_word(word, y)


# ------------------------------------------------------------------ constants


def test_constants_shift_on_function_field():
    L, act = shift_action()
    basis = constants(L, act, degree=3)
    assert len(basis) == 1
    assert basis[0] == L.one()


def test_constants_in_characteristic_7_see_the_p_power_order():
    # theta^(k)(y^7) = binomial(7, k) y^(7-k) vanishes mod 7 for 0 < k < 7,
    # so y^7 is a constant up to horizon 6; theta^(7)(y^7) = 1 removes it once
    # the horizon reaches p (Matzat-van der Put 2003)
    L, act = shift_action(GF(7))
    y7 = L.one()
    for _ in range(7):
        y7 = y7 * L.var("y")
    assert constants(L, act, degree=7, horizon=6) == [L.one(), y7]
    assert act.theta_series(y7, 7).coeff((7,)) == L.one()
    assert constants(L, act, degree=7, horizon=7) == [L.one()]


def test_constants_diagonal_derivation_two_variables():
    # theta^(1)(y1) = theta^(1)(y2) = 1: constants generated by y2 - y1
    L = FracField(QQ, ["y1", "y2"])
    y1, y2 = L.var("y1"), L.var("y2")
    imgs = {
        "y1": TruncSeries(L, ("w",), 4, {(0,): y1, (1,): L.one()}),
        "y2": TruncSeries(L, ("w",), 4, {(0,): y2, (1,): L.one()}),
    }
    act = ActionSpec(L, "iterder", n=1, theta_images=imgs)
    basis = constants(L, act, degree=2)
    assert len(basis) == 3

    # independent oracle: kernel of the explicit derivation matrix on the
    # monomial basis {1, y1, y2, y1^2, y1 y2, y2^2}
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def d(exp):  # first divided derivative of y1^a y2^b
        a, b = exp
        out = {}
        if a:
            out[(a - 1, b)] = Fraction(a)
        if b:
            key = (a, b - 1)
            out[key] = out.get(key, Fraction(0)) + Fraction(b)
        return out

    rows = []
    for target in monos:
        rows.append([d(m).get(target, Fraction(0)) for m in monos])
    oracle_kernel = kernel_basis(rows, QQ)
    assert len(oracle_kernel) == 3

    # span check both ways: each basis element is killed by the derivation,
    # and the dimension matches the oracle
    for b in basis:
        assert act.theta_series(b, 2).coeff((1,)).is_zero()
    diff = y2 - y1
    spanned = {str(b) for b in basis}
    assert str(L.one()) in spanned
    assert any(str(diff) in s or str(-diff) in s for s in spanned) or len(spanned) == 3


def test_constants_product_cyclic_shift():
    spec = ProductRingSpec(QQ, 3, perms=[(1, 2, 0)])
    basis = product_constants(spec, degree=1)
    assert len(basis) == 1
    assert basis[0] == (Fraction(1), Fraction(1), Fraction(1))


def test_constants_endomorphism_fixed_field():
    L, act = endo_action()
    basis = constants(L, act, degree=3)
    assert len(basis) == 1 and basis[0] == L.one()


def test_apply_generator_inverse_q_difference():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    q = L.const(Fraction(3))
    endo = [{"y": y * q}]
    act = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=endo,
                     inv_maps=[{"y": y / q}])
    maps_before = act.endo_maps
    assert act.apply_generator(0, y) == y * q
    assert act.apply_generator_inverse(0, y) == y / q
    assert act.apply_generator_inverse(0, act.apply_generator(0, y)) == y
    assert act.endo_maps is maps_before and act.endo_maps == endo


# ----------------------------------------------------- translation / convolution


def seq_hom(L, values):
    monoid = MonoidDesc("endo")
    data = {
        k: TruncSeries.const(L, (), 0, v) for k, v in enumerate(values)
    }
    return HomElement(L, monoid, (), 0, len(values) - 1, data)


def test_translate_sequence_left_shift():
    L = FracField(QQ, ["y"])
    vals = [L.from_int(v) for v in (10, 11, 12, 13)]
    f = seq_hom(L, vals)
    g = f.translate(1, ())
    assert g.word_bound == 2
    assert [g.value(k, ()) for k in range(3)] == vals[1:]


def test_translate_series_derivative():
    L = FracField(QQ, ["y"])
    s = TruncSeries(L, ("t",), 2, {(0,): L.var("y"), (1,): L.from_int(2), (2,): L.from_int(3)})
    f = HomElement(L, TRIVIAL_MONOID, ("t",), 2, 0, {(): s})
    g = f.translate((), (1,))
    assert g.horizon == 1
    assert g.value((), (0,)) == L.from_int(2)
    assert g.value((), (1,)) == L.from_int(6)


def test_translate_fixes_constant_expansions():
    L, act = shift_action()
    c = L.var("y")  # any element, constantly embedded
    f = act.constant_expansion(c, 4)
    g = f.translate((), (1,))
    assert all(s.is_zero() for s in g.data.values())
    h = f.translate((), (0,))
    assert h.truncate(3) == f.truncate(3)


def test_translate_is_an_action():
    # translating by d' then d equals translating by the product d'. d
    L, act = shift_action()
    f = act.expand(L.var("y") ** 3, 6)
    a = f.translate((), (2,)).translate((), (1,))
    b = f.translate((), (3,)).scale(L.from_int(3))  # C(3,2) theta^(3)
    assert a.truncate(3) == b.truncate(3)


def test_convolution_pointwise_sequences():
    L = FracField(QQ, ["y"])
    f = seq_hom(L, [L.from_int(v) for v in (1, 2, 4)])
    g = seq_hom(L, [L.from_int(v) for v in (1, 3, 9)])
    h = f * g
    assert [h.value(k, ()) for k in range(3)] == [L.from_int(v) for v in (1, 6, 36)]


def test_convolution_delegates_to_series_mul():
    L, act = shift_action()
    y = L.var("y")
    lhs = act.expand(y, 5) * act.expand(y + L.one(), 5)
    rhs = act.expand(y * (y + L.one()), 5)
    assert lhs == rhs


def test_unit_of_convolution():
    L, act = endo_action()
    u = act.constant_expansion(L.one(), 0, 3)
    f = seq_hom(L, [L.from_int(v) for v in (5, 6, 7, 8)])
    assert u * f == f


# ------------------------------------------------------------------- products


def test_product_simplicity_cyclic():
    spec = ProductRingSpec(QQ, 3, perms=[(1, 2, 0)])
    assert check_product_simplicity(spec).ok


def test_product_simplicity_identity_fails():
    spec = ProductRingSpec(QQ, 2, perms=[(0, 1)])
    rep = check_product_simplicity(spec)
    assert not rep.ok
    assert any("orbits [[0], [1]]" in f for f in rep.failures)


@pytest.mark.parametrize("perm,count", [((0, 1), 3), ((0, 0, 1), 3), ((0, 1, 3), 3)])
def test_product_spec_rejects_non_permutations(perm, count):
    with pytest.raises(ValueError, match="not a permutation"):
        ProductRingSpec(QQ, count, perms=[perm])


def test_product_spec_accepts_permutation():
    spec = ProductRingSpec(QQ, 3, perms=[(1, 2, 0)])
    one, two, three = (Fraction(i) for i in (1, 2, 3))
    assert spec.apply_generator(0, (one, two, three)) == (two, three, one)


def test_product_simplicity_shift_by_two():
    spec = ProductRingSpec(QQ, 4, perms=[(2, 3, 0, 1)])
    rep = check_product_simplicity(spec)
    assert not rep.ok
    assert any("[[0, 2], [1, 3]]" in f for f in rep.failures)
