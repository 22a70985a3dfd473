"""Module-algebra structure tests: measuring and algebra-compatibility
checkers, constants, the internal translation action, convolution, and
simplicity of products of fields."""

from __future__ import annotations

from fractions import Fraction

import pytest

from modalg.actions import (
    ActionSpec,
    HomElement,
    MonoidDesc,
    ProductRingSpec,
    check_measuring,
    check_module_algebra,
    check_product_simplicity,
    constants,
    convolution,
    translate,
)
from modalg.exactalg import GF, QQ, FracField, PolyRing, kernel_basis
from modalg.series import TruncSeries


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
        return HomElement(L, None, ("t",), 3, 0, {0: s})

    rep = check_measuring(None, L, depth=2, expander=broken)
    assert not rep.ok
    assert any("y" in f for f in rep.failures)


def test_measuring_endomorphism_passes():
    # any ring endomorphism measures: sigma(y) = y^2
    L = FracField(QQ, ["y"])
    y = L.var("y")
    act = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * y}])
    assert check_measuring(act, L, depth=3).ok


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


# ------------------------------------------------------------------ constants


def test_constants_shift_on_function_field():
    L, act = shift_action()
    basis = constants(L, act, degree=3)
    assert len(basis) == 1
    assert basis[0] == L.one()


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
    basis = constants(spec, None, degree=1)
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
    g = translate(f, 1, ())
    assert g.word_bound == 2
    assert [g.value(k, ()) for k in range(3)] == vals[1:]


def test_translate_series_derivative():
    L = FracField(QQ, ["y"])
    s = TruncSeries(L, ("t",), 2, {(0,): L.var("y"), (1,): L.from_int(2), (2,): L.from_int(3)})
    f = HomElement(L, None, ("t",), 2, 0, {0: s})
    g = translate(f, 0, (1,))
    assert g.horizon == 1
    assert g.value(0, (0,)) == L.from_int(2)
    assert g.value(0, (1,)) == L.from_int(6)


def test_translate_fixes_constant_expansions():
    L, act = shift_action()
    c = L.var("y")  # any element, constantly embedded
    f = act.constant_expansion(c, 4)
    g = translate(f, 0, (1,))
    assert all(s.is_zero() for s in g.data.values())
    h = translate(f, 0, (0,))
    assert h.truncate(3) == f.truncate(3)


def test_translate_is_an_action():
    # translating by d' then d equals translating by the product d'. d
    L, act = shift_action()
    f = act.expand(L.var("y") ** 3, 6)
    a = translate(translate(f, 0, (2,)), 0, (1,))
    b = translate(f, 0, (3,)).scale(L.from_int(3))  # C(3,2) theta^(3)
    assert a.truncate(3) == b.truncate(3)


def test_convolution_pointwise_sequences():
    L = FracField(QQ, ["y"])
    f = seq_hom(L, [L.from_int(v) for v in (1, 2, 4)])
    g = seq_hom(L, [L.from_int(v) for v in (1, 3, 9)])
    h = convolution(f, g)
    assert [h.value(k, ()) for k in range(3)] == [L.from_int(v) for v in (1, 6, 36)]


def test_convolution_delegates_to_series_mul():
    L, act = shift_action()
    y = L.var("y")
    lhs = convolution(act.expand(y, 5), act.expand(y + L.one(), 5))
    rhs = act.expand(y * (y + L.one()), 5)
    assert lhs == rhs


def test_unit_of_convolution():
    L, act = endo_action()
    u = act.constant_expansion(L.one(), 0, 3)
    f = seq_hom(L, [L.from_int(v) for v in (5, 6, 7, 8)])
    assert convolution(u, f) == f


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
