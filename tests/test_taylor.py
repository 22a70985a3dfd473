"""Universal expansion tests: Taylor/iterate realizations, the factorization
property, equivariance with translation, and the tensor multiplication map."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from modalg.actions import ActionSpec, HomElement, MonoidDesc
from modalg.axioms import check_expansion_universal
from modalg.exactalg import GF, QQ, FracField, GeneratorPowers
from modalg.hull import make_basis_derivation
from modalg.series import TruncSeries
from modalg.taylor import ExpansionAlgebra
from test_hull import additive_ext, q_difference_ext, rho0
from test_pv import two_derivation_pv


def shift_action():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
    return L, ActionSpec(L, "iterder", n=1, theta_images={"y": img})


def step_endo_action():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    return L, ActionSpec(
        L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y + L.one()}]
    )


def test_derivation_expansion_binomial_oracle():
    # d = d/dy on QQ[y]: y^2 expands to y^2 + 2 y w + w^2
    L = FracField(QQ, ["y"])
    y = L.var("y")
    act = ActionSpec(L, "der", n=1, d_images={"y": L.one()})
    s = act.expand(y * y, 4).data[()]
    # oracle: coefficients of (y + w)^2 by direct polynomial expansion
    expanded = {(0,): y * y, (1,): L.from_int(2) * y, (2,): L.one()}
    for k, v in expanded.items():
        assert s.coeff(k) == v
    assert s.coeff((3,)).is_zero()


def test_endomorphism_expansion_iterates():
    L, act = step_endo_action()
    y = L.var("y")
    f = act.expand(y, 0, word_bound=3)
    vals = [f.value(k, ()) for k in range(4)]
    assert vals == [y, y + L.from_int(1), y + L.from_int(2), y + L.from_int(3)]


def test_trivial_action_constant_expansion():
    L, act = shift_action()
    y = L.var("y")
    triv = ActionSpec(L, "trivial", n=1)
    f = triv.expand(y / (y + L.one()), 4)
    assert f.data[()] == TruncSeries.const(L, ("t",), 4, y / (y + L.one()))


def test_expansion_of_fractions_uses_series_reciprocal():
    L, act = shift_action()
    y = L.var("y")
    f = act.expand(L.one() / y, 2)
    s = f.data[()]
    assert s.coeff((0,)) == L.one() / y
    assert s.coeff((1,)) == -(L.one() / (y * y))
    assert s.coeff((2,)) == L.one() / (y * y * y)


def test_expansion_multiplicative_random():
    L, act = shift_action()
    y = L.var("y")
    rng = random.Random(12)
    pool = [y, y * y, y + L.one(), L.one() / y, (y * y - L.one()) / y]
    for _ in range(25):
        a, b = rng.choice(pool), rng.choice(pool)
        assert act.expand(a * b, 5) == act.expand(a, 5) * act.expand(b, 5)


def test_expansion_equivariance_with_translation():
    # expanding d.a equals right-translating the expansion of a
    L, act = shift_action()
    y = L.var("y")
    for a in [y * y * y, L.one() / y]:
        ea = act.expand(a, 6)
        for k in range(1, 3):
            da = act.theta_coefficient(a, (k,))
            lhs = act.expand(da, 6 - k)
            rhs = ea.translate((), (k,))
            assert lhs == rhs


# ----------------------------------------------------------- universality


def test_universal_factorization_of_expansion_itself():
    L, act = shift_action()
    y = L.var("y")
    rep = check_expansion_universal(
        act, lambda e: act.expand(e, 4), L, lambda c: L.const(c), [y, y * y, L.one() / y], 4
    )
    assert rep.ok


def test_universal_factorization_recovers_composed_map():
    # Lambda = coordinatewise g after expansion, with g(y) = y^2
    L, act = shift_action()
    y = L.var("y")

    def g(elem):
        return L.hom(elem, GeneratorPowers(L, {"y": y * y}), L.const)

    def Lambda(elem):
        f = act.expand(elem, 4)
        return HomElement(
            L, f.monoid, f.tvars, f.horizon, f.word_bound,
            {w: s.map_coeffs(g, L) for w, s in f.data.items()},
        )

    rep = check_expansion_universal(act, Lambda, L, lambda c: L.const(c), [y, y * y], 4)
    assert rep.ok
    assert Lambda(y).ev_unit() == y * y


def test_universal_factorization_detects_violation():
    L, act = shift_action()
    y = L.var("y")

    def bad(elem):
        f = act.expand(elem, 4)
        s = f.data[()]
        broken = s + TruncSeries(L, s.vars, s.horizon, {(2,): elem})  # not a module map
        return HomElement(L, f.monoid, f.tvars, f.horizon, f.word_bound, {(): broken})

    rep = check_expansion_universal(act, bad, L, lambda c: L.const(c), [y * y], 4)
    assert not rep.ok


# --------------------------------------------------- tensor multiplication


def joint(L, act):
    theta_u = act  # the deformation direction reuses the translation action
    return ExpansionAlgebra(act, theta_u, t_horizon=3, w_horizon=3)


def test_merge_tensor_additive_generator():
    L, act = shift_action()
    y = L.var("y")
    alg = joint(L, act)
    rho_y = alg.expand_plain(y)
    one_w = TruncSeries.one(L, ("w",), 3)
    merged = alg.merge_tensor([(rho_y, one_w)])
    # the deformed realization of y: value y + t + w
    expected = alg.expand_rho(y)
    assert merged == expected
    coords = alg.coordinates(merged)
    assert coords[((), (0,), (0,))] == y
    assert coords[((), (1,), (0,))] == L.one()
    assert coords[((), (0,), (1,))] == L.one()


def test_merge_tensor_pure_w():
    L, act = shift_action()
    alg = joint(L, act)
    one = alg.expand_plain(L.one())
    w = TruncSeries.variable(L, ("w",), 3, "w")
    merged = alg.merge_tensor([(one, w)])
    assert merged == alg.from_w_series(w)


def test_merge_tensor_constant_factor():
    L, act = shift_action()
    y = L.var("y")
    alg = joint(L, act)
    rho0_y = act.constant_expansion(y, 3)
    one_w = TruncSeries.one(L, ("w",), 3)
    merged = alg.merge_tensor([(rho0_y, one_w)])
    assert merged == rho0(alg, y)


def test_merge_tensor_injective_on_basis():
    # distinct tensor basis elements have independent coordinates
    from modalg.exactalg import restriction_kernel

    L, act = shift_action()
    y = L.var("y")
    alg = joint(L, act)
    rho_y = alg.expand_plain(y)
    rho0_y = act.constant_expansion(y, 3)
    one_hom = alg.expand_plain(L.one())
    one_w = TruncSeries.one(L, ("w",), 3)
    w = TruncSeries.variable(L, ("w",), 3, "w")
    basis = []
    for hom in (one_hom, rho0_y, rho_y):
        for ws in (one_w, w, w * w):
            basis.append(alg.merge_tensor([(hom, ws)]))
    keys = sorted({k for b in basis for k in alg.coordinates(b)})
    cols = [[alg.coordinates(b).get(k, L.zero()) for k in keys] for b in basis]
    ker = restriction_kernel(cols, L, QQ)
    assert ker == []


def test_merge_tensor_kernel_of_w_power():
    # a merged element vanishing to w-order k must come from the (w^k) part:
    # here, subtracting the w-expansions detects equal tensors
    L, act = shift_action()
    y = L.var("y")
    alg = joint(L, act)
    a = alg.merge_tensor([(alg.expand_plain(y), TruncSeries.one(L, ("w",), 3))])
    b = alg.expand_rho(y)
    assert (a - b).is_zero()


# ------------------------------------------------------------ the box product


def flat_coordinates(alg, a, b, op):
    """Reference: the values of a and b on each word as single series in
    (t, w) up to total degree t_horizon + w_horizon, combined by op and cut
    back to the box t-degree <= t_horizon, w-degree <= w_horizon; as
    coordinates (word, t-exp, w-exp) -> coefficient."""
    nt = len(alg.tvars)
    vars_, h = alg.tvars + alg.wvars, alg.t_horizon + alg.w_horizon

    def flat(f):
        out = {word: {} for word in f.data}
        for (word, te, we), c in alg.coordinates(f).items():
            out[word][te + we] = c
        return {word: TruncSeries(alg.ring, vars_, h, terms) for word, terms in out.items()}

    fa, fb = flat(a), flat(b)
    return {(word, e[:nt], e[nt:]): c
            for word in fa.keys() & fb.keys()
            for e, c in op(fa[word], fb[word]).terms.items()
            if sum(e[:nt]) <= alg.t_horizon and sum(e[nt:]) <= alg.w_horizon}


@pytest.mark.parametrize("make, th, wh", [
    (additive_ext, 4, 8), (lambda: additive_ext(GF(7)), 3, 4), (q_difference_ext, 2, 2),
    (lambda: two_derivation_pv()[1], 2, 2)],
    ids=["additive-4-8", "additive-GF7", "q-difference", "two-derivations"])
def test_box_product_matches_the_flat_product_cut_to_the_box(make, th, wh):
    # sums and products of joint elements keep exactly the box that the
    # flat product over (t, w) keeps once cut back to it
    ext = make()
    alg = ExpansionAlgebra(ext.action, make_basis_derivation(ext, wh), th, wh)
    L = ext.L
    gens = [L.var(v) for v in L.vars]
    elems = ([alg.expand_rho(g) for g in gens] + [rho0(alg, g) for g in gens]
             + [alg.expand_rho(gens[0]) * rho0(alg, gens[-1]) + alg.one()])
    for a in elems:
        for b in elems:
            assert alg.coordinates(a * b) == flat_coordinates(alg, a, b, operator.mul)
            assert alg.coordinates(a + b) == flat_coordinates(alg, a, b, operator.add)
