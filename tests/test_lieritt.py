"""Infinitesimal transformation groups, differential polynomials and zero
sets: group axioms, the three worked zero-set families, the Jacobian at the
identity checked against a per-unknown dual-number linearization, and the
composition law polynomials checked against direct composition."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from modalg.exactalg import GF, QQ, Echelon, FracField, PolyRing
from modalg.lieritt import (
    DiffPoly,
    InfTransform,
    LieRittIdeal,
    NilAlgebra,
    _jacobian_at_identity,
    _splits,
    group_law_coeffs,
    multi_indices,
    solve_zero_set,
)
from modalg.series import TruncSeries


def series(alg, horizon, terms, var="w"):
    return TruncSeries(alg, (var,), horizon, terms)


# -------------------------------------------------------------- nilalgebra


def test_nilalgebra_arithmetic():
    A = NilAlgebra(QQ, ("a", "b"), 3)
    a, b = A.gen("a"), A.gen("b")
    assert A.mul(a, b) == {(1, 1): Fraction(1)}
    assert A.mul(A.mul(a, b), a) == {}  # degree 3 vanishes
    u = A.add(A.one(), a)
    assert A.mul(u, A.inv(u)) == A.one()
    assert A.is_nilpotent(a) and not A.is_nilpotent(u)
    assert A.unit_part(A.add(u, b)) == Fraction(1)


def test_transport_relabels_and_drops_what_the_target_kills():
    # a0 -> t0, a1 -> t1 into (s0, s1, t0, t1) of order 3: exponents are
    # shifted by two places and degree >= 3 is dropped; a ring map
    P = NilAlgebra(QQ, ("a0", "a1"), 4)
    P2 = NilAlgebra(QQ, ("s0", "s1", "t0", "t1"), 3)
    to_t = P.transport(P2, 2)
    c = QQ.from_int
    x = P.element({(0, 0): c(2), (1, 0): c(3), (1, 1): c(-1), (2, 1): c(5), (0, 3): c(7)})
    assert to_t(x) == {(0, 0, 0, 0): 2, (0, 0, 1, 0): 3, (0, 0, 1, 1): -1}
    assert P.transport(P2, 0)(x) == {(0, 0, 0, 0): 2, (1, 0, 0, 0): 3, (1, 1, 0, 0): -1}
    y = P.add(P.one(), P.gen("a1"))
    assert to_t(P.mul(x, y)) == P2.mul(to_t(x), to_t(y))
    # from a lower order the map would not respect products
    # (a0^3 = 0 in P, a0^3 != 0 in the target), so it is refused
    with pytest.raises(ValueError, match="order 3 to order 4"):
        NilAlgebra(QQ, ("a0",), 3).transport(NilAlgebra(QQ, ("s0", "t0"), 4), 1)


def test_sum_coefficients_print_in_parentheses():
    # a coefficient that is itself a sum must not run into its monomial:
    # c1 + (1 + c3)*y is not 1 + c3*y + c1, and (c1 - c3)*y is not c1 - c3*y
    A = NilAlgebra(QQ, ("c1", "c2", "c3"), 2)
    c1, c3 = A.gen("c1"), A.gen("c3")
    R = PolyRing(A, ["y"])
    y = R.var("y")
    assert str(R.scalar(c1) + R.scalar(A.add(A.one(), c3)) * y) == "(1 + c3)*y + c1"
    assert str(R.scalar(A.sub(c1, c3)) * y) == "(c1 - c3)*y"
    # the other printers share the rule
    assert str(series(A, 2, {(1,): A.sub(c1, c3)})) == "(c1 - c3)*w"
    assert A.to_str(A.mul(A.add(A.one(), c1), A.sub(A.one(), c3))) == "1 + c1 - c3"


def test_fraction_coefficients_print_in_one_pair_of_parentheses():
    # a fraction over the denominator 1 prints as its numerator, so the term
    # printer's parentheses are the only ones
    F = FracField(QQ, ["y"])
    y = F.var("y")
    E = NilAlgebra(F, ("e",), 2)
    assert E.to_str({(1,): y + F.one()}) == "(y + 1)*e"
    assert E.to_str({(1,): y}) == "y*e"
    assert str(y + F.one()) == "y + 1"
    assert str((y + F.one()) / (y - F.one())) == "(y + 1)/(y - 1)"
    assert str(F.one() / y) == "1/y"


# ------------------------------------------------------------- composition


def test_compose_additive_translations():
    # two first-order translations compose to the sum of the shifts
    A = NilAlgebra(QQ, ("a", "b"), 2)
    a, b = A.gen("a"), A.gen("b")
    w = TruncSeries.variable(A, ("w",), 4, "w")
    pa = InfTransform(A, [TruncSeries.const(A, ("w",), 4, a) + w])
    pb = InfTransform(A, [TruncSeries.const(A, ("w",), 4, b) + w])
    got = pa.compose(pb)
    assert got.comps[0] == TruncSeries.const(A, ("w",), 4, A.add(a, b)) + w


def test_compose_identity_right():
    A = NilAlgebra(QQ, ("a",), 3)
    a = A.gen("a")
    w = TruncSeries.variable(A, ("w",), 4, "w")
    phi = InfTransform(A, [TruncSeries.const(A, ("w",), 4, a) + w + w.scale(a)])
    ident = InfTransform.identity(A, ("w",), 4)
    assert phi.compose(ident) == phi
    assert ident.compose(phi) == phi


def test_compose_scaled_translations_product_formula():
    # the conjugated multiplicative family composes by
    # y(a+b+ab) + (1+a+b+ab) w
    L = FracField(QQ, ["y"])
    y = L.var("y")
    A = NilAlgebra(L, ("a1", "b1"), 3)
    a1, b1 = A.gen("a1"), A.gen("b1")
    w = TruncSeries.variable(A, ("w",), 4, "w")

    def member(t):
        return InfTransform(
            A,
            [TruncSeries.const(A, ("w",), 4, A.mul(A.scalar(y), t)) + w + w.scale(t)],
        )

    got = member(a1).compose(member(b1))
    s = A.add(A.add(a1, b1), A.mul(a1, b1))
    expected = InfTransform(
        A, [TruncSeries.const(A, ("w",), 4, A.mul(A.scalar(y), s)) + w + w.scale(s)]
    )
    assert got == expected


def test_invert_examples():
    A2 = NilAlgebra(QQ, ("a",), 2)
    a = A2.gen("a")
    w = TruncSeries.variable(A2, ("w",), 4, "w")
    shift = InfTransform(A2, [TruncSeries.const(A2, ("w",), 4, a) + w])
    inv = shift.invert()
    assert inv.comps[0] == TruncSeries.const(A2, ("w",), 4, A2.neg(a)) + w
    assert shift.compose(inv).is_identity() and inv.compose(shift).is_identity()

    ident = InfTransform.identity(A2, ("w",), 4)
    assert ident.invert() == ident

    scale = InfTransform(A2, [w + w.scale(a)])  # (1+a) w with a^2 = 0
    assert scale.invert().comps[0] == w - w.scale(a)


def rand_transform(rng, A, nvars, horizon):
    vars_ = tuple(f"w{i+1}" for i in range(nvars))
    nil_monos = [m for m in A.monomials() if sum(m) > 0]
    comps = []
    for i in range(nvars):
        terms = {}
        for e in multi_indices(nvars, horizon):
            if rng.random() < 0.4:
                terms[e] = A.element(
                    {m: Fraction(rng.randint(-3, 3)) for m in nil_monos if rng.random() < 0.6}
                )
        unit = [0] * nvars
        unit[i] = 1
        terms[tuple(unit)] = A.add(terms.get(tuple(unit), A.zero()), A.one())
        comps.append(TruncSeries(A, vars_, horizon, terms))
    return InfTransform(A, comps)


def test_group_axioms_random():
    rng = random.Random(2024)
    for nvars in (1, 2):
        for order in (2, 3):
            A = NilAlgebra(QQ, ("e1", "e2"), order)
            ident = InfTransform.identity(A, tuple(f"w{i+1}" for i in range(nvars)), 4)
            for _ in range(12):
                f = rand_transform(rng, A, nvars, 4)
                g = rand_transform(rng, A, nvars, 4)
                h = rand_transform(rng, A, nvars, 4)
                assert f.compose(g).compose(h) == f.compose(g.compose(h))
                assert f.compose(ident) == f and ident.compose(f) == f
                fi = f.invert()
                assert f.compose(fi) == ident and fi.compose(f) == ident


def fixed_point_inverse(f):
    """The inverse by the iteration psi <- w - dev(psi), one nilpotent layer
    per sweep, at the working horizon of f, truncated back."""
    A = f.algebra
    H = f.horizon + max(A.order - 2, 0)
    ident = [TruncSeries.variable(A, f.vars, H, v) for v in f.vars]
    dev = [p.with_horizon(H) - ident[i] for i, p in enumerate(f.comps)]
    psi = list(ident)
    for _ in range(A.order + 1):
        new_psi = [ident[i] - dev[i].compose(psi, strict=False) for i in range(len(psi))]
        if new_psi == psi:
            break
        psi = new_psi
    return InfTransform(A, [p.with_horizon(f.horizon) for p in psi], check=False)


def test_invert_matches_the_fixed_point_iteration():
    # invert is formal_inverse of the components; the fixed-point iteration
    # it replaced stays here as the reference
    rng = random.Random(16)
    for nvars in (1, 2):
        for order in (2, 3, 4):
            A = NilAlgebra(QQ, ("e1", "e2"), order)
            for _ in range(6):
                f = rand_transform(rng, A, nvars, 3)
                assert f.invert() == fixed_point_inverse(f)


def test_validation_rejects_non_congruent():
    A = NilAlgebra(QQ, ("a",), 2)
    w = TruncSeries.variable(A, ("w",), 3, "w")
    bad = w + w  # leading coefficient 2 is not congruent to 1
    with pytest.raises(ValueError):
        InfTransform(A, [bad])


# -------------------------------------------------- differential polynomials


def higher_symbols(ring, horizon):
    """The tail generators Y^(k) for 2 <= k <= horizon."""
    return [DiffPoly.symbol(1, ring, ("w",), horizon, 0, (k,)) for k in range(2, horizon + 1)]


def ideal_additive(horizon):
    # Y^(1) - 1 together with the tail Y^(k) for k >= 2
    one = TruncSeries.one(QQ, ("w",), horizon)
    F = DiffPoly.symbol(1, QQ, ("w",), horizon, 0, (1,)) - DiffPoly.coefficient(1, one)
    return LieRittIdeal(1, QQ, ("w",), horizon, [F, *higher_symbols(QQ, horizon)])


def ideal_multiplicative(horizon):
    # w Y^(1) - Y with tail Y^(k) for k >= 2
    w = TruncSeries.variable(QQ, ("w",), horizon, "w")
    F = DiffPoly.symbol(1, QQ, ("w",), horizon, 0, (1,)).scale_series(w) - DiffPoly.symbol(
        1, QQ, ("w",), horizon, 0, (0,)
    )
    return LieRittIdeal(1, QQ, ("w",), horizon, [F, *higher_symbols(QQ, horizon)])


def ideal_conjugated(L, horizon):
    # (y+w) Y^(1) - Y - y with tail Y^(k) for k >= 2
    y = L.var("y")
    yw = TruncSeries(L, ("w",), horizon, {(0,): y, (1,): L.one()})
    F = (
        DiffPoly.symbol(1, L, ("w",), horizon, 0, (1,)).scale_series(yw)
        - DiffPoly.symbol(1, L, ("w",), horizon, 0, (0,))
        - DiffPoly.coefficient(1, TruncSeries.const(L, ("w",), horizon, y))
    )
    return LieRittIdeal(1, L, ("w",), horizon, [F, *higher_symbols(L, horizon)])


def test_diffpoly_eval_examples():
    A = NilAlgebra(QQ, ("a",), 2)
    a = A.gen("a")
    w = TruncSeries.variable(A, ("w",), 4, "w")

    F2 = DiffPoly.symbol(1, QQ, ("w",), 4, 0, (2,))
    phi = InfTransform(A, [w + (w * w).scale(a)])
    assert F2.evaluate(phi, A.scalar) == TruncSeries.const(A, ("w",), 4, a)

    ideal = ideal_additive(4)
    shift = InfTransform(A, [TruncSeries.const(A, ("w",), 4, a) + w])
    F = ideal.generators[0]
    assert F.evaluate(shift, A.scalar).is_zero()

    Fm = ideal_multiplicative(4).generators[0]
    scale = InfTransform(A, [w + w.scale(a)])
    assert Fm.evaluate(scale, A.scalar).is_zero()


def test_diffpoly_derivation_rule():
    # derivative of Y^(k) carries the binomial structure constants
    F = DiffPoly.symbol(1, QQ, ("w",), 6, 0, (1,))
    d = F.hasse_deriv((2,))
    ((key, coeff),) = d.terms.items()
    assert key == (((0, (3,)), 1),)
    assert coeff == TruncSeries.const(QQ, ("w",), 6, Fraction(3))  # C(3,1)


def test_diffpoly_leibniz_via_evaluation():
    # evaluation commutes with the derivation on a product of symbols
    A = NilAlgebra(QQ, ("a", "b"), 3)
    a, b = A.gen("a"), A.gen("b")
    w = TruncSeries.variable(A, ("w",), 5, "w")
    phi = InfTransform(A, [TruncSeries.const(A, ("w",), 5, a) + w + (w * w).scale(b)])
    Y = DiffPoly.symbol(1, QQ, ("w",), 5, 0, (0,))
    F = Y * Y
    for k in range(4):
        lhs = F.hasse_deriv((k,)).evaluate(phi, A.scalar)
        rhs = F.evaluate(phi, A.scalar).hasse_deriv((k,))
        assert lhs == rhs


def test_diffpoly_iteration_rule_with_a_w_dependent_coefficient():
    # D^(i) o D^(j) = C(i+j, i) D^(i+j) on symbols and on the coefficient;
    # over GF(3) some of the binomials vanish, and then so does D^(i) o D^(j)
    h = 6
    for F in (QQ, GF(3)):
        w = TruncSeries.variable(F, ("w",), h, "w")
        c = TruncSeries.const(F, ("w",), h, F.from_int(2)) + w + w * w * w
        Y0, Y1 = (DiffPoly.symbol(1, F, ("w",), h, 0, (k,)) for k in (0, 1))
        P = (Y0 * Y1).scale_series(c) + Y1 * Y1 * Y1 + DiffPoly.coefficient(1, w ** 4)
        vanished = 0
        for i in range(h + 1):
            for j in range(h + 1):
                lhs = P.hasse_deriv((j,)).hasse_deriv((i,))
                n = TruncSeries.const(F, ("w",), h, F.from_int(math.comb(i + j, i)))
                rhs = P.hasse_deriv((i + j,))
                assert lhs.terms == rhs.scale_series(n).terms
                vanished += lhs.is_zero() and not rhs.is_zero()
        assert (vanished > 0) == (F is not QQ)


def test_derive_then_evaluate_agrees_below_the_horizon():
    # D^(l) commutes with evaluation in every w-degree <= horizon - |l|,
    # also where D^(l) moves a symbol above the horizon (it vanishes on a
    # transformation at this horizon) and with a w-dependent coefficient
    h = 4
    A = NilAlgebra(QQ, ("a", "b"), 3)
    a, b = A.gen("a"), A.gen("b")
    for wvars in (("w",), ("w1", "w2")):
        n = len(wvars)
        x, y = (TruncSeries.variable(A, wvars, h, v) for v in (wvars[0], wvars[-1]))
        top = (x * x * x).scale(a) + (y * y * y * y).scale(b)  # symbols up to order 4 live
        phi = InfTransform(A, [TruncSeries.const(A, wvars, h, a) + x + (x * y).scale(b) + top]
                           + [y + (x * x * y * y).scale(a)] * (n - 1))
        q = [TruncSeries.variable(QQ, wvars, h, v) for v in wvars]
        c = TruncSeries.const(QQ, wvars, h, Fraction(1, 2)) + q[0] * q[-1]
        k2 = (2,) + (0,) * (n - 1)
        Y = [DiffPoly.symbol(n, QQ, wvars, h, i, k) for i, k in ((0, (0,) * n), (n - 1, k2), (0, k2))]
        F = (Y[0] * Y[1]).scale_series(c) + Y[2] * Y[2]
        for l in multi_indices(n, h):
            lhs = F.hasse_deriv(l).evaluate(phi, A.scalar)
            rhs = F.evaluate(phi, A.scalar).hasse_deriv(l)
            for d in multi_indices(n, h - sum(l)):
                assert A.eq(lhs.coeff(d), rhs.coeff(d)), (wvars, l, d)


# ----------------------------------------------------------------- zero sets


def test_zero_set_additive_family():
    fam = solve_zero_set(ideal_additive(5))
    assert not fam.empty
    assert fam.params == ["a0"]
    A = fam.algebra
    expected = TruncSeries(
        A, ("w",), 5, {(0,): A.gen("a0"), (1,): A.one()}
    )
    assert fam.components[0] == expected
    assert fam.shape() == "{ a0 + w : a0 in N(A) }"


def test_zero_set_multiplicative_family():
    fam = solve_zero_set(ideal_multiplicative(5))
    assert fam.params == ["a0"]
    A = fam.algebra
    expected = TruncSeries(A, ("w",), 5, {(1,): A.add(A.one(), A.gen("a0"))})
    assert fam.components[0] == expected


def test_zero_set_conjugated_family():
    L = FracField(QQ, ["y"])
    fam = solve_zero_set(ideal_conjugated(L, 5))
    assert fam.params == ["a0"]
    A = fam.algebra
    y = L.var("y")
    expected = TruncSeries(
        A,
        ("w",),
        5,
        {(0,): A.mul(A.scalar(y), A.gen("a0")), (1,): A.add(A.one(), A.gen("a0"))},
    )
    assert fam.components[0] == expected


def test_zero_set_empty_when_inconsistent():
    # Y - (1 + w): the identity leaves residue -1, unreachable by nilpotents
    one = TruncSeries.one(QQ, ("w",), 4)
    w = TruncSeries.variable(QQ, ("w",), 4, "w")
    F = DiffPoly.symbol(1, QQ, ("w",), 4, 0, (0,)) - DiffPoly.coefficient(1, one + w)
    fam = solve_zero_set(LieRittIdeal(1, QQ, ("w",), 4, [F]))
    assert fam.empty


def test_zero_set_shapes():
    # the three shipped families and the inconsistent ideal, printed exactly
    L = FracField(QQ, ["y"])
    assert solve_zero_set(ideal_additive(5)).shape() == "{ a0 + w : a0 in N(A) }"
    assert solve_zero_set(ideal_multiplicative(5)).shape() == "{ (1 + a0)*w : a0 in N(A) }"
    assert solve_zero_set(ideal_conjugated(L, 5)).shape() == "{ y*a0 + (1 + a0)*w : a0 in N(A) }"
    one = TruncSeries.one(QQ, ("w",), 4)
    F = DiffPoly.symbol(1, QQ, ("w",), 4, 0, (0,)) - DiffPoly.coefficient(1, one)
    assert solve_zero_set(LieRittIdeal(1, QQ, ("w",), 4, [F])).shape() == "<empty>"


def test_zero_set_rejects_symbol_above_horizon():
    Y5 = DiffPoly.symbol(1, QQ, ("w",), 4, 0, (5,))
    Y1 = DiffPoly.symbol(1, QQ, ("w",), 4, 0, (1,))
    with pytest.raises(ValueError, match="symbol order exceeds the horizon"):
        solve_zero_set(LieRittIdeal(1, QQ, ("w",), 4, [Y1, Y5]))


def test_zero_set_families_are_subgroups():
    # closure of each shipped family under composition and inversion,
    # with independent symbolic parameters
    L = FracField(QQ, ["y"])
    cases = [
        (ideal_additive(4), QQ),
        (ideal_multiplicative(4), QQ),
        (ideal_conjugated(L, 4), L),
    ]
    for ideal, base in cases:
        fam = solve_zero_set(ideal)
        big = NilAlgebra(base, ("s", "t"), 3)
        lift = big.scalar
        f = fam.instantiate(big, {"a0": big.gen("s")})
        g = fam.instantiate(big, {"a0": big.gen("t")})
        for probe in (f.compose(g), f.invert()):
            for gen in ideal.generators:
                assert gen.evaluate(probe, lift).is_zero()


def test_reduction_functoriality():
    # killing the nilpotents sends every transformation to the identity
    A = NilAlgebra(QQ, ("e1", "e2"), 3)
    rng = random.Random(3)
    for _ in range(10):
        phi = rand_transform(rng, A, 1, 4)
        reduced = [c.map_coeffs(lambda x: A.unit_part(x), QQ) for c in phi.comps]
        assert reduced[0] == TruncSeries.variable(QQ, ("w1",), 4, "w1")


def test_multiplicative_conjugated_isomorphism():
    # (1+a)w  ->  ya + (1+a)w  is a group homomorphism: both sides compose
    # to the parameter law a + b + ab
    L = FracField(QQ, ["y"])
    y = L.var("y")
    A = NilAlgebra(L, ("a", "b"), 3)
    a, b = A.gen("a"), A.gen("b")
    w = TruncSeries.variable(A, ("w",), 4, "w")

    def g_mult(t):
        return InfTransform(A, [w + w.scale(t)])

    def g_conj(t):
        return InfTransform(
            A, [TruncSeries.const(A, ("w",), 4, A.mul(A.scalar(y), t)) + w + w.scale(t)]
        )

    law = A.add(A.add(a, b), A.mul(a, b))
    assert g_mult(a).compose(g_mult(b)) == g_mult(law)
    assert g_conj(a).compose(g_conj(b)) == g_conj(law)


# ------------------------------------------------- Jacobian at the identity


def oracle_rows(gens, base_ring, wvars, horizon, unknowns):
    """Reference linearization at the identity: perturb one unknown at a
    time by p*w^k over the dual numbers and read off the coefficient of p in
    every generator's value."""
    probe_alg = NilAlgebra(base_ring, ("_p",), 2)
    probe = probe_alg.gen("_p")
    ident = InfTransform.identity(probe_alg, wvars, horizon)
    rows = {(gi, exp): [base_ring.zero()] * len(unknowns)
            for gi in range(len(gens)) for exp in multi_indices(len(wvars), horizon)}
    for col, (i, k) in enumerate(unknowns):
        comps = list(ident.comps)
        comps[i] = comps[i] + TruncSeries(probe_alg, wvars, horizon, {k: probe})
        perturbed = InfTransform(probe_alg, comps, check=False)
        for gi, g in enumerate(gens):
            for exp, c in g.evaluate(perturbed, probe_alg.scalar).terms.items():
                rows[(gi, exp)][col] = c.get((1,), base_ring.zero())
    return rows


def oracle_consistent(gens, base_ring, wvars, horizon):
    """Does the identity tuple annihilate every generator?"""
    alg = NilAlgebra(base_ring, (), 1)
    ident = InfTransform.identity(alg, wvars, horizon)
    return all(g.evaluate(ident, alg.scalar).is_zero() for g in gens)


def jacobian_and_oracle(gens, base_ring, wvars, horizon):
    """Check the closed-form Jacobian and residue verdict against the
    oracles; the rows and the unknowns, for further checks."""
    unknowns = [(i, k) for i in range(len(wvars)) for k in multi_indices(len(wvars), horizon)]
    columns, consistent = _jacobian_at_identity(gens, base_ring, len(wvars), horizon, unknowns)
    assert len(columns) == len(unknowns)
    # densify the sparse columns: a key outside the rows, or a stored zero, fails
    rows = {(gi, exp): [base_ring.zero()] * len(unknowns)
            for gi in range(len(gens)) for exp in multi_indices(len(wvars), horizon)}
    for col, column in enumerate(columns):
        for key, x in column.items():
            assert key in rows and not base_ring.is_zero(x), (key, col)
            rows[key][col] = x
    want = oracle_rows(gens, base_ring, wvars, horizon, unknowns)
    assert rows.keys() == want.keys()
    for key, row in rows.items():
        assert all(base_ring.eq(a, b) for a, b in zip(row, want[key])), key
    assert consistent == oracle_consistent(gens, base_ring, wvars, horizon)
    return rows, unknowns


def random_diffpoly(rng, base_ring, wvars, horizon, scalars):
    """A sum of up to four terms of Y-degree <= 3; the symbols favour the
    orders 0 and e_i, where the identity takes nonzero values."""
    nv = len(wvars)
    units = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    ks = multi_indices(nv, horizon)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = {}
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(nv)
            k = rng.choice([(0,) * nv, units[i], rng.choice(ks)])
            key[(i, k)] = key.get((i, k), 0) + 1
        coeffs = {e: rng.choice(scalars) for e in ks if rng.random() < 0.3}
        coeffs[rng.choice(ks[:nv + 1])] = rng.choice(scalars)
        terms[tuple(key.items())] = TruncSeries(base_ring, wvars, horizon, coeffs)
    return DiffPoly(nv, base_ring, wvars, horizon, terms)


def vanishing_at_identity(g):
    """g minus its value at the identity tuple."""
    alg = NilAlgebra(g.coeff_ring, (), 1)
    value = g.evaluate(InfTransform.identity(alg, g.wvars, g.horizon), alg.scalar)
    return g - DiffPoly.coefficient(g.nstreams, value.map_coeffs(alg.unit_part, g.coeff_ring))


def test_jacobian_matches_dual_number_oracle_random():
    rng = random.Random(1311)
    L = FracField(QQ, ["y"])
    y = L.var("y")
    F5 = GF(5)
    bases = [
        (QQ, [Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2)]),
        (F5, [1, 2, 3, 4]),
        (L, [L.one(), y, L.neg(y), y * y + L.one(), L.one() / y]),
    ]
    for base, scalars in bases:
        for nv in (1, 2):
            wvars = ("w",) if nv == 1 else ("w1", "w2")
            for horizon in range(3, 7) if nv == 1 else (3, 4):
                for _ in range(3):
                    gens = [random_diffpoly(rng, base, wvars, horizon, scalars)
                            for _ in range(rng.randint(1, 3))]
                    jacobian_and_oracle(gens, base, wvars, horizon)
                    # the same generators shifted to vanish at the identity
                    jacobian_and_oracle([vanishing_at_identity(g) for g in gens],
                                        base, wvars, horizon)


def test_jacobian_in_characteristic_five():
    # over GF(5) C(5, 1) = 5 kills the move of Y^(1) under the unknown w^5,
    # and the exponent 5 kills the whole linear term of Y^5 - w^5
    F5 = GF(5)
    w = TruncSeries.variable(F5, ("w",), 6, "w")
    Y = DiffPoly.symbol(1, F5, ("w",), 6, 0, (0,))
    Y1 = DiffPoly.symbol(1, F5, ("w",), 6, 0, (1,))
    fifth = Y * Y * Y * Y * Y - DiffPoly.coefficient(1, w ** 5)
    rows, unknowns = jacobian_and_oracle([Y1, fifth], F5, ("w",), 6)
    col = unknowns.index((0, (5,)))
    assert all(F5.is_zero(rows[(0, e)][col]) for e in multi_indices(1, 6))
    assert F5.eq(rows[(0, (5,))][unknowns.index((0, (6,)))], F5.from_int(6))
    assert all(F5.is_zero(x) for e in multi_indices(1, 6) for x in rows[(1, e)])
    # over QQ both survive: 5*w^4 under w^5, and 5*w^4 * dY in the fifth power
    Yq = DiffPoly.symbol(1, QQ, ("w",), 6, 0, (0,))
    Y1q = DiffPoly.symbol(1, QQ, ("w",), 6, 0, (1,))
    wq = TruncSeries.variable(QQ, ("w",), 6, "w")
    fifth_q = Yq * Yq * Yq * Yq * Yq - DiffPoly.coefficient(1, wq ** 5)
    rows_q, _ = jacobian_and_oracle([Y1q, fifth_q], QQ, ("w",), 6)
    assert rows_q[(0, (4,))][col] == 5 and rows_q[(1, (4,))][unknowns.index((0, (0,)))] == 5


def test_jacobian_elimination_takes_no_fill_in():
    # the Jacobian of the exponential ideal at w-horizon 8 (the ideal the
    # exponential chain builds at (4, 8)) is triangular in the Hasse binomials
    # C(k0, k): pivoting each column at the key no later column touches
    # clears only the column's own other entries, where pivoting at its first
    # key filled in up to 35 clears for 9 nonzeros
    ideal = ideal_conjugated(FracField(QQ, ["y"]), 8)
    unknowns = [(0, k) for k in multi_indices(1, 8)]
    columns, consistent = _jacobian_at_identity(ideal.generators, ideal.coeff_ring, 1, 8,
                                                unknowns)
    assert consistent and sum(map(len, columns)) == 44
    jacobian = Echelon(ideal.coeff_ring, columns)
    assert len(jacobian.steps) == 8 and len(jacobian.dependent) == 1
    assert [len(clears) for _, _, clears in jacobian.steps] == [
        len(columns[jacobian.pivots[p]]) - 1 for p, _, _ in jacobian.steps]


def test_correction_eliminates_the_jacobian_once(monkeypatch):
    # a Y-nonlinear ideal in two streams whose corrections meet residues at
    # many parameter monomials, some absorbable and some not: the kernel and
    # every correction are read off one elimination of the Jacobian
    rng = random.Random(7)
    wvars = ("w1", "w2")
    scalars = [Fraction(c) for c in (-2, -1, 1, 3)] + [Fraction(1, 2)]
    gens = [vanishing_at_identity(random_diffpoly(rng, QQ, wvars, 3, scalars))
            for _ in range(rng.randint(1, 3))]
    assert max(g.y_degree() for g in gens) > 1
    # every Echelon built is one elimination; every solve replays one
    built, solved = [], []
    init, solve = Echelon.__init__, Echelon.solve

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_solve(self, vec):
        solved.append(self)
        return solve(self, vec)

    monkeypatch.setattr(Echelon, "__init__", counting_init)
    monkeypatch.setattr(Echelon, "solve", counting_solve)
    fam = solve_zero_set(LieRittIdeal(2, QQ, wvars, 3, gens))
    assert len(built) == 1
    assert set(map(id, solved)) == {id(built[0])}
    assert 0 < len(fam.constraints) < len(solved)


# ----------------------------------------------------------- formal group law


def test_group_law_l0_and_l2():
    ring, law = group_law_coeffs(1, 3)
    u = {k: ring.var(f"u1_{k}") for k in range(4)}
    v = {k: ring.var(f"v1_{k}") for k in range(4)}
    f0 = law[(0, (0,))]
    expected0 = v[0] + v[1] * u[0] + v[2] * u[0] ** 2 + v[3] * u[0] ** 3
    assert f0 == expected0
    # with u_0 = 0 the w^2 coefficient collapses to v1 u2 + v2 u1^2
    f2 = law[(0, (2,))].subs({"u1_0": ring.zero()})
    assert f2 == v[1] * u[2] + v[2] * u[1] ** 2


def test_group_law_identity():
    ring, law = group_law_coeffs(1, 3)
    # outer = identity (v_1 = 1, others 0) reduces f_(i,l) to u_(i,l)
    subs = {f"v1_{k}": ring.one() if k == 1 else ring.zero() for k in range(4)}
    for l in range(4):
        assert law[(0, (l,))].subs(subs) == ring.var(f"u1_{l}")


def test_group_law_matches_compose_samples():
    rng = random.Random(17)
    for nvars in (1, 2):
        ring, law = group_law_coeffs(nvars, 4)
        A = NilAlgebra(QQ, ("e1", "e2"), 3)
        for _ in range(8):
            phi = rand_transform(rng, A, nvars, 4)
            psi = rand_transform(rng, A, nvars, 4)
            composed = psi.compose(phi)  # psi(phi), inner coefficients are u
            subs = {}
            for j in range(nvars):
                for k in multi_indices(nvars, 4):
                    tag = "_".join(map(str, k))
                    subs[f"u{j+1}_{tag}"] = phi.comps[j].coeff(k)
                    subs[f"v{j+1}_{tag}"] = psi.comps[j].coeff(k)
            for i in range(nvars):
                for l in multi_indices(nvars, 4):
                    poly = law[(i, tuple(l))]
                    val = A.zero()
                    for exp, c in poly.terms.items():
                        t = A.scalar(c)
                        for vi, e in enumerate(exp):
                            for _ in range(e):
                                t = A.mul(t, subs[ring.vars[vi]])
                        val = A.add(val, t)
                    assert A.eq(val, composed.comps[i].coeff(l))


def test_splits_into_zero_parts():
    # only the zero multi-index is a sum of no parts
    assert list(_splits((0, 0), 0)) == [()]
    assert list(_splits((1, 0), 0)) == []
    assert sorted(_splits((2,), 2)) == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
