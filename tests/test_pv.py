"""Picard-Vessiot comparison: splitting a joint element over the deformed
R-monomial basis, checked against a per-monomial reference solve, the
formal groups of the additive, exponential and q-difference examples
against the theory (G_a-hat and G_m-hat, Lie dimension 1), and the
Picard-Vessiot axioms of these examples."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalg import hopf, pv
from modalg.actions import ActionSpec, MonoidDesc
from modalg.exactalg import (GF, QQ, Echelon, FracField, Matrix, PolyRing, RationalField, evaluate,
                             frac, poly_gcd, solve_linear)
from modalg.hull import ExtensionDesc, HullData, find_relations, hull_generators
from modalg.lieritt import InfTransform, NilAlgebra, SolutionFamily, multi_indices
from modalg.series import TruncSeries, identity_tuple, truncated_exp
from modalg.taylor import ExpansionAlgebra
from test_exactalg import dense_solve
from modalg.umemura import build_ideal, group_compatibility_check, solve_points


def exponential_pv(field=QQ):
    """R = k[y, 1/y], X = [[y]] for theta(y) = y exp(w); exp(w) is cut at
    w^8, so over GF(p) it needs p > 8."""
    L = FracField(field, ["y"])
    y = L.var("y")
    exp_w = TruncSeries(L, ("w",), 8, {(k,): L.inv(L.from_int(math.factorial(k)))
                                       for k in range(9)})
    img = TruncSeries.const(L, ("w",), 8, y) * exp_w
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    R = PolyRing(field, ["y", "yi"], inverse_pairs=[(0, 1)])
    X = Matrix(R, [[R.var("y")]])
    data = pv.PVData(L, action, R, X, {"y": ("X", 0, 0), "yi": ("Xinv", 0, 0)},
                     name="exponential")
    return data, ExtensionDesc(L, [y], action, name="exponential")


def split_by_monomial(img, columns, P, L):
    """Reference: one solve_linear per parameter monomial, on the coordinate
    columns of the deformed basis over the keys of the columns and the image."""
    ic = ExpansionAlgebra.coordinates(img)
    keys = sorted({k for col in columns for k in col} | set(ic), key=str)
    dmat = [[col.get(key, L.zero()) for col in columns] for key in keys]
    out = [P.zero() for _ in columns]
    for mono in P.monomials():
        rhs = [ic.get(key, P.zero()).get(mono, P.base.zero()) for key in keys]
        sol = solve_linear(dmat, rhs, L)
        if sol is None:
            return None
        for i, x in enumerate(sol):
            if not L.is_zero(x):
                out[i] = P.add(out[i], P.element({mono: x}))
    return out


def basis_columns(op, alg):
    """The coordinate columns of the deformed basis of a split operator."""
    return [alg.coordinates(alg.expand_rho(b)) for b in op.basis]


def same_split(got, want, P):
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(P.eq(a, b) for a, b in zip(got, want))


def test_split_tensor_matches_per_monomial_solve(monkeypatch):
    # every split the comparison makes goes through one factored operator and
    # matches the per-monomial reference solve
    calls = []
    original = pv._SplitOperator.split

    def recording(self, img, P):
        got = original(self, img, P)
        calls.append((self, img, P, got))
        return got

    monkeypatch.setattr(pv._SplitOperator, "split", recording)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["lie_dim"] == 1 and d["group_homomorphism"] is True
    assert d["formal_group"]["tag"] in ("Gm_hat", "Gm_hat_conjugate")
    # the sigma-image of y, then the image under the composite of f and g;
    # those of f and g are the first pushed along the parameter transports
    assert len(calls) == 2
    assert len({id(op) for op, _, _, _ in calls}) == 1
    L, alg = data.L, hull.algebra
    for op, img, P, got in calls:
        assert got is not None
        assert same_split(got, split_by_monomial(img, basis_columns(op, alg), P, L), P)
    op, img, P, _ = calls[0]
    # fewer basis columns: both agree on whether the element splits
    empty = pv._SplitOperator(L, [], alg)
    assert original(empty, img, P) is None
    assert split_by_monomial(img, [], P, L) is None
    y = L.var("y")
    for short in (op.basis[:1], op.basis[1:], [y, y + y]):
        sub = pv._SplitOperator(L, short, alg)
        got = original(sub, img, P)
        assert same_split(got, split_by_monomial(img, basis_columns(sub, alg), P, L), P)
    # [y, 2*y] has a dependent column, which is free: its coefficient is zero
    assert got is not None and P.is_zero(got[1]) and not P.is_zero(got[0])
    # every coordinate inside the block, but the image outside the span
    sub = pv._SplitOperator(L, [y * y], alg)
    assert set(alg.coordinates(img)) <= set().union(*basis_columns(sub, alg))
    assert original(sub, img, P) is None
    assert split_by_monomial(img, basis_columns(sub, alg), P, L) is None


def additive_pv(field=QQ):
    """R = k[y], X = [[1, y], [0, 1]] for theta(y) = y + w."""
    L = FracField(field, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    R = PolyRing(field, ["y"])
    X = Matrix(R, [[R.one(), R.var("y")], [R.zero(), R.one()]])
    data = pv.PVData(L, action, R, X, {"y": ("X", 0, 1)}, name="additive")
    return data, ExtensionDesc(L, [y], action, name="additive")


def test_pvdata_inverts_x_over_the_field():
    # det [[1+y, y], [y, y-1]] = -1, so X^-1 = -[[y-1, -y], [-y, 1+y]]; no
    # entry of X is a unit of Q[y], and the inverse is taken over L
    data, _ = additive_pv()
    R = data.R
    y, one = R.var("y"), R.one()
    X = Matrix(R, [[one + y, y], [y, y - one]])
    inverted = pv.PVData(data.L, data.action, R, X, {"y": ("X", 0, 1)})
    assert inverted.Xinv == Matrix(R, [[one - y, y], [y, -one - y]])
    # 1/y is not in Q[y]
    with pytest.raises(ValueError):
        pv.PVData(data.L, data.action, R, Matrix(R, [[y]]), {"y": ("X", 0, 0)})


def test_pvdata_rejects_a_generator_with_no_location_in_l():
    # z is neither a generator of L = Q(y) nor the partner of one, whether
    # or not it has a partner of its own; X does not mention it
    data, _ = additive_pv()
    for R in (PolyRing(QQ, ["y", "z"]), PolyRing(QQ, ["y", "z", "zi"], [(1, 2)])):
        X = Matrix(R, [[R.one(), R.var("y")], [R.zero(), R.one()]])
        with pytest.raises(ValueError, match="no location in L"):
            pv.PVData(data.L, data.action, R, X, {"y": ("X", 0, 1)})


def test_l_to_r_rejects_an_element_outside_the_principal_ring():
    # 1/y is the partner yi of Q[y, 1/y] but lies outside Q[y]; 1/(y + 1)
    # lies in neither
    data, _ = exponential_pv()
    L, R = data.L, data.R
    y = L.var("y")
    assert data.l_to_r(L.div(L.one(), y * y)) == R.var("yi") * R.var("yi")
    assert data.r_to_L(R.var("yi")) == L.div(L.one(), y)
    with pytest.raises(ValueError):
        data.l_to_r(L.div(L.one(), y + L.one()))
    additive, _ = additive_pv()
    with pytest.raises(ValueError):
        additive.l_to_r(L.div(L.one(), y))


def product_pv():
    """R = Q[y, z, 1/z], X = [[1, y, 0], [0, 1, 0], [0, 0, z]] for
    theta(y) = y + w and theta(z) = z exp(w): the group G_a x G_m."""
    L = FracField(QQ, ["y", "z"])
    y, z = L.var("y"), L.var("z")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    action = ActionSpec(L, "iterder", n=1, theta_images={
        "y": TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()}),
        "z": TruncSeries.const(L, ("w",), 8, z) * truncated_exp(w)})
    R = PolyRing(QQ, ["y", "z", "zi"], inverse_pairs=[(1, 2)])
    one, zero = R.one(), R.zero()
    X = Matrix(R, [[one, R.var("y"), zero], [zero, one, zero], [zero, zero, R.var("z")]])
    data = pv.PVData(L, action, R, X,
                     {"y": ("X", 0, 1), "z": ("X", 2, 2), "zi": ("Xinv", 2, 2)},
                     name="product")
    return data, ExtensionDesc(L, [y, z], action, name="product")


def test_galois_points_additive_is_one_dimensional():
    # the formal points of the unipotent group are M = [[1, a], [0, 1]]: one
    # parameter, and the linear system must not be empty
    data, _ = additive_pv()
    fam = pv.galois_points(data, param_order=2)
    assert fam.report.ok and fam.report.checked > 0
    assert len(fam.params) == 1
    assert pv.lie_dim(data) == 1


def test_galois_points_exponential_as_dict():
    # sigma(y) = (1 + c0) y: M = [[1 + c0]], and sigma(1/y) = 1/((1 + c0) y)
    # = (1 - c0 + c0^2)/y, since c0^3 = 0 at param_order 3
    data, _ = exponential_pv()
    d = pv.galois_points(data).as_dict()
    assert list(d) == ["parameters", "matrix", "images", "checks"]
    assert d["parameters"] == ["c0"] and d["matrix"] == "[1 + c0]"
    assert d["images"] == {"y": "(1 + c0)*y", "yi": "(1 - c0 + c0^2)*yi"}
    assert d["checks"]["ok"]


def test_compare_additive_is_additive_group():
    data, ext = additive_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"]
    assert d["lie_dim"] == 1
    assert d["formal_group"]["tag"] == "Ga_hat"
    assert d["group_homomorphism"] is True
    assert d["induced_matrix"] == "[1, a0; 0, 1]"



@pytest.mark.parametrize("degree", [1, 2, 3])
def test_verify_additive_holds(degree):
    # the constant y_1 - y_2 has degree 1 and y_2 = y_1 - (y_1 - y_2)
    data, _ = additive_pv()
    report = pv.verify(data, degree)
    assert report.ok, report.failures


def test_additive_pv_in_characteristic_7():
    # the constants of GF(7)(y) of degree <= 3 are the scalars: the order-1
    # divided derivative must be imposed, not only the orders 7, 49, ...
    data, ext = additive_pv(GF(7))
    for degree in (2, 3):
        report = pv.verify(data, degree)
        assert report.ok, report.failures
    assert pv.lie_dim(data) == 1
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["formal_group"]["tag"] == "Ga_hat"


@pytest.mark.parametrize("degree, horizon", [(2, None), (3, None), (2, 10), (3, 10)],
                         ids=["2", "3", "2-10", "3-10"])
def test_verify_exponential_holds(degree, horizon):
    # the constants are the powers of y_1*yi_2, of degree 2; yi_2^d needs d
    # of them: yi_2^d = yi_1^d * (y_1*yi_2)^d.  At horizon 10 the doubled
    # action is expanded to w^10, where exp(w)*exp(-w) = 1 still holds.
    data, _ = exponential_pv()
    report = pv.verify(data, degree, horizon=horizon)
    assert report.ok, report.failures


def test_verify_exponential_below_constant_degree_names_the_bound():
    # no nonscalar constant has degree <= 1, so the doubled ring is not
    # generated at that bound; the failure says which bound to raise
    data, _ = exponential_pv()
    report = pv.verify(data, 1)
    assert not report.ok
    assert len(report.failures) == 1
    assert "degree <= 1" in report.failures[0] and "raise degree" in report.failures[0]


def test_hopf_algebra_additive_is_primitive():
    # the constants of R (x) R are k[y_1 - y_2]: one primitive generator h,
    # counit 0, antipode -h, and a polynomial algebra (no relations)
    data, _ = additive_pv()
    for degree in (1, 2, 3):
        presentation = pv.hopf_algebra(data, degree)
        assert presentation.report.ok, presentation.report.failures
        assert presentation.names == ["h"] and presentation.is_primitive("h")
        d = presentation.as_dict()
        assert d["generators"] == {"h": "y_1 - y_2"}
        assert d["counit"] == {"h": "0"}
        assert d["antipode"] == {"h": "-1*h"}
        assert d["comultiplication"] == {"h": "1*1(x)h + 1*h(x)1"}
        assert d["relations"] == []


def test_hopf_algebra_below_constant_degree_names_the_bound():
    # the grouplike constants have degree 2: at degree 1 nothing is found,
    # and the report must say so instead of passing with nothing checked
    data, _ = exponential_pv()
    report = pv.hopf_algebra(data, 1).report
    assert not report.ok
    assert "degree <= 1" in report.failures[0] and "raise degree" in report.failures[0]


@pytest.mark.parametrize("degree", [2, 3])
def test_hopf_algebra_exponential_is_grouplike(degree):
    # the constants are k[h1, h2] with h1 = y_1/y_2 and h2 = y_2/y_1:
    # grouplike generators, counit 1, antipode swapping them
    data, _ = exponential_pv()
    presentation = pv.hopf_algebra(data, degree)
    assert presentation.report.ok, presentation.report.failures
    assert presentation.names == ["h1", "h2"]
    assert presentation.is_grouplike("h1") and presentation.is_grouplike("h2")
    assert not presentation.is_primitive("h1")
    d = presentation.as_dict()
    assert d["generators"] == {"h1": "y_1*yi_2", "h2": "yi_1*y_2"}
    assert d["counit"] == {"h1": "1", "h2": "1"}
    assert d["antipode"] == {"h1": "1*h2", "h2": "1*h1"}


@pytest.mark.parametrize("degree", [2, 3])
def test_hopf_relations_exponential_are_pruned(degree):
    # k[h1, h2] / (h1*h2 - 1) is the coordinate ring of G_m: one relation,
    # every other kernel vector is a monomial multiple of it
    data, _ = exponential_pv()
    presentation = pv.hopf_algebra(data, degree)
    assert presentation.relations == ["1*h1*h2 + -1*1 = 0"]


@pytest.mark.parametrize("degree", [2, 3])
def test_hopf_algebra_product_is_ga_times_gm(degree):
    # G_a x G_m: the primitive y_1 - y_2 of G_a and the grouplike pair of
    # G_m, with the one relation of G_m; two R-variables per slot
    data, _ = product_pv()
    d = pv.hopf_algebra(data, degree).as_dict()
    assert d["checks"]["ok"], d["checks"]
    assert d["generators"] == {"h1": "y_1 - y_2", "h2": "z_1*zi_2", "h3": "zi_1*z_2"}
    assert d["comultiplication"] == {
        "h1": "1*1(x)h1 + 1*h1(x)1", "h2": "1*h2(x)h2", "h3": "1*h3(x)h3"}
    assert d["counit"] == {"h1": "0", "h2": "1", "h3": "1"}
    assert d["antipode"] == {"h1": "-1*h1", "h2": "1*h3", "h3": "1*h2"}
    assert d["relations"] == ["1*h2*h3 + -1*1 = 0"]


def test_hopf_axiom_check_fails_on_bad_maps():
    # the additive example with its own maps passes; a comultiplication that
    # is not coassociative, or an antipode that breaks the antipode law, fails
    data, _ = additive_pv()
    presentation = pv.hopf_algebra(data, 3)
    h = (1,)

    def check(comul, antipode):
        return hopf._check_hopf_axioms(presentation.tensor, presentation.gens, ["h"],
                                       {"h": comul}, {"h": data.k.zero()}, [data.k.zero()],
                                       {"h": antipode}, 3)

    neg = data.k.neg(data.k.one())
    assert check(presentation.comul["h"], presentation.antipode["h"]).ok
    # h -> h (x) 1 + 1 (x) h + h (x) h^2
    bad = dict(presentation.comul["h"])
    bad[(h, (2,))] = data.k.one()
    report = check(bad, {h: neg})
    assert "coassociativity fails on h" in report.failures
    assert "counit law fails on h" not in report.failures
    # S(h) = h: h + h is not the counit 0
    report = check(presentation.comul["h"], {h: data.k.one()})
    assert report.failures == ["antipode law fails on h"]


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("make", [additive_pv, exponential_pv, product_pv])
def test_mu_bijective(make, degree):
    # R (x) constants -> R (x) R is an isomorphism for a Picard-Vessiot ring
    data, _ = make()
    presentation = pv.hopf_algebra(data, degree)
    report = pv.check_mu_bijectivity(data, presentation, degree)
    assert report.ok, report.failures
    assert report.checked > 0


def q_difference_pv():
    """R = Q[y, 1/y], X = [[y]] for the endomorphism sigma(y) = 2*y."""
    L = FracField(QQ, ["y"])
    y = L.var("y")
    action = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * L.const(2)}])
    R = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    X = Matrix(R, [[R.var("y")]])
    data = pv.PVData(L, action, R, X, {"y": ("X", 0, 0), "yi": ("Xinv", 0, 0)},
                     name="q-difference")
    return data, ExtensionDesc(L, [y], action, name="q-difference")


def test_q_difference_pv_is_multiplicative():
    # sigma(X) = X * [[2]]: the difference Galois group is G_m, so the formal
    # group is G_m-hat with Lie dimension 1, and the axioms hold once the
    # degree reaches the constant y_1*yi_2
    data, ext = q_difference_pv()
    for degree in (2, 3):
        report = pv.verify(data, degree)
        assert report.ok, report.failures
    assert pv.lie_dim(data) == 1
    hull = hull_generators(ext, t_horizon=2, w_horizon=2)
    rels = find_relations(hull, diff_order=2, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"], d
    assert d["lie_dim"] == 1
    assert d["formal_group"]["tag"] == "Gm_hat_conjugate"
    assert d["group_homomorphism"] is True


EXAMPLES = {
    "exponential": (exponential_pv, 3),
    "additive": (additive_pv, 3),
    "additive GF(7)": (lambda: additive_pv(GF(7)), 3),
    "q-difference": (q_difference_pv, 2),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_compare_lie_dim_is_the_solved_parameter_count(name):
    # each example has a one-dimensional group (G_a or G_m): the formal family
    # compare solves has one parameter, and lie_dim counts the same kernel
    make, bound = EXAMPLES[name]
    data, ext = make()
    hull = hull_generators(ext, t_horizon=bound, w_horizon=bound)
    rels = find_relations(hull, diff_order=bound, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"], d
    assert d["lie_dim"] == pv.lie_dim(data) == len(d["galois_parameters"]) == 1


def test_compare_solves_the_formal_family_once(monkeypatch):
    # lie_dim is read from the family compare has solved, not solved again
    calls = []
    original = pv.galois_points

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pv, "galois_points", counting)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["lie_dim"] == 1
    assert len(calls) == 1


def test_compare_composes_the_symbolic_pair_once(monkeypatch):
    # the parameter law and the homomorphism check read the family's one
    # symbolic pair
    calls = []
    compose = InfTransform.compose

    def counting(self, other):
        calls.append(self.algebra)
        return compose(self, other)

    monkeypatch.setattr(InfTransform, "compose", counting)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["group_homomorphism"] is True
    assert len(calls) == 1


def two_derivation_pv():
    """R = Q[y, z, 1/z], X = [[1, y, 0], [0, 1, 0], [0, 0, z]] for the two
    commuting derivations theta(y) = y + w1 and theta(z) = z exp(w2): the
    group G_a x G_m with one w variable per factor."""
    L = FracField(QQ, ["y", "z"])
    y, z = L.var("y"), L.var("z")
    wvars = ("w1", "w2")
    w2 = TruncSeries.variable(L, wvars, 8, "w2")
    action = ActionSpec(L, "iterder", n=2, theta_images={
        "y": TruncSeries(L, wvars, 8, {(0, 0): y, (1, 0): L.one()}),
        "z": TruncSeries.const(L, wvars, 8, z) * truncated_exp(w2)})
    R = PolyRing(QQ, ["y", "z", "zi"], inverse_pairs=[(1, 2)])
    one, zero = R.one(), R.zero()
    X = Matrix(R, [[one, R.var("y"), zero], [zero, one, zero], [zero, zero, R.var("z")]])
    data = pv.PVData(L, action, R, X,
                     {"y": ("X", 0, 1), "z": ("X", 2, 2), "zi": ("Xinv", 2, 2)},
                     name="two derivations")
    return data, ExtensionDesc(L, [y, z], action, name="two derivations")


# name -> (make, horizon, relation degree, compare degree)
TRANSPORT_EXAMPLES = {
    "additive": (additive_pv, 3, 2, 3),
    "additive GF(7)": (lambda: additive_pv(GF(7)), 3, 2, 3),
    "exponential": (exponential_pv, 3, 2, 3),
    "exponential GF(11)": (lambda: exponential_pv(GF(11)), 3, 2, 3),
    "q-difference": (q_difference_pv, 2, 2, 3),
    "two derivations": (two_derivation_pv, 2, 1, 2),
}


def transport_example(name):
    """The data, hull and relations of a TRANSPORT_EXAMPLES entry, and its
    compare degree."""
    make, bound, degree, compare_degree = TRANSPORT_EXAMPLES[name]
    data, ext = make()
    hull = hull_generators(ext, t_horizon=bound, w_horizon=bound)
    return data, hull, find_relations(hull, diff_order=bound, degree=degree), compare_degree


@pytest.mark.parametrize("name", sorted(TRANSPORT_EXAMPLES))
def test_transported_induced_matrices_equal_the_reconstruction(name, monkeypatch):
    # inducing commutes with algebra maps: compare's induced matrix pushed
    # along a_i -> s_i and a_i -> t_i equals the matrix that f and g induce
    # when their images are reconstructed, split and induced
    seen = []
    check = pv._homomorphism_check
    monkeypatch.setattr(pv, "_homomorphism_check", lambda *args: seen.append(args) or check(*args))
    data, hull, rels, degree = transport_example(name)
    d = pv.compare(data, hull, rels, degree=degree).as_dict()
    assert d["ok"] and d["group_homomorphism"] is True
    [(_, _, um, split, Minduced)] = seen
    fam = um.family
    f, g, _ = fam.symbolic_pair
    P2 = f.algebra
    induced = pv._Induced(data, split, P2)
    for offset, point in ((0, f), (len(fam.params), g)):
        coeffs = [split.split(img, P2) for img in hull.images(point.comps)]
        assert None not in coeffs
        assert Minduced.map(fam.algebra.transport(P2, offset), P2) == induced.matrix(coeffs)


def wrong_symbolic_pair(monkeypatch):
    """Make every family's symbolic_pair (f, g, g . g) instead of
    (f, g, f . g)."""
    pair = SolutionFamily.symbolic_pair.func

    def wrong(fam):
        f, g, _ = pair(fam)
        return f, g, g.compose(g)

    monkeypatch.setattr(SolutionFamily, "symbolic_pair", property(wrong))


@pytest.mark.parametrize("name", sorted(TRANSPORT_EXAMPLES))
def test_checks_reject_a_wrong_composite(name, monkeypatch):
    # the transported points keep both group-law checks able to fail
    data, hull, rels, degree = transport_example(name)
    wrong_symbolic_pair(monkeypatch)
    assert group_compatibility_check(hull, solve_points(hull, rels)) is False
    assert pv.compare(data, hull, rels, degree=degree).as_dict()["group_homomorphism"] is False


def test_compare_reconstructs_only_the_composite(monkeypatch):
    # solve_points reconstructs the family's images and the homomorphism
    # check those of f . g; the images of f and g are transported
    calls = []
    images = HullData.images

    def counting(self, comps, entry=None):
        calls.append(comps[0].ring)
        return images(self, comps, entry)

    monkeypatch.setattr(HullData, "images", counting)
    data, hull, rels, degree = transport_example("two derivations")
    d = pv.compare(data, hull, rels, degree=degree).as_dict()
    assert d["ok"] and d["group_homomorphism"] is True
    assert len(calls) == 2


def test_compare_rejects_data_over_another_field():
    # the hull's symbolic points live over the hull's field, so PV data over
    # a different FracField (here in another variable) is refused up front
    data, _ = exponential_pv()
    other = FracField(QQ, ["z"])
    z = other.var("z")
    action = ActionSpec(other, "iterder", n=1, theta_images={
        "z": TruncSeries(other, ("w",), 8, {(0,): z, (1,): other.one()})})
    ext = ExtensionDesc(other, [z], action, name="additive in z")
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    with pytest.raises(ValueError, match="different fields"):
        pv.compare(data, hull, rels, degree=3)


def test_compare_product_has_two_parameters():
    # G_a x G_m is two-dimensional: two Galois parameters matched with the
    # two hull parameters by a group homomorphism; the split operator here
    # works over two L-generators.  The tag is not asserted: the product is
    # not classified yet.
    data, ext = product_pv()
    hull = hull_generators(ext, t_horizon=6, w_horizon=2)
    rels = find_relations(hull, diff_order=2, degree=2)
    d = pv.compare(data, hull, rels, degree=2).as_dict()
    assert d["ok"], d
    assert d["lie_dim"] == 2
    assert d["group_homomorphism"] is True
    assert len(d["galois_parameters"]) == 2


def test_residues_expand_each_generator_once(monkeypatch):
    # residues reads every theta payload from one expansion per R-generator
    # at the largest payload order: two generators (y, 1/y) per call, over
    # the two residue calls one exponential compare makes (the
    # linearization, and one correction layer at order 3 whose residues the
    # final check reads again, since the layer corrects no value)
    inside = []
    calls = []
    residue_calls = []
    residues, theta_series = pv._GaloisSystem.residues, ActionSpec.theta_series

    def counting_residues(self, *args):
        residue_calls.append(args[0])
        inside.append(True)
        try:
            return residues(self, *args)
        finally:
            inside.pop()

    def counting_theta(self, *args):
        if inside:
            calls.append(args[1])
        return theta_series(self, *args)

    monkeypatch.setattr(pv._GaloisSystem, "residues", counting_residues)
    monkeypatch.setattr(ActionSpec, "theta_series", counting_theta)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["lie_dim"] == 1
    assert len(residue_calls) == 2
    assert len(calls) == 2 * len(residue_calls) and set(calls) == {3}


def test_compare_replays_stay_sparse(monkeypatch):
    # the rational multiplications and additions made while the eliminations
    # of one compare replay their steps: 327, where pivoting each column at
    # its first unit key, which fills in the split block, made 719; the count
    # repeats exactly, so a rise means fill-in is back
    LIMIT = 327
    calls = {"replays": 0, "mul": 0, "add": 0}
    replay = Echelon._replay

    def counting_replay(self, vec):
        calls["replays"] += 1
        try:
            return replay(self, vec)
        finally:
            calls["replays"] -= 1

    def counting(name):
        op = getattr(RationalField, name)

        def counted(self, a, b):
            calls[name] += bool(calls["replays"])
            return op(self, a, b)
        return counted

    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    monkeypatch.setattr(Echelon, "_replay", counting_replay)
    for name in ("mul", "add"):
        monkeypatch.setattr(RationalField, name, counting(name))
    assert pv.compare(data, hull, rels, degree=3).as_dict()["ok"]
    assert calls["mul"] + calls["add"] <= LIMIT, calls


def test_galois_points_eliminates_the_linearization_once(monkeypatch):
    # the parameters and every layered correction are read off one
    # elimination of the linearization at the identity
    built = []
    init = Echelon.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self.size)

    monkeypatch.setattr(Echelon, "__init__", counting)
    data, _ = product_pv()
    fam = pv.galois_points(data, horizon=3, param_order=3)
    assert fam.report.ok and len(fam.params) == 2
    # one column per entry of the 3x3 matrix M; the other eliminations are
    # 3x3 inverses of X and of the points M
    n = data.X.nrows
    assert [size for size in built if size > n] == [9]
    assert all(size == n for size in built if size <= n)


def test_galois_points_linearization_matches_the_per_unknown_probes(monkeypatch):
    # the columns read off one evaluation at M = I + sum_u p_u E_u equal
    # those of one dual-number evaluation per unknown, which stays here as
    # the reference
    columns = []

    class Recording(Echelon):
        def __init__(self, field, vectors=()):
            vectors = list(vectors)
            if not columns:
                columns.extend(vectors)
            super().__init__(field, vectors)

    monkeypatch.setattr(pv, "Echelon", Recording)
    data, _ = product_pv()
    fam = pv.galois_points(data, horizon=3, param_order=3)
    assert fam.report.ok and len(fam.params) == 2

    base, n = data.L, data.X.nrows
    system = pv._GaloisSystem(data, 3)
    A = NilAlgebra(base, ("_p",), 2)
    expected = []
    for u in range(n * n):
        M = Matrix(A, [[A.add(A.one() if i == j else A.zero(),
                              A.gen("_p") if i * n + j == u else A.zero())
                        for j in range(n)] for i in range(n)])
        expected.append([(lbl, v.get((1,), base.zero())) for lbl, v in system.residues(A, M)[0]])
    assert [list(c.items()) for c in columns] == expected
    assert sum(map(len, expected)) > 0


def test_galois_points_lifts_x_once_per_test_algebra(monkeypatch):
    # residues runs once over the probe algebra and again over the
    # parameter algebra; X and X^-1 are lifted to R (x) A once for each
    lifts = []
    original = Matrix.map

    def recording(self, fn, new_ring=None):
        if self is data.X or self is data.Xinv:
            lifts.append((self is data.X, new_ring))
        return original(self, fn, new_ring)

    data, _ = exponential_pv()
    monkeypatch.setattr(Matrix, "map", recording)
    fam = pv.galois_points(data, horizon=3, param_order=2)
    assert fam.report.ok and len(fam.params) == 1
    # X and X^-1, each over the probe and the parameter algebra
    assert len(lifts) == len(set(lifts)) == 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elimination_replay_matches_solve_linear(data):
    # one elimination of the block serves every right-hand side: each replay
    # gives the solution the dense reduced echelon form of [block | rhs]
    # gives (zero at the free columns), or None, as solve_linear does
    entry = st.integers(-2, 2).map(Fraction)
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    cols = [data.draw(st.lists(entry, min_size=nrows, max_size=nrows)) for _ in range(ncols)]
    rows = [[col[i] for col in cols] for i in range(nrows)]
    block = Echelon(QQ, [dict(enumerate(col)) for col in cols])

    def rhs():
        # a combination of the columns, sometimes moved off their span
        xs = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
        b = [sum((x * col[i] for x, col in zip(xs, cols)), Fraction(0)) for i in range(nrows)]
        b[data.draw(st.integers(0, nrows - 1))] += data.draw(entry)
        return b

    for b in (rhs(), rhs()):
        want = dense_solve(rows, b, QQ)
        assert block.solve({i: x for i, x in enumerate(b) if x}) == want
        assert solve_linear(rows, b, QQ) == want


def test_hopf_algebra_eliminates_each_block_once(monkeypatch):
    # the comultiplication and the antipode of every generator are solved
    # against one elimination each of the pair block and the monomial block
    blocks = []

    class Recording(hopf.Echelon):
        def __init__(self, field, vectors=()):
            super().__init__(field, vectors)
            blocks.append(self.size)

    monkeypatch.setattr(hopf, "Echelon", Recording)
    data, _ = product_pv()
    d = pv.hopf_algebra(data, 2).as_dict()
    assert d["checks"]["ok"] and len(d["generators"]) == 3
    # generator selection eliminates its spans first, one per size of the
    # generator set (0 to 3); the relations eliminate the 20 generator
    # monomials of degree <= 3 once, beside the span of their consequences;
    # then 10 generator monomials of degree <= 2 in 3 generators, and their
    # 100 pairs
    assert blocks[-4:] == [20, 0, 100, 10] and 100 not in blocks[:-4]
    assert len(blocks[:-4]) == 4


def test_hopf_algebra_places_each_generator_monomial_once(monkeypatch):
    # the comultiplication reads the pair products off the generator
    # monomials placed once in the slots (1,2) and once in (2,3) of the
    # triple tensor power: 20 monomials of degree <= 3 in 3 generators
    placed = []
    original = hopf._TensorPower.place

    def recording(self, g, slots):
        placed.append((len(self.ring.vars) // len(self.R.vars), slots))
        return original(self, g, slots)

    monkeypatch.setattr(hopf._TensorPower, "place", recording)
    data, _ = product_pv()
    d = pv.hopf_algebra(data, 3).as_dict()
    assert d["checks"]["ok"] and len(d["generators"]) == 3
    assert placed.count((3, (1, 2))) == 20 and placed.count((3, (2, 3))) == 20


def test_chain_and_compare_take_no_polynomial_gcd(monkeypatch):
    # every fraction on these paths is a Laurent monomial c*y^a / y^b, so
    # sums, products and common denominators are exponent arithmetic; the
    # gcd is counted in every module that binds it
    calls = []

    def counting(*args):
        calls.append(args)
        return poly_gcd(*args)

    bound = [m for name, m in sorted(sys.modules.items())
             if name.split(".")[0] == "modalg" and getattr(m, "poly_gcd", None) is poly_gcd]
    assert frac in bound
    for module in bound:
        monkeypatch.setattr(module, "poly_gcd", counting)
    for make, tag, th, wh in ((additive_pv, "Ga_hat", 3, 4),
                              (exponential_pv, "Gm_hat_conjugate", 3, 4),
                              (q_difference_pv, "Gm_hat_conjugate", 2, 2)):
        _, ext = make()
        hull = hull_generators(ext, t_horizon=th, w_horizon=wh)
        rels = find_relations(hull, diff_order=wh, degree=2)
        report = solve_points(hull, rels, build_ideal(hull, rels))
        assert report.classification["tag"] == tag
        assert group_compatibility_check(hull, report)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["group_homomorphism"] is True
    assert calls == []


def images_by_words(hull, comps, entry):
    """HullData.images by the word-by-word formula: sum_k entry(i, k) times
    the powers of the deviation comps - w, each a function constant in t
    multiplied on every word."""
    alg = hull.algebra
    P = comps[0].ring
    alg_P = alg.with_ring(P)
    deviation = [alg_P.from_w_series(c - w)
                 for c, w in zip(comps, identity_tuple(P, comps[0].vars, alg.w_horizon))]
    ks = multi_indices(alg.theta_u.n, min(alg.w_horizon, P.order - 1))
    return [evaluate(((k, entry(i, k)) for k in ks), deviation, alg_P, lambda v: v)
            for i in range(hull.n_gens())]


@pytest.mark.parametrize("name", ["additive", "additive GF(7)", "exponential", "q-difference",
                                  "two derivations"])
def test_images_equal_the_word_by_word_formula(name):
    # the deviation powers scaled into each entry give the images that
    # multiplying by them word by word gives, over the family's algebra and
    # the symbolic pair's, for the default entry and for the entry of
    # group_compatibility_check
    data, hull, rels, _ = transport_example(name)
    um = solve_points(hull, rels)
    fam, alg = um.family, hull.algebra
    f, g, composed = fam.symbolic_pair

    def deformed(P):
        alg_P = alg.with_ring(P)
        return lambda i, k: alg.lift(alg._deform_hom(hull.derivative_table[(i, k)]),
                                     P.scalar, alg_P)

    for comps in (fam.components, g.comps, composed.comps):
        got = hull.images(comps)
        assert got == images_by_words(hull, comps, deformed(comps[0].ring))
        assert len(got[0].data) == (9 if name == "q-difference" else 1)
    to_f, alg_f = fam.algebra.transport(f.algebra, 0), alg.with_ring(f.algebra)
    f_images = [alg.lift(img, to_f, alg_f) for img in um.images.values()]

    def after_f(i, k):
        return f_images[i].hasse_deriv(k)

    assert hull.images(g.comps, after_f) == images_by_words(hull, g.comps, after_f)


def test_compare_evaluates_each_sigma_system_once(monkeypatch):
    # one exponential compare evaluates the system at the linearization and
    # at the one correction layer, whose residues and images the final check
    # and the family read; the theta action over R (x) A is built once per
    # test algebra
    evaluations, sigma_calls, actions = [], [], []
    residues, sigma_images = pv._GaloisSystem.residues, pv._GaloisSystem._sigma_images

    def counting_residues(self, A, M):
        evaluations.append(A)
        return residues(self, A, M)

    def counting_sigma(self, A, M):
        sigma_calls.append(A)
        return sigma_images(self, A, M)

    class Recording(ActionSpec):
        def __init__(self, ring, *args, **kwargs):
            actions.append(ring)
            super().__init__(ring, *args, **kwargs)

    monkeypatch.setattr(pv._GaloisSystem, "residues", counting_residues)
    monkeypatch.setattr(pv._GaloisSystem, "_sigma_images", counting_sigma)
    monkeypatch.setattr(pv, "ActionSpec", Recording)
    data, ext = exponential_pv()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=3, degree=2)
    d = pv.compare(data, hull, rels, degree=3).as_dict()
    assert d["ok"] and d["lie_dim"] == 1
    assert len(evaluations) == len(set(evaluations)) == 2
    assert sigma_calls == evaluations
    assert len(actions) == 2 and [r.field for r in actions] == evaluations


def test_galois_points_evaluates_again_after_a_later_correction(monkeypatch):
    # a value moved after the last evaluation is checked at its new place:
    # 1 + c0^2 on the diagonal of the additive family is not a point
    absorb = pv.absorb_residues

    def perturbing(algebra, jacobian, values, residues):
        out = absorb(algebra, jacobian, values, residues)
        values[0] = algebra.add(values[0], algebra.element({(2,): algebra.base.one()}))
        return out

    data, _ = additive_pv()
    assert pv.galois_points(data, param_order=3).report.ok
    monkeypatch.setattr(pv, "absorb_residues", perturbing)
    report = pv.galois_points(data, param_order=3).report
    assert not report.ok
    assert report.failures == ["solved family leaves a nonzero residue"]


def test_final_check_reads_every_label(monkeypatch):
    # a residue under a label outside the linearization's coordinates takes
    # no part in the corrections, and still fails the final check
    residues = pv._GaloisSystem.residues

    def with_extra(self, A, M):
        res, images = residues(self, A, M)
        extra = A.element({(2,) + (0,) * (len(A.vars) - 1): A.base.one()})
        if not A.is_zero(extra):  # it is zero over the probe algebra, of order 2
            res = res + [(("extra",), extra)]
        return res, images

    monkeypatch.setattr(pv._GaloisSystem, "residues", with_extra)
    data, _ = exponential_pv()
    report = pv.galois_points(data, param_order=3).report
    assert not report.ok
    assert report.failures == ["solved family leaves a nonzero residue"]


def test_a_residue_at_the_identity_gives_the_empty_family(monkeypatch):
    # a constant residue is nonzero at M = I, so nothing is solved: the
    # family is the identity over the parameter-free algebra of data.L
    residues = pv._GaloisSystem.residues

    def with_constant(self, A, M):
        res, images = residues(self, A, M)
        return res + [(("extra",), A.one())], images

    monkeypatch.setattr(pv._GaloisSystem, "residues", with_constant)
    data, _ = additive_pv()
    fam = pv.galois_points(data, param_order=3)
    assert not fam.report.ok
    assert fam.report.failures == ["identity is not a point"]
    assert fam.params == [] and fam.images == {}
    assert fam.algebra is NilAlgebra(data.L, (), 3)
    assert fam.M == Matrix.identity(fam.algebra, data.X.nrows)


def test_a_trivial_action_doubles_to_a_trivial_action():
    # an action that declares no images doubles to one that declares none
    L = FracField(QQ, ["y"])
    R = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    data = pv.PVData(L, ActionSpec(L, "trivial", n=1), R, Matrix(R, [[R.var("y")]]),
                     {"y": ("X", 0, 0), "yi": ("Xinv", 0, 0)})
    pair = hopf._TensorPower(R, 2)
    doubled = hopf._doubled_action(data, pair, 3)
    assert doubled.kind == "trivial" and not doubled.theta_images
    y1 = pair.place(R.var("y"), (1,))
    assert doubled.theta_series(y1, 3) == TruncSeries.const(pair.ring, ("w",), 3, y1)
