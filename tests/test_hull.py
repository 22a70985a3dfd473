"""Hull construction tests: basis derivations (including algebraic
generators and characteristic p), change of basis, generator closure, and
relation discovery for the two worked extensions."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modalg.hull
from modalg.actions import ActionSpec, MonoidDesc, check_module_algebra
from modalg.exactalg import (
    GF,
    QQ,
    AlgebraicField,
    Echelon,
    Frac,
    FracField,
    PolyRing,
    evaluate,
    restriction_kernel,
)
from modalg.hull import (
    ExtensionDesc,
    _graded_monomials,
    _hom_coordinates,
    _monomial_span,
    _relation_to_diffpoly,
    change_basis,
    cleared,
    distinct_products,
    find_relations,
    hull_generators,
    make_basis_derivation,
    variable_basis_derivation,
)
from modalg.lieritt import NilAlgebra, multi_indices
from modalg.series import TruncSeries, identity_tuple, truncated_exp


def additive_ext(field=QQ):
    """L = field(y) with the translation action theta(y) = y + t."""
    L = FracField(field, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    return ExtensionDesc(L, [y], action, name="additive")


def exponential_ext():
    """L = QQ(y) with theta(y) = y exp(t)."""
    L = FracField(QQ, ["y"])
    y = L.var("y")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    img = TruncSeries.const(L, ("w",), 8, y) * truncated_exp(w)
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    return ExtensionDesc(L, [y], action, name="exponential")


def q_difference_ext():
    """L = QQ(y) with the endomorphism sigma(y) = 2y: values on monoid words."""
    L = FracField(QQ, ["y"])
    y = L.var("y")
    action = ActionSpec(L, "end", monoid=MonoidDesc("endo"), endo_maps=[{"y": y * L.from_int(2)}])
    return ExtensionDesc(L, [y], action, name="q-difference")


def product_ext():
    """L = QQ(y, z) with theta(y) = y + w and theta(z) = z exp(w), basis (y, z):
    the extension of G_a x G_m, with two w variables."""
    L = FracField(QQ, ["y", "z"])
    y, z = L.var("y"), L.var("z")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    action = ActionSpec(L, "iterder", n=1, theta_images={
        "y": TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()}),
        "z": TruncSeries.const(L, ("w",), 8, z) * truncated_exp(w)})
    return ExtensionDesc(L, [y, z], action, name="product")


def gaussian_ext():
    """y' = 2xy over K = QQ(x): theta(x) = x + w, theta(y) = y exp(2xw + w^2)."""
    L = FracField(QQ, ["x", "y"])
    x, y = L.var("x"), L.var("y")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    exponent = (TruncSeries.const(L, ("w",), 8, x + x) + w) * w
    action = ActionSpec(L, "iterder", n=1, theta_images={
        "x": TruncSeries(L, ("w",), 8, {(0,): x, (1,): L.one()}),
        "y": TruncSeries.const(L, ("w",), 8, y) * truncated_exp(exponent)})
    return ExtensionDesc(L, [y], action, K_gens=[x], K_vars=("x",), name="gaussian")


def erf_ext():
    """The error function over K = QQ(x): y' = 2xy and z' = y, basis (y, z).
    theta(x) = x + w, theta(y) = y*E and theta(z) = z + y*int_0^w E for
    E = exp(2xw + w^2), the integral taken termwise.  Theory: 2 parameters,
    (y, z) -> ((1 + b)*y, z + a*y), the group G_a x| G_m."""
    L = FracField(QQ, ["x", "y", "z"])
    x, y, z = L.var("x"), L.var("y"), L.var("z")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    exp = truncated_exp((TruncSeries.const(L, ("w",), 8, x + x) + w) * w)
    integral = TruncSeries(L, ("w",), 8, {(k + 1,): c * L.const(Fraction(1, k + 1))
                                          for (k,), c in exp.terms.items() if k < 8})
    action = ActionSpec(L, "iterder", n=1, theta_images={
        "x": TruncSeries(L, ("w",), 8, {(0,): x, (1,): L.one()}),
        "y": TruncSeries.const(L, ("w",), 8, y) * exp,
        "z": TruncSeries.const(L, ("w",), 8, z) + TruncSeries.const(L, ("w",), 8, y) * integral})
    return ExtensionDesc(L, [y, z], action, K_gens=[x], K_vars=("x",), name="erf")


def riccati_ext():
    """y' = 1 + y^2 on QQ(y): theta(y) = (y + tan w)/(1 - y tan w), with tan w
    the quotient of the sine and cosine series.  The second divided
    derivative of rho(y) is rho(y) + rho(y)^3, outside the degree-2 span."""
    L = FracField(QQ, ["y"])
    y = L.var("y")

    def trig(start):  # sin (start 1) or cos (start 0), cut at w^8
        return TruncSeries(L, ("w",), 8, {(k,): L.const(Fraction((-1) ** (k // 2),
                                                                  math.factorial(k)))
                                          for k in range(start, 9, 2)})

    tan = trig(1).divide(trig(0))
    Y = TruncSeries.const(L, ("w",), 8, y)
    img = (Y + tan).divide(TruncSeries.one(L, ("w",), 8) - Y * tan)
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    return ExtensionDesc(L, [y], action, name="riccati")


# ------------------------------------------------------- basis derivation


def test_basis_derivation_translation():
    ext = additive_ext()
    theta = make_basis_derivation(ext, 4)
    y = ext.L.var("y")
    s = theta.theta_series(y, 4)
    assert s == TruncSeries(ext.L, ("w",), 4, {(0,): y, (1,): ext.L.one()})


def test_basis_derivation_on_reciprocal():
    ext = additive_ext()
    theta = make_basis_derivation(ext, 2)
    L = ext.L
    y = L.var("y")
    s = theta.theta_series(L.one() / y, 2)
    assert s.coeff((0,)) == L.one() / y
    assert s.coeff((1,)) == -(y ** -2)
    assert s.coeff((2,)) == y ** -3
    # reciprocal oracle: the series times theta(y) is 1
    assert s * theta.theta_series(y, 2) == TruncSeries.one(L, ("w",), 2)


def test_basis_derivation_char2_square():
    ext = additive_ext(GF(2))
    theta = make_basis_derivation(ext, 3)
    L = ext.L
    y = L.var("y")
    s = theta.theta_series(y * y, 3)
    assert s == TruncSeries(L, ("w",), 3, {(0,): y * y, (2,): L.one()})


def test_basis_derivation_is_iterative():
    ext = exponential_ext()
    theta = make_basis_derivation(ext, 6)
    assert check_module_algebra(theta, ext.L, depth=5).ok


def test_basis_derivation_two_variables():
    L = FracField(QQ, ["x1", "x2"])
    theta = variable_basis_derivation(L, 3)
    s = theta.theta_series(L.var("x1") * L.var("x2"), 3)
    assert s.coeff((1, 1)) == L.one()
    assert s.coeff((1, 0)) == L.var("x2")


def test_basis_derivation_algebraic_generator():
    # z^2 = u: theta(z) solves theta(z)^2 = u + w
    base = FracField(QQ, ["u"])
    u = base.var("u")
    L = AlgebraicField(base, "z", [-u, base.zero(), base.one()])
    theta = variable_basis_derivation(L, 4)
    gz = theta.theta_series(L.var("z"), 4)
    lhs = gz * gz
    expected = TruncSeries(
        L, ("w",), 4, {(0,): L.var("u"), (1,): L.one()}
    )
    assert lhs == expected
    # first coefficient is 1/(2z) as in the implicit function theorem
    z = L.var("z")
    assert L.eq(gz.coeff((1,)), L.inv(L.mul(L.from_int(2), z)))


def test_inseparable_generator_rejected():
    base = FracField(GF(2), ["u"])
    u = base.var("u")
    L = AlgebraicField(base, "z", [-u, base.zero(), base.one()])  # z^2 - u over GF(2)
    with pytest.raises(ValueError):
        variable_basis_derivation(L, 3)


def test_moving_variables_of_each_field_context():
    # a FracField moves its own variables and an AlgebraicField its base's
    # (its vars also name the algebraic generator), less the variables of K;
    # any other context is rejected by both readers
    L = FracField(QQ, ["x", "y"])
    ext = ExtensionDesc(L, [L.var("y")], variable_basis_derivation(L, 2), K_vars=("x",))
    assert ext.transcendental_vars() == ("y",)
    base = FracField(QQ, ["u"])
    u = base.var("u")
    A = AlgebraicField(base, "z", [-u, base.zero(), base.one()])
    ext = ExtensionDesc(A, [A.var("u")], variable_basis_derivation(A, 2))
    assert ext.transcendental_vars() == ("u",)
    R = PolyRing(QQ, ["y"])
    y = R.var("y")
    action = ActionSpec(R, "iterder", n=1,
                        theta_images={"y": TruncSeries(R, ("w",), 2, {(0,): y, (1,): R.one()})})
    with pytest.raises(ValueError, match="unsupported field context"):
        ExtensionDesc(R, [y], action).transcendental_vars()
    with pytest.raises(ValueError, match="unsupported field context"):
        variable_basis_derivation(R, 2)


# ---------------------------------------------------------- change of basis


def test_change_basis_scaling():
    ext = additive_ext()
    L = ext.L
    y = L.var("y")
    subst, rep = change_basis(ext, [y + y], 5)
    assert rep.ok
    half = L.const(Fraction(1, 2))
    assert subst[0] == TruncSeries(L, ("w",), 5, {(1,): half})


def test_change_basis_identity():
    ext = additive_ext()
    y = ext.L.var("y")
    subst, rep = change_basis(ext, [y], 5)
    assert rep.ok
    assert subst[0] == TruncSeries.variable(ext.L, ("w",), 5, "w")


def test_change_basis_quadratic():
    ext = additive_ext()
    L = ext.L
    y = L.var("y")
    v = y + y * y
    subst, rep = change_basis(ext, [v], 5)
    assert rep.ok
    # the rebased derivation sends v to v + w
    new_ext = ExtensionDesc(L, [v], ext.action)
    theta_v = make_basis_derivation(new_ext, 5)
    s = theta_v.theta_series(v, 5)
    assert s == TruncSeries(L, ("w",), 5, {(0,): v, (1,): L.one()})


def test_change_basis_rejects_non_separating():
    ext = additive_ext()
    L = ext.L
    y = L.var("y")
    _, rep = change_basis(ext, [y * y - y * y], 4)  # zero element
    assert not rep.ok


# ------------------------------------------------------------ hull closure


def test_hull_generators_additive():
    ext = additive_ext()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    assert hull.closure.ok
    assert hull.closure.bounds["extra_gens"] == []
    # rho(y) is realized as y + t + w
    label, _, joint = hull.rho_gens[0]
    assert label == "rho(y)"
    coords = joint.coordinates()
    assert coords[(0, (0,), (0,))] == ext.L.var("y")
    assert coords[(0, (1,), (0,))] == ext.L.one()
    assert coords[(0, (0,), (1,))] == ext.L.one()
    # first derivative of rho(y) is the unit
    v = hull.derivative_table[(0, (1,))]
    assert v.data[0] == TruncSeries.const(ext.L, ("t",), 3, ext.L.one())


def test_hull_generators_exponential():
    ext = exponential_ext()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    assert hull.closure.ok
    assert hull.closure.bounds["extra_gens"] == []
    # theta^(1) of rho(y) equals rho(y)/y, already in the span
    v1 = hull.derivative_table[(0, (1,))]
    v0 = hull.derivative_table[(0, (0,))]
    y = ext.L.var("y")
    assert v1 == v0.scale(ext.L.one() / y)


def test_hull_generators_trivial_action():
    L = FracField(QQ, ["y"])
    triv = ActionSpec(L, "trivial", n=1)
    ext = ExtensionDesc(L, [L.var("y")], triv)
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    assert hull.closure.ok
    # the expanded copy coincides with the trivially embedded copy
    _, _, joint = hull.rho_gens[0]
    assert joint == hull.algebra.expand_rho0(L.var("y"))


def rebuilt_closure(hull, span_degree):
    """hull_generators' closure search with the span rebuilt from every
    accepted generator by _monomial_span after each acceptance: the
    accepted (i, k) in order, and the order of the last."""
    L = hull.ext.L
    n = hull.algebra.theta_u.n
    table = hull.derivative_table
    accepted = [j.w_slice((0,) * n) for _, j in hull.rho0_gens]
    accepted += [table[(i, (0,) * n)] for i in range(hull.n_gens())]
    span = _monomial_span(accepted, L, span_degree)
    new_gens, stabilized_at = [], 0
    for order in range(1, hull.algebra.w_horizon + 1):
        for i in range(hull.n_gens()):
            for k in multi_indices(n, order, order):
                if not span.contains(_hom_coordinates(table[(i, k)])):
                    accepted.append(table[(i, k)])
                    span = _monomial_span(accepted, L, span_degree)
                    new_gens.append((i, k))
                    stabilized_at = order
    return new_gens, stabilized_at


@pytest.mark.parametrize("make, th, wh", [(product_ext, 6, 2), (gaussian_ext, 4, 2),
                                          (gaussian_ext, 6, 3), (riccati_ext, 4, 4)],
                         ids=["product-6-2", "gaussian-4-2", "gaussian-6-3", "riccati-4-4"])
@pytest.mark.parametrize("span_degree", [0, 1, 2, 3])
def test_closure_extends_the_span_as_a_rebuild_would(make, th, wh, span_degree):
    # the span takes each accepted generator's new monomials; the table,
    # the accepted generators and the report are those of rebuilding it
    hull = hull_generators(make(), t_horizon=th, w_horizon=wh, span_degree=span_degree)
    n = hull.algebra.theta_u.n
    assert hull.derivative_table == {(i, k): joint.w_slice(k)
                                     for i, (_, _, joint) in enumerate(hull.rho_gens)
                                     for k in multi_indices(n, wh)}
    new_gens, stabilized_at = rebuilt_closure(hull, span_degree)
    assert hull.closure.as_dict() == {
        "ok": stabilized_at < wh, "checked": len(hull.derivative_table),
        "failures": [] if stabilized_at < wh else [
            f"derivative closure still growing at order {wh}; "
            f"raise the horizon to certify stabilization"],
        "bounds": {"t_horizon": th, "w_horizon": wh, "stabilized_at": stabilized_at,
                   "extra_gens": [str(key) for key in new_gens]}}


def test_riccati_closure_accepts_the_cubic_derivative():
    # (1/2) d^2/dw^2 tan = tan + tan^3 is outside the degree-2 span, and the
    # third divided derivative (1 + 4 tan^2 + 3 tan^4)/3 is inside the span
    # that includes it
    hull = hull_generators(riccati_ext(), t_horizon=4, w_horizon=4)
    assert hull.closure.ok
    assert hull.closure.bounds["extra_gens"] == ["(0, (2,))"]


def test_linear_disjointness_witness():
    # products of expansion monomials against trivially embedded monomials
    # have full column rank over the constants
    ext = additive_ext()
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    L = ext.L
    y = L.var("y")
    alg = hull.algebra
    rho_y = alg.expand_rho(y)
    rho0_y = alg.expand_rho0(y)
    one = alg.one()
    cols = []
    for a in (one, rho_y, rho_y * rho_y):
        for b in (one, rho0_y, rho0_y * rho0_y):
            prod = a * b
            coords = prod.coordinates()
            cols.append(coords)
    keys = sorted({k for c in cols for k in c}, key=str)
    vecs = [[c.get(k, L.zero()) for k in keys] for c in cols]
    ker = restriction_kernel(vecs, L, QQ)
    assert ker == []


# -------------------------------------------------------------- relations


def relation_strings(rels):
    return sorted(str(r) for r in rels)


def test_find_relations_additive():
    ext = additive_ext()
    hull = hull_generators(ext, t_horizon=4, w_horizon=4)
    rels = find_relations(hull, diff_order=4, degree=2)
    got = relation_strings(rels)
    # theta^(1) Z = 1 and theta^(k) Z = 0 for k = 2..4
    assert "Y^(1) - 1" in got
    assert "Y^(2)" in got and "Y^(3)" in got and "Y^(4)" in got
    assert len(got) == 4


def test_find_relations_exponential():
    ext = exponential_ext()
    hull = hull_generators(ext, t_horizon=4, w_horizon=4)
    rels = find_relations(hull, diff_order=4, degree=2)
    got = relation_strings(rels)
    assert any(("Y^(1)" in s and "Y" in s and "y" in s) for s in got)
    # the defining relation Z = y theta^(1) Z, echelonized
    y = ext.L.var("y")
    v0 = hull.derivative_table[(0, (0,))]
    v1 = hull.derivative_table[(0, (1,))]
    for r in rels:
        # every relation vanishes on the generators (re-checked here for the
        # first-order ones via the derivative table)
        syms = r.symbols()
        if syms <= {(0, (0,)), (0, (1,))}:
            acc = None
            for key, coeff in r.terms.items():
                c = coeff.coeff((0,) * len(coeff.vars))
                term = None
                for (i, k), e in key:
                    v = hull.derivative_table[(i, k)]
                    for _ in range(e):
                        term = v if term is None else term * v
                if term is None:
                    term = v0.scale(ext.L.zero())  # constant term handled below
                    base = hull.algebra.expand_plain(ext.L.one())
                    term = base
                term = term.scale(c)
                acc = term if acc is None else acc + term
            assert all(s.is_zero() for s in acc.data.values())


# find_relations at (t_horizon, w_horizon, diff_order, degree) = (4, 4, 4, 2)
# and (3, 3, 2, 3), in order, as computed by the dense-rref implementation
# that re-reduced the consequence span for every kernel vector
SEED_RELATIONS = {
    "additive": (["Y^(1) - 1", "Y^(2)", "Y^(3)", "Y^(4)"], ["Y^(1) - 1", "Y^(2)"]),
    "exponential": (["Y^(1) - 1/y*Y", "Y^(2)", "Y^(3)", "Y^(4)"], ["Y^(1) - 1/y*Y", "Y^(2)"]),
}


@pytest.mark.parametrize("make", [additive_ext, exponential_ext], ids=["additive", "exponential"])
def test_find_relations_matches_seed_order(make):
    ext = make()
    deep, wide = SEED_RELATIONS[ext.name]
    hull = hull_generators(ext, t_horizon=4, w_horizon=4)
    assert [str(r) for r in find_relations(hull, diff_order=4, degree=2)] == deep
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    assert [str(r) for r in find_relations(hull, diff_order=2, degree=3)] == wide


def test_find_relations_self_check_raises(monkeypatch):
    # a "kernel" vector that is not in the kernel: the monomial 1 alone,
    # reported as a dependent column of the monomial elimination
    import modalg.hull

    class NotAKernel(modalg.hull.Echelon):
        def __init__(self, field, vectors=()):
            super().__init__(field, vectors)
            if self.size:  # the monomial columns, not the consequence span
                self.dependent = {0: {}, **self.dependent}

    monkeypatch.setattr(modalg.hull, "Echelon", NotAKernel)
    hull = hull_generators(additive_ext(), t_horizon=3, w_horizon=3)
    with pytest.raises(ArithmeticError, match="does not vanish"):
        find_relations(hull, diff_order=1, degree=1)


def test_find_relations_self_check_raises_on_cleared_relations(monkeypatch):
    # erf's relations carry the denominator x^4 - 3*x^2 + 3/4: doubling every
    # such coefficient of the kernel vectors leaves relations that clear to
    # polynomial coefficients and still do not vanish
    def multi_term(c):
        return len(c.den.terms) > 1

    class Doubled(modalg.hull.Echelon):
        def __init__(self, field, vectors=()):
            super().__init__(field, vectors)
            if self.size:  # the monomial columns, not the consequence span
                self.dependent = {j: {i: c + c if multi_term(c) else c for i, c in vec.items()}
                                  for j, vec in self.dependent.items()}

    seen = []

    def recorded(terms):
        terms = list(terms)
        seen.extend(str(c.den) for _, c in terms if multi_term(c))
        return cleared(terms)

    hull = hull_generators(erf_ext(), t_horizon=6, w_horizon=2)
    monkeypatch.setattr(modalg.hull, "Echelon", Doubled)
    monkeypatch.setattr(modalg.hull, "cleared", recorded)
    with pytest.raises(ArithmeticError, match="does not vanish"):
        find_relations(hull, diff_order=2, degree=2)
    assert "x^4 - 3*x^2 + 3/4" in seen


def cleared_by_products(terms, L):
    """The form cleared replaced: every coefficient times the Frac product of
    the nonconstant denominators."""
    multiplier = None
    for _, c in terms:
        if isinstance(c, Frac) and not c.den.is_const():
            den = L.from_poly(c.den)
            multiplier = den if multiplier is None else multiplier * den
    if multiplier is None:
        return terms
    return [(key, c * multiplier) for key, c in terms]


@st.composite
def relation_terms(draw):
    """(L, terms): one to five (key, coefficient) pairs over QQ(x, y) or
    GF(7)(y).  Each coefficient is a numerator of total degree <= 2 over a
    denominator drawn, with repetition, from constant, one-term and
    multi-term ones; a numerator sometimes shares a factor with it."""
    L = draw(st.sampled_from([FracField(QQ, ["x", "y"]), FracField(GF(7), ["y"])]))
    R = L.poly_ring
    g = R.gens()
    c = R.from_int
    dens = [R.one(), c(3), g[-1], c(2) * g[0] ** 3, g[-1] + c(1), g[0] ** 2 - c(3) * g[-1] + c(2),
            g[-1] ** 2 + g[0] * g[-1] - c(5)]
    exps = [e for e in itertools.product(range(3), repeat=R.nvars()) if sum(e) <= 2]

    def coefficient():
        num = R.poly({e: R.field.from_int(draw(st.integers(-2, 2))) for e in exps})
        den = draw(st.sampled_from(dens))
        if num.is_zero():
            num = R.one()
        if draw(st.booleans()):
            num = num * draw(st.sampled_from(dens))
        return Frac(L, num, den)

    return L, [(k, coefficient()) for k in range(draw(st.integers(1, 5)))]


@settings(max_examples=120, deadline=None)
@given(relation_terms())
def test_cleared_equals_the_frac_product_form(data):
    L, terms = data
    got, want = cleared(terms), cleared_by_products(terms, L)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert a == b and str(a) == str(b)
        assert a.den.is_const()


def test_find_relations_search_space_error_names_the_bound():
    hull = hull_generators(additive_ext(), t_horizon=3, w_horizon=3)
    with pytest.raises(ValueError, match="max_monomials=10"):
        find_relations(hull, diff_order=3, degree=2, max_monomials=10)


def test_find_relations_trivial_action():
    L = FracField(QQ, ["y"])
    triv = ActionSpec(L, "trivial", n=1)
    ext = ExtensionDesc(L, [L.var("y")], triv)
    hull = hull_generators(ext, t_horizon=3, w_horizon=3)
    rels = find_relations(hull, diff_order=2, degree=1)
    got = relation_strings(rels)
    # Z - rho0(y) = 0 plus its divided derivatives (theta moves the embedded
    # copy here, so theta^(1) Z = 1)
    assert "Y - y" in got
    assert "Y^(1) - 1" in got and "Y^(2)" in got


def test_hull_basis_independence_additive():
    # generators computed with basis y and basis 2y span each other
    ext_u = additive_ext()
    L = ext_u.L
    y = L.var("y")
    ext_v = ExtensionDesc(L, [y + y], ext_u.action)
    hull_u = hull_generators(ext_u, t_horizon=3, w_horizon=3)
    hull_v = hull_generators(ext_v, t_horizon=3, w_horizon=3)

    gens_u = [hull_u.derivative_table[(0, k)] for k in [(0,), (1,)]]
    gens_v = [hull_v.derivative_table[(0, k)] for k in [(0,), (1,)]]
    span_u = _monomial_span(gens_u, L, 2)
    span_v = _monomial_span(gens_v, L, 2)
    for v in gens_v:
        assert span_u.contains(_hom_coordinates(v))
    for u in gens_u:
        assert span_v.contains(_hom_coordinates(u))


def test_distinct_products_match_word_enumeration():
    # reference: every word of length <= degree, in order of length and then
    # lexicographically, deduplicated by value at its first occurrence
    R = PolyRing(QQ, ["y", "yi", "z"], inverse_pairs=[(0, 1)])
    y, yi, z = R.gens()
    gens = [z, y, yi, y * y, R.one()]
    for degree in range(4):
        words, layer = [R.one()], [R.one()]
        for _ in range(degree):
            layer = [p * g for p in layer for g in gens]
            words += layer
        want, seen = [], set()
        for m in words:
            if str(m) not in seen:
                seen.add(str(m))
                want.append(str(m))
        got = [str(m) for m in distinct_products(gens, R.one(), degree, str)]
        assert got == want
    assert distinct_products(gens, R.one(), 1, str)[:3] == [R.one(), z, y]


# ------------------------------------------------- early exits on the chain


def reference_images(hull, comps):
    """The twisted-expansion formula summed over every |k| <= w_horizon,
    with each derivative_table entry deformed over L and then lifted."""
    alg = hull.algebra
    P = comps[0].ring
    alg_P = alg.with_ring(P)
    wh = alg.w_horizon
    deviation = [alg_P.from_w_series(c - w)
                 for c, w in zip(comps, identity_tuple(P, comps[0].vars, wh))]

    def lifted(v):
        return alg_P.element({word: s.map_coeffs(P.scalar, P)
                              for word, s in alg._deform_hom(v).data.items()})

    ks = multi_indices(alg.theta_u.n, wh)
    return [evaluate(((k, lifted(hull.derivative_table[(i, k)])) for k in ks),
                     deviation, alg_P, lambda v: v)
            for i in range(hull.n_gens())]


@pytest.mark.parametrize("make", [additive_ext, exponential_ext, lambda: additive_ext(GF(7)),
                                  q_difference_ext],
                         ids=["additive", "exponential", "additive-GF7", "q-difference"])
@pytest.mark.parametrize("order", [2, 3])
def test_images_cut_at_the_nilpotency_order_matches_the_full_sum(make, order):
    ext = make()
    L = ext.L
    wh = 4  # above the order: the terms with order <= |k| <= wh vanish
    hull = hull_generators(ext, t_horizon=2, w_horizon=wh)
    P = NilAlgebra(L, ("a", "b"), order)
    a, b = P.gen("a"), P.gen("b")
    comps = [TruncSeries(P, hull.algebra.wvars, wh,
                         {(0,): a, (1,): P.add(P.one(), b), (2,): P.mul(a, b), (4,): a})]
    want = reference_images(hull, comps)
    assert hull.images(comps) == want
    # a second call reuses the lifted entries and agrees
    assert hull.images(comps) == want
    # only the entries with |k| < order are asked for
    asked = []
    zero = hull.algebra.with_ring(P).zero()
    hull.images(comps, lambda i, k: asked.append(k) or zero)
    assert asked == multi_indices(1, order - 1) * hull.n_gens()


def test_images_reject_a_deviation_with_a_unit_coefficient():
    hull = hull_generators(additive_ext(), t_horizon=2, w_horizon=3)
    P = NilAlgebra(hull.ext.L, ("a",), 2)
    for terms in ({(0,): P.one(), (1,): P.one()}, {(1,): P.from_int(2)}):
        with pytest.raises(ValueError, match="modulo nilpotents"):
            hull.images([TruncSeries(P, hull.algebra.wvars, 3, terms)])


def exhaustive_relations(hull, diff_order: int, degree: int):
    """find_relations' search with every consequence and every kernel vector
    added to the span.  Returns the relations as strings, the degree of each
    monomial column, the kernel rank on the columns of degree <= d for each
    d, and the number of vectors the span received."""
    L = hull.ext.L
    n = hull.algebra.theta_u.n
    symbols = [(i, k) for i in range(hull.n_gens()) for k in multi_indices(n, diff_order)]
    levels = [[()]]
    for _ in range(degree):
        levels.append([m + (s,) for m in levels[-1]
                       for s in symbols[symbols.index(m[-1]) if m else 0:]])
    monos = [m for level in levels for m in level]
    column = {m: j for j, m in enumerate(monos)}
    position = {s: j for j, s in enumerate(symbols)}.__getitem__

    def value(mono):
        v = None
        for sym in mono:
            v = hull.derivative_table[sym] if v is None else v * hull.derivative_table[sym]
        return hull.derivative_table[symbols[0]].one() if v is None else v

    monomials = Echelon(L, (_hom_coordinates(value(m)) for m in monos))
    relations, span = [], Echelon(L)
    for d in range(degree + 1):
        for rel in relations:
            for shift in levels[d - max(len(m) for m in rel)]:
                keys = [tuple(sorted(m + shift, key=position)) for m in rel]
                if all(k in column for k in keys):
                    span.add({column[k]: c for k, c in zip(keys, rel.values())})
        for j in monomials.dependent:
            if len(monos[j]) == d and span.add(vec := monomials.relation(j)):
                relations.append({monos[i]: c for i, c in vec.items()})
    ranks = [sum(len(monos[j]) <= d for j in monomials.dependent) for d in range(degree + 1)]
    strings = [str(_relation_to_diffpoly(rel, hull, hull.n_gens(), n)) for rel in relations]
    return strings, [len(m) for m in monos], ranks, span.size


@pytest.fixture
def span_adds(monkeypatch):
    """Each add to find_relations' consequence span (the Echelon that starts
    empty), recorded as (rank of the span before the add, vector)."""
    adds = []

    class Recording(Echelon):
        def __init__(self, field, vectors=()):
            self.recording = vectors == ()
            super().__init__(field, vectors)

        def add(self, vec) -> bool:
            if self.recording:
                adds.append((len(self.steps), vec))
            return super().add(vec)

    monkeypatch.setattr(modalg.hull, "Echelon", Recording)
    return adds


@pytest.mark.parametrize("make, th, wh, degree, count", [
    (additive_ext, 4, 8, 2, 8),
    (exponential_ext, 4, 8, 2, 8),
    (product_ext, 2, 2, 2, 13),
    (product_ext, 3, 3, 2, 20),
    (product_ext, 6, 2, 2, 10),
    (gaussian_ext, 4, 2, 2, 5),
    (product_ext, 6, 2, 3, 13),
    (gaussian_ext, 6, 3, 3, 9),
], ids=["additive-4-8", "exponential-4-8", "product-2-2", "product-3-3", "product-6-2",
        "gaussian-4-2", "product-6-2-degree-3", "gaussian-6-3-degree-3"])
def test_find_relations_early_exit_matches_the_exhaustive_search(make, th, wh, degree, count,
                                                                 span_adds):
    # the degree-3 cases certify degree 2 and fall back to elimination at 3
    hull = hull_generators(make(), t_horizon=th, w_horizon=wh)
    want, col_degree, ranks, exhaustive_adds = exhaustive_relations(hull, wh, degree)
    got = [str(r) for r in find_relations(hull, diff_order=wh, degree=degree)]
    assert got == want and len(got) == count
    # no vector reaches the span once it has the rank of the kernel at its degree
    for rank, vec in span_adds:
        assert rank < ranks[max(col_degree[c] for c in vec)]
    assert len(span_adds) <= exhaustive_adds


@pytest.mark.parametrize("make", [additive_ext, exponential_ext], ids=["additive", "exponential"])
def test_find_relations_certifies_degree_2_without_elimination(make, span_adds):
    # the degree-1 relations and their multiples have as many distinct
    # leading columns as the kernel at degree 2 has dimensions
    hull = hull_generators(make(), t_horizon=4, w_horizon=8)
    _, col_degree, _, _ = exhaustive_relations(hull, 8, 2)
    assert len(find_relations(hull, diff_order=8, degree=2)) == 8
    assert span_adds and all(max(col_degree[c] for c in vec) <= 1 for _, vec in span_adds)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_relation_column_order_is_multiplicative(nsymbols, data):
    # a < b implies a*m < b*m, so a consequence's leading column is its
    # relation's leading column times the shift
    levels = _graded_monomials(list(range(nsymbols)), 4)
    order = {m: j for j, m in enumerate(m for level in levels for m in level)}
    low = [m for level in levels[:3] for m in level]
    a, b = sorted(data.draw(st.lists(st.sampled_from(low), min_size=2, max_size=2, unique=True)),
                  key=order.__getitem__)
    m = data.draw(st.sampled_from(low))
    assert order[tuple(sorted(a + m))] < order[tuple(sorted(b + m))]


def _is_monomial_multiple(a: dict, b: dict, L) -> bool:
    """Whether a = c*m*b for a symbol monomial m and a constant c in L, with
    a and b maps from term keys (symbol, exponent) pairs to coefficients."""
    kb0 = next(iter(b))
    for ka in a:
        m = {s: e - dict(kb0).get(s, 0) for s, e in ka}
        if any(e < 0 for e in m.values()) or set(dict(kb0)) - set(m):
            continue
        ratio = L.mul(a[ka], L.inv(b[kb0]))
        shifted = {}
        for kb, c in b.items():
            merged = dict(m)
            for s, e in kb:
                merged[s] = merged.get(s, 0) + e
            shifted[tuple(sorted((s, e) for s, e in merged.items() if e))] = L.mul(c, ratio)
        if shifted.keys() == a.keys() and all(L.eq(a[k], c) for k, c in shifted.items()):
            return True
    return False


def test_find_relations_reports_no_monomial_multiple_of_another_relation():
    # with two w variables the consequences of Y1^(0,2) and Y2^(0,2) include
    # Y1^(0,2)*Y1^(1,0) and Y2^(0,2)*Y2^(1,0); a relation list that repeats
    # them has lost track of the consequence span
    hull = hull_generators(product_ext(), t_horizon=6, w_horizon=2)
    L = hull.ext.L
    rels = [{key: s.constant_term() for key, s in r.terms.items()}
            for r in find_relations(hull, diff_order=2, degree=2)]
    assert len(rels) == 10
    for i, a in enumerate(rels):
        for j, b in enumerate(rels):
            if i != j:
                assert not _is_monomial_multiple(a, b, L), (i, j)
