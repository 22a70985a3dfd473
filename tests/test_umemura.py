"""End-to-end infinitesimal Galois group computations for the two worked
extensions: ideal construction, zero-set solving, automorphism
reconstruction, group compatibility, and formal-group identification."""

from __future__ import annotations

from fractions import Fraction

import pytest

from modalg.actions import ActionSpec
from modalg.exactalg import QQ, Frac, FracField
from modalg.hull import ExtensionDesc, HullData, find_relations, hull_generators
from modalg.lieritt import DiffPoly, InfTransform, NilAlgebra, multi_indices
from modalg.series import TruncSeries, truncated_exp
from modalg.umemura import (
    _symbol_deriv,
    _templates,
    build_ideal,
    group_compatibility_check,
    identify_formal_group,
    solve_points,
)
from test_hull import gaussian_ext
from test_pv import TRANSPORT_EXAMPLES, transport_example


def additive_setup(th=3, wh=4):
    L = FracField(QQ, ["y"])
    y = L.var("y")
    img = TruncSeries(L, ("w",), 8, {(0,): y, (1,): L.one()})
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    ext = ExtensionDesc(L, [y], action, name="additive")
    hull = hull_generators(ext, t_horizon=th, w_horizon=wh)
    rels = find_relations(hull, diff_order=wh, degree=2)
    return ext, hull, rels


def exponential_setup(th=3, wh=4):
    L = FracField(QQ, ["y"])
    y = L.var("y")
    w = TruncSeries.variable(L, ("w",), 8, "w")
    img = TruncSeries.const(L, ("w",), 8, y) * truncated_exp(w)
    action = ActionSpec(L, "iterder", n=1, theta_images={"y": img})
    ext = ExtensionDesc(L, [y], action, name="exponential")
    hull = hull_generators(ext, t_horizon=th, w_horizon=wh)
    rels = find_relations(hull, diff_order=wh, degree=2)
    return ext, hull, rels


def trivial_setup(th=3, wh=3):
    L = FracField(QQ, ["y"])
    triv = ActionSpec(L, "trivial", n=1)
    ext = ExtensionDesc(L, [L.var("y")], triv)
    hull = hull_generators(ext, t_horizon=th, w_horizon=wh)
    rels = find_relations(hull, diff_order=wh, degree=1)
    return ext, hull, rels


# ------------------------------------------------------------------ ideals


def test_additive_ideal_is_translation_ideal():
    _, hull, rels = additive_setup()
    ideal = build_ideal(hull, rels)
    gens = sorted(str(g) for g in ideal.generators)
    assert gens == ["Y^(1) - 1", "Y^(2)", "Y^(3)", "Y^(4)"]


def test_exponential_ideal_is_conjugated_multiplicative():
    _, hull, rels = exponential_setup()
    ideal = build_ideal(hull, rels)
    gens = sorted(str(g) for g in ideal.generators)
    assert "(y + w)*Y^(1) - Y - y" in gens
    for k in (2, 3, 4):
        assert f"Y^({k})" in gens
    assert len(gens) == 4


def test_template_derivatives_need_only_the_symbol_rule():
    # the template of the exponential hull at (4, 8) and its square have
    # w-free coefficients, so deriving their symbols alone, as build_ideal
    # does, is the whole Leibniz rule of DiffPoly.hasse_deriv
    _, hull, _ = exponential_setup(4, 8)
    (template,) = _templates(hull)
    assert len(template.terms) > 1
    for poly in (template, template * template):
        for k in multi_indices(1, 8):
            derived = _symbol_deriv(poly, k)
            assert derived.terms == poly.hasse_deriv(k).terms
            assert not derived.is_zero()


def test_trivial_ideal_forces_identity():
    _, hull, rels = trivial_setup()
    ideal = build_ideal(hull, rels)
    report = solve_points(hull, rels, ideal)
    assert report.family.params == []
    assert report.classification["tag"] == "trivial"


def test_interned_unit_is_unchanged_by_a_chain_run():
    # the whole chain shares L.one() and L.zero(); none of it may alter them
    ext, hull, rels = exponential_setup()
    report = solve_points(hull, rels, build_ideal(hull, rels))
    assert group_compatibility_check(hull, report)
    L = ext.L
    R = L.poly_ring
    assert L.one() == Frac(L, R.one(), R.one()) and L.zero() == Frac(L, R.zero(), R.one())
    assert L.one().num.terms == L.one().den.terms == {(0,): Fraction(1)}
    assert L.zero().num.terms == {} and L.zero().den.terms == {(0,): Fraction(1)}


# ------------------------------------------------------------------ points


def test_additive_points():
    _, hull, rels = additive_setup()
    report = solve_points(hull, rels)
    fam = report.family
    assert fam.params == ["a0"]
    A = fam.algebra
    assert fam.components[0] == TruncSeries(
        A, ("w",), 4, {(0,): A.gen("a0"), (1,): A.one()}
    )
    assert report.checks["congruent_to_identity"]
    assert report.checks["relations_preserved"]
    assert report.classification["tag"] == "Ga_hat"
    assert "a0 + a0'" == report.classification["parameter_law"].split(" = ")[1]
    # the image of the expanded generator gains exactly the parameter
    img = report.images["rho(y)"]
    base = hull.algebra.with_ring(A)._deform_hom(
        hull.derivative_table[(0, (0,))], A.scalar
    )
    delta = img - base
    coords = delta.coordinates()
    assert set(coords) == {(0, (0,), (0,))}
    assert A.eq(coords[(0, (0,), (0,))], A.gen("a0"))


def test_exponential_points():
    _, hull, rels = exponential_setup()
    report = solve_points(hull, rels)
    fam = report.family
    assert fam.params == ["a0"]
    A = fam.algebra
    y = hull.ext.L.var("y")
    assert fam.components[0] == TruncSeries(
        A, ("w",), 4,
        {(0,): A.mul(A.scalar(y), A.gen("a0")), (1,): A.add(A.one(), A.gen("a0"))},
    )
    assert report.checks["congruent_to_identity"]
    assert report.checks["relations_preserved"]
    assert report.classification["tag"] == "Gm_hat_conjugate"
    law = report.classification["parameter_law"]
    assert law.split(" = ")[1] == "a0 + a0' + a0*a0'"
    # sigma-style action: the image of rho(y) is rho(y) times (1 + a0)
    img = report.images["rho(y)"]
    base = hull.algebra.with_ring(A)._deform_hom(
        hull.derivative_table[(0, (0,))], A.scalar
    )
    scaled = base.scale(A.add(A.one(), A.gen("a0")))
    assert img == scaled


def test_points_of_a_wrong_ideal_do_not_preserve_the_relations():
    # the translations w -> w + a0 solve the additive ideal but move the
    # exponential relation Y^(1) - 1/y*Y; the relations are checked cleared
    # of denominators, which must not hide that
    _, add_hull, add_rels = additive_setup(4, 8)
    _, hull, rels = exponential_setup(4, 8)
    report = solve_points(hull, rels, build_ideal(add_hull, add_rels))
    assert report.classification["tag"] == "Ga_hat"
    assert report.checks["solved"]
    assert report.checks["relations_preserved"] is False


def test_solve_points_rejects_a_relation_that_does_not_vanish():
    # the Gaussian relations at (4, 2) have coefficients over the multi-term
    # denominator x^6 + 3/2*x^4 + 9/4*x^2 - 9/8; doubling one of them leaves
    # a relation that still clears to polynomial coefficients but does not
    # vanish on the generators
    hull = hull_generators(gaussian_ext(), t_horizon=4, w_horizon=2)
    rels = find_relations(hull, diff_order=2, degree=2)
    solve_points(hull, rels)
    i, key = next((i, key) for i, r in enumerate(rels) for key, c in r.terms.items()
                  if len(c.coeff((0,)).den.terms) > 1)
    r = rels[i]
    doubled = DiffPoly(r.nstreams, r.coeff_ring, r.wvars, r.horizon,
                       {**r.terms, key: r.terms[key] + r.terms[key]})
    with pytest.raises(ValueError, match="does not vanish"):
        solve_points(hull, rels[:i] + [doubled] + rels[i + 1:])


def test_parameter_law_names_the_composite():
    # the left side is the parameter of the composite, not a product:
    # translations add (G_a), and (1 + a)(1 + a') = 1 + (a + a' + a*a') (G_m)
    for setup, want in ((additive_setup, "law(a0, a0') = a0 + a0'"),
                        (exponential_setup, "law(a0, a0') = a0 + a0' + a0*a0'")):
        _, hull, rels = setup(3, 4)
        assert solve_points(hull, rels).classification["parameter_law"] == want


def test_group_compatibility_both_examples():
    for setup in (additive_setup, exponential_setup):
        _, hull, rels = setup(th=2, wh=3)
        report = solve_points(hull, rels)
        assert group_compatibility_check(hull, report)


def test_chain_composes_the_symbolic_pair_once(monkeypatch):
    # the parameter law and the group compatibility check read the family's
    # one symbolic pair
    calls = []
    compose = InfTransform.compose

    def counting(self, other):
        calls.append(self.algebra)
        return compose(self, other)

    monkeypatch.setattr(InfTransform, "compose", counting)
    for setup in (additive_setup, exponential_setup):
        calls.clear()
        _, hull, rels = setup(th=2, wh=3)
        report = solve_points(hull, rels)
        assert group_compatibility_check(hull, report)
        assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(TRANSPORT_EXAMPLES))
def test_transported_images_equal_the_reconstruction(name):
    # the symbolic points f and g are the family pushed along a_i -> s_i and
    # a_i -> t_i, and the reconstruction commutes with those maps: the
    # report's images pushed along them are the images of f and g
    _, hull, rels, _ = transport_example(name)
    report = solve_points(hull, rels)
    fam = report.family
    f, g, _ = fam.symbolic_pair
    P2 = f.algebra
    k = len(fam.params)
    alg2 = hull.algebra.with_ring(P2)
    for offset, point in ((0, f), (k, g)):
        names = P2.vars[offset:offset + k]
        assert point == fam.instantiate(P2, {a: P2.gen(s) for a, s in zip(fam.params, names)})
        to = fam.algebra.transport(P2, offset)
        assert [img.map_coeffs(to, alg2) for img in report.images.values()] == \
            hull.images(point.comps)


def test_group_compatibility_reconstructs_twice(monkeypatch):
    # the images under g and under f . g; those of f are the report's,
    # transported
    calls = []
    images = HullData.images

    def counting(self, comps, entry=None):
        calls.append(comps[0].ring)
        return images(self, comps, entry)

    monkeypatch.setattr(HullData, "images", counting)
    for setup in (additive_setup, exponential_setup):
        _, hull, rels = setup(th=2, wh=3)
        report = solve_points(hull, rels)
        calls.clear()
        assert group_compatibility_check(hull, report)
        assert len(calls) == 2


def test_functoriality_in_the_test_algebra():
    # instantiating the symbolic family commutes with algebra maps: mapping
    # the generator of L[e]/(e^3) to e^2 equals instantiating at e^2 directly
    _, hull, rels = additive_setup(th=2, wh=3)
    report = solve_points(hull, rels)
    fam = report.family
    L = hull.ext.L
    A = NilAlgebra(L, ("e",), 3)
    e = A.gen("e")
    e2 = A.mul(e, e)
    phi_e = fam.instantiate(A, {"a0": e})
    phi_e2 = fam.instantiate(A, {"a0": e2})

    def push(elem):  # the algebra map e -> e^2 on coefficients
        out = A.zero()
        for mono, c in elem.items():
            t = A.scalar(c)
            for _ in range(mono[0]):
                t = A.mul(t, e2)
            out = A.add(out, t)
        return out

    mapped = [c.map_coeffs(push, A) for c in phi_e.comps]
    assert all(a == b for a, b in zip(mapped, phi_e2.comps))


def test_identify_formal_group_templates():
    # direct template checks on hand-built families
    L = FracField(QQ, ["y"])
    from modalg.lieritt import SolutionFamily

    A = NilAlgebra(L, ("a0",), 3)
    w = TruncSeries.variable(A, ("w",), 3, "w")
    add_fam = SolutionFamily(
        A, ("w",), 3, ["a0"], [TruncSeries.const(A, ("w",), 3, A.gen("a0")) + w]
    )
    assert identify_formal_group(add_fam)["tag"] == "Ga_hat"
    mult_fam = SolutionFamily(
        A, ("w",), 3, ["a0"], [w + w.scale(A.gen("a0"))]
    )
    assert identify_formal_group(mult_fam)["tag"] == "Gm_hat"
    ident_fam = SolutionFamily(A, ("w",), 3, [], [w])
    assert identify_formal_group(ident_fam)["tag"] == "trivial"
