"""GeneratorPowers.substitute, the one substitution loop, through its two
entry points exactalg.evaluate (generators by position) and PolyRing.hom
(generators by name): checked against a loop that multiplies one image at a
time, and against the ring-map laws, over QQ and GF(7) into polynomial,
nilpotent-algebra and truncated-series targets.  On a Laurent source, hom
sends an inverse-pair partner with no image to the inverse of its
partner's image."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalg.exactalg import GF, QQ, GeneratorPowers, PolyRing, evaluate
from modalg.lieritt import NilAlgebra
from modalg.series import SeriesRing, TruncSeries


def naive_evaluate(terms, images, target, lift):
    """Reference: every power built one multiplication at a time."""
    out = target.zero()
    for exp, c in terms:
        t = lift(c)
        for img, e in zip(images, exp):
            for _ in range(e):
                t = target.mul(t, img)
        out = target.add(out, t)
    return out


FIELDS = {"QQ": QQ, "GF7": GF(7)}


def scalars(field):
    if field.char == 0:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, 6)


def term_dicts(field, nvars, max_exp, max_terms):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, scalars(field), max_size=max_terms)


@st.composite
def targets(draw, field):
    """(target context, lift, two images) for one of the three target kinds."""
    kind = draw(st.sampled_from(["poly", "nil", "series"]))
    if kind == "poly":
        T = PolyRing(field, ["u", "v"])
        images = [T.poly(draw(term_dicts(field, 2, 2, 3))) for _ in range(2)]
        return T, T.const, images
    if kind == "nil":
        T = NilAlgebra(field, ("e1", "e2"), 3)
        images = [T.element(draw(term_dicts(field, 2, 2, 4))) for _ in range(2)]
        return T, T.scalar, images
    T = SeriesRing(field, ("w",), 4)
    images = [TruncSeries(field, ("w",), 4, draw(term_dicts(field, 1, 4, 4)))
              for _ in range(2)]
    return T, T.const, images


@st.composite
def cases(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    target, lift, images = draw(targets(field))
    source = PolyRing(field, ["x", "y"])
    p, q = (source.poly(draw(term_dicts(field, 2, 4, 5))) for _ in range(2))
    return target, lift, images, p, q


@settings(max_examples=120, deadline=None)
@given(cases())
def test_evaluate_matches_naive_loop(case):
    # evaluate by position and hom by name run the same loop
    target, lift, images, p, _ = case
    terms = p.sorted_terms()
    want = naive_evaluate(terms, images, target, lift)
    assert evaluate(terms, images, target, lift) == want
    named = GeneratorPowers(target, dict(zip(p.ring.vars, images)))
    assert p.ring.hom(p, named, lift) == want


@settings(max_examples=120, deadline=None)
@given(cases())
def test_evaluate_is_a_ring_map(case):
    target, lift, images, p, q = case

    def ev(f):
        return evaluate(f.terms.items(), images, target, lift)

    assert ev(p * q) == target.mul(ev(p), ev(q))
    assert ev(p + q) == target.add(ev(p), ev(q))


def test_evaluate_constant_and_empty_terms():
    T = PolyRing(QQ, ["u"])
    u = T.var("u")
    assert evaluate([], [u], T, T.const) == T.zero()
    assert evaluate([((0,), Fraction(5))], [u], T, T.const) == T.const(Fraction(5))
    # an image that no term uses is never multiplied
    assert evaluate([((2, 0), Fraction(1))], [u, None], T, T.const) == u * u


def nonzero_scalars(field):
    if field.char == 0:
        return st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3))
    return st.integers(1, 6)


@st.composite
def unit_targets(draw, field):
    """(target context, lift, a unit image) for a nilpotent-algebra, a
    series or a Laurent polynomial target."""
    kind = draw(st.sampled_from(["nil", "series", "laurent"]))
    unit = draw(nonzero_scalars(field))
    if kind == "nil":
        T = NilAlgebra(field, ("e1", "e2"), 3)
        return T, T.scalar, T.element({**draw(term_dicts(field, 2, 2, 4)), (0, 0): unit})
    if kind == "series":
        T = SeriesRing(field, ("w",), 4)
        return T, T.const, TruncSeries(field, ("w",), 4,
                                       {**draw(term_dicts(field, 1, 4, 4)), (0,): unit})
    T = PolyRing(field, ["u", "ui"], [(0, 1)])
    exp = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (0, 3)]))
    return T, T.const, T.poly({exp: unit})


@st.composite
def laurent_cases(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    target, lift, image = draw(unit_targets(field))
    source = PolyRing(field, ["y", "yi"], [(0, 1)])
    p, q = (source.poly(draw(term_dicts(field, 2, 3, 5))) for _ in range(2))
    return target, lift, image, p, q


@settings(max_examples=120, deadline=None)
@given(laurent_cases())
def test_hom_sends_an_undeclared_partner_to_the_inverse_image(case):
    target, lift, image, p, q = case
    source = p.ring
    inverse = target.inv(image)

    def hom(f):
        return source.hom(f, GeneratorPowers(target, {"y": image}), lift)

    explicit = GeneratorPowers(target, {"y": image, "yi": inverse})
    assert hom(p) == source.hom(p, explicit, lift)
    assert hom(p) == naive_evaluate(p.sorted_terms(), [image, inverse], target, lift)
    assert hom(p * q) == target.mul(hom(p), hom(q))
    assert hom(p + q) == target.add(hom(p), hom(q))


def test_hom_names_a_generator_with_no_image():
    # neither y nor a partner of y has an image; a pair resolves either way
    T = PolyRing(QQ, ["u"])
    u = T.var("u")
    plain = PolyRing(QQ, ["x", "y"])
    with pytest.raises(KeyError, match="'y'"):
        plain.hom(plain.var("x"), GeneratorPowers(T, {"x": u}), T.const)
    laurent = PolyRing(QQ, ["y", "yi"], [(0, 1)])
    one = GeneratorPowers(T, {"yi": T.one()})
    assert laurent.hom(laurent.var("y") + laurent.var("yi"), one, T.const) == T.const(2)
