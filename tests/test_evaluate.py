"""exactalg.evaluate: the cached-power ring map, checked against a loop that
multiplies one image at a time, and against the ring-map laws, over QQ and
GF(7) into polynomial, nilpotent-algebra and truncated-series targets."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from modalg.exactalg import GF, QQ, PolyRing, evaluate
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
    target, lift, images, p, _ = case
    terms = p.sorted_terms()
    assert evaluate(terms, images, target, lift) == naive_evaluate(terms, images, target, lift)


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
