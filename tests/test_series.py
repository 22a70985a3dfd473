"""Truncated power series tests.

Derived expectations are produced by independent oracles inside the test:
a direct Cauchy-product loop for multiplication, direct term substitution
for composition, the geometric series for reciprocals and quotients (the
loop the library used before its degree-by-degree division), and a
degree-by-degree solve (independent of the library routine) for
compositional inverses.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalg.exactalg import GF, QQ, FracField
from modalg.lieritt import NilAlgebra
from modalg.series import (
    TruncSeries,
    formal_inverse,
    identity_tuple,
    truncated_exp,
)


def qq_series(horizon, terms, var="w"):
    return TruncSeries(QQ, (var,), horizon, {(e,): Fraction(c) for e, c in terms.items()})


def cauchy_product_oracle(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    # naive double loop, written independently of TruncSeries.__mul__
    out: dict = {}
    R = f.ring
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) > f.horizon:
                continue
            out[e] = R.add(out.get(e, R.zero()), R.mul(c1, c2))
    return TruncSeries(R, f.vars, f.horizon, out)


def rand_series(rng, horizon, nvars=1, unit=False):
    vars_ = tuple(f"w{i+1}" for i in range(nvars)) if nvars > 1 else ("w",)
    terms = {}
    from modalg.lieritt import multi_indices

    for e in multi_indices(nvars, horizon):
        if rng.random() < 0.5:
            terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if unit:
        terms[(0,) * nvars] = Fraction(rng.randint(1, 5))
    return TruncSeries(QQ, vars_, horizon, terms)


# ------------------------------------------------------------------ multiply


def test_mul_simple():
    one = qq_series(4, {0: 1})
    w = qq_series(4, {1: 1})
    assert (one + w) * (one - w) == qq_series(4, {0: 1, 2: -1})


def test_mul_exp_times_exp_minus():
    N = 4
    e_plus = qq_series(N, {k: Fraction(1, math.factorial(k)) for k in range(N + 1)})
    e_minus = qq_series(N, {k: Fraction((-1) ** k, math.factorial(k)) for k in range(N + 1)})
    prod = e_plus * e_minus
    assert prod == qq_series(N, {0: 1})
    assert prod == cauchy_product_oracle(e_plus, e_minus)


def test_mul_truncation():
    w2 = qq_series(4, {2: 1})
    w3 = qq_series(4, {3: 1})
    assert (w2 * w3).is_zero()


def test_mul_matches_cauchy_oracle_and_is_commutative_associative():
    rng = random.Random(42)
    for _ in range(30):
        f = rand_series(rng, 5)
        g = rand_series(rng, 5)
        h = rand_series(rng, 5)
        assert f * g == cauchy_product_oracle(f, g)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


# ----------------------------------------------------------------- compose


def test_compose_substitution_oracle():
    f = qq_series(4, {1: 1, 2: 1})  # w + w^2
    phi = qq_series(4, {1: 2})  # 2w
    got = f.compose([phi])
    # oracle: substitute directly, f(2w) = 2w + 4w^2
    assert got == qq_series(4, {1: 2, 2: 4})


def test_compose_identity():
    rng = random.Random(1)
    for _ in range(10):
        f = rand_series(rng, 5)
        ident = identity_tuple(QQ, ("w",), 5)
        assert f.compose(list(ident)) == f


def test_compose_nilpotent_constant_term():
    A = NilAlgebra(QQ, ("a",), 2)
    w = TruncSeries.variable(A, ("w",), 4, "w")
    a = TruncSeries.const(A, ("w",), 4, A.gen("a"))
    f = w  # the identity series
    assert f.compose([a + w]) == a + w


def test_products_by_zero_divisors_store_no_zero_terms():
    # over A = Q[a]/(a^2), a*a = 0: the terms it kills must not be stored
    A = NilAlgebra(QQ, ("a",), 2)
    a = A.gen("a")
    s = TruncSeries(A, ("w",), 3, {(0,): a, (1,): A.one()})
    assert s.scale(a).terms == {(1,): a}
    assert (s * TruncSeries.const(A, ("w",), 3, a)).terms == {(1,): a}
    assert s.scale(A.zero()).is_zero()
    assert (s - s).is_zero() and not (s - s).terms


def test_compose_rejects_unit_constant_term():
    f = qq_series(3, {1: 1})
    bad = qq_series(3, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        f.compose([bad])


def test_compose_associativity_random():
    rng = random.Random(99)
    for _ in range(15):
        f = rand_series(rng, 5)
        phi = rand_series(rng, 5)
        psi = rand_series(rng, 5)
        phi.terms.pop((0,), None)
        psi.terms.pop((0,), None)
        lhs = f.compose([phi]).compose([psi])
        rhs = f.compose([phi.compose([psi])])
        assert lhs == rhs


# ------------------------------------------------------------------- recip


def test_recip_geometric_oracle():
    f = qq_series(3, {0: 1, 1: -1})  # 1 - w
    assert f.recip() == qq_series(3, {0: 1, 1: 1, 2: 1, 3: 1})


def test_recip_over_function_field():
    L = FracField(QQ, ["y"])
    y = L.var("y")
    f = TruncSeries(L, ("w",), 2, {(0,): y, (1,): L.one()})  # y + w
    r = f.recip()
    expected = TruncSeries(
        L,
        ("w",),
        2,
        {(0,): y ** -1, (1,): -(y ** -2), (2,): y ** -3},
    )
    assert r == expected
    assert f * r == TruncSeries.one(L, ("w",), 2)


def test_recip_one_and_errors():
    one = qq_series(3, {0: 1})
    assert one.recip() == one
    with pytest.raises(ValueError):
        qq_series(3, {1: 1}).recip()


def test_recip_random_unit_series():
    rng = random.Random(7)
    for _ in range(100):
        f = rand_series(rng, 4, unit=True)
        assert f * f.recip() == TruncSeries.one(QQ, ("w",), 4)


def geometric_recip_oracle(f: TruncSeries) -> TruncSeries:
    # 1/f = c0^-1 sum_k g^k with g = 1 - f/c0, which has zero constant term,
    # so g^(horizon + 1) vanishes: at most horizon + 1 full series products
    R = f.ring
    inv0 = R.inv(f.constant_term())
    one = TruncSeries.one(R, f.vars, f.horizon)
    g = one - f.scale(inv0)
    acc, p = one, one
    for _ in range(f.horizon + 1):
        p = p * g
        if p.is_zero():
            break
        acc = acc + p
    assert p.is_zero()
    return acc.scale(inv0)


DIVISION_RINGS = {
    "QQ": QQ,
    "GF7": GF(7),
    "QQ(y)": FracField(QQ, ["y"]),
    "nil": NilAlgebra(QQ, ("e",), 3),
}


def division_coefficients(R):
    """Small coefficients of R, zero included; units are those with a
    nonzero (constant) part."""
    if R is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if R.char == 7:
        return st.integers(0, 6).map(R.from_int)
    if isinstance(R, NilAlgebra):
        return st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
            lambda cs: R.element({(0,): Fraction(cs[0]), (1,): Fraction(cs[1]), (2,): Fraction(cs[2])}))
    y = R.var("y")
    return st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2)).map(
        lambda t: (R.from_int(t[0]) + R.from_int(t[1]) * y) / (y + R.from_int(t[2])))


@st.composite
def division_cases(draw):
    """(numerator, denominator) series over one of the rings, in one or two
    variables at horizon <= 4; the denominator may lack a unit constant."""
    R = DIVISION_RINGS[draw(st.sampled_from(sorted(DIVISION_RINGS)))]
    nvars = draw(st.sampled_from([1, 2]))
    variables = ("w",) if nvars == 1 else ("w1", "w2")
    horizon = draw(st.integers(0, 4 if nvars == 1 else 3))
    exps = st.tuples(*[st.integers(0, horizon)] * nvars)
    coeffs = division_coefficients(R)
    num, den = (draw(st.dictionaries(exps, coeffs, max_size=5)) for _ in range(2))
    den[(0,) * nvars] = draw(coeffs)
    return (TruncSeries(R, variables, horizon, num), TruncSeries(R, variables, horizon, den))


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_divide_and_recip_match_geometric_oracle(case):
    num, den = case
    if not den.ring.is_unit(den.constant_term()):
        with pytest.raises(ValueError):
            num.divide(den)
        with pytest.raises(ValueError):
            den.recip()
        return
    r = geometric_recip_oracle(den)
    assert den.recip() == r
    assert num.divide(den) == num * r
    assert num.divide(den) * den == num


def test_divide_rejects_other_shapes():
    with pytest.raises(ValueError):
        qq_series(3, {0: 1}).divide(qq_series(2, {0: 1}))


# ---------------------------------------------------------- formal inverse


def inverse_oracle_univariate(f: TruncSeries) -> TruncSeries:
    # degree-by-degree solve of f(g) = w, independent of formal_inverse
    N = f.horizon
    g = {(1,): QQ.inv(f.coeff((1,)))}
    for d in range(2, N + 1):
        cur = TruncSeries(QQ, f.vars, N, g)
        resid = f.compose([cur], strict=False).coeff((d,))
        # f(g + c w^d) - f(g) = f'(0) c w^d + higher, so c = -resid / f'(0)
        g[(d,)] = QQ.neg(QQ.div(resid, f.coeff((1,))))
    return TruncSeries(QQ, f.vars, N, g)


def test_formal_inverse_signed_catalan():
    f = qq_series(4, {1: 1, 2: 1})  # w + w^2
    (g,) = formal_inverse([f])
    # oracle solve, and the frozen signed Catalan coefficients
    assert g == inverse_oracle_univariate(f)
    assert g == qq_series(4, {1: 1, 2: -1, 3: 2, 4: -5})


def test_formal_inverse_identity_and_linear():
    ident = identity_tuple(QQ, ("w1", "w2"), 4)
    assert formal_inverse(list(ident)) == ident
    f = qq_series(4, {1: 2})
    (g,) = formal_inverse([f])
    assert g == qq_series(4, {1: Fraction(1, 2)})


def test_formal_inverse_two_sided_random():
    rng = random.Random(5)
    ident = identity_tuple(QQ, ("w1", "w2"), 4)
    for _ in range(10):
        phis = []
        for i in range(2):
            s = rand_series(rng, 4, nvars=2)
            s.terms.pop((0, 0), None)
            # unipotent Jacobian: linear part exactly w_i
            s.terms[(1, 0)] = Fraction(1) if i == 0 else Fraction(0)
            s.terms[(0, 1)] = Fraction(1) if i == 1 else Fraction(0)
            phis.append(TruncSeries(QQ, ("w1", "w2"), 4, s.terms))
        gs = formal_inverse(phis)
        assert tuple(p.compose(list(gs)) for p in phis) == tuple(ident)
        assert tuple(gg.compose(list(phis)) for gg in gs) == tuple(ident)


def test_formal_inverse_singular_jacobian():
    f = qq_series(4, {2: 1})
    with pytest.raises(ValueError):
        formal_inverse([f])


# ---------------------------------------------------------- hasse derivative


def test_hasse_deriv_iterativity_char0_and_char2():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_series(rng, 6)
        for i in range(4):
            for j in range(4 - i):
                lhs = f.hasse_deriv((j,)).hasse_deriv((i,))
                rhs = f.hasse_deriv((i + j,)).scale(QQ.from_int(math.comb(i + j, i)))
                assert lhs == rhs
    F2 = GF(2)
    f = TruncSeries(F2, ("w",), 6, {(k,): 1 for k in range(7)})
    for i in range(4):
        for j in range(4 - i):
            lhs = f.hasse_deriv((j,)).hasse_deriv((i,))
            rhs = f.hasse_deriv((i + j,)).scale(F2.from_int(math.comb(i + j, i)))
            assert lhs == rhs


def test_truncated_exp():
    w = qq_series(4, {1: 1})
    e = truncated_exp(w)
    assert e == qq_series(4, {k: Fraction(1, math.factorial(k)) for k in range(5)})
    with pytest.raises(ValueError):
        truncated_exp(qq_series(3, {0: 1}))
