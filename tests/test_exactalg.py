"""Base arithmetic tests: scalar fields, polynomials, fractions, the ring
protocol and interning of contexts, matrices, row reduction.  Expected values
for the derived cases are computed by independent oracles (direct expansion,
cross-multiplication, adjugate, a dense elimination loop)."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modalg.exactalg import (
    GF,
    QQ,
    AlgebraicField,
    Echelon,
    Frac,
    FracField,
    Matrix,
    MPoly,
    PolyRing,
    PrimeField,
    ProductField,
    RationalField,
    kernel_basis,
    poly_gcd,
    restriction_kernel,
    rref,
    solve_linear,
)
from modalg.exactalg import frac
from modalg.lieritt import NilAlgebra
from modalg.series import TruncSeries


# ---------------------------------------------------------------- scalars


def test_field_axioms_random_samples():
    rng = random.Random(20240811)
    fields = [QQ, GF(2), GF(3), GF(5)]
    for fld in fields:
        for _ in range(60):
            if fld.char == 0:
                a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            else:
                a, b, c = (rng.randrange(fld.char) for _ in range(3))
            assert fld.eq(fld.add(fld.add(a, b), c), fld.add(a, fld.add(b, c)))
            assert fld.eq(fld.mul(fld.mul(a, b), c), fld.mul(a, fld.mul(b, c)))
            assert fld.eq(fld.mul(a, fld.add(b, c)), fld.add(fld.mul(a, b), fld.mul(a, c)))
            if not fld.is_zero(a):
                assert fld.eq(fld.mul(a, fld.inv(a)), fld.one())


def test_fraction_slot_layout():
    # QQ builds its results by setting these two slots of a bare Fraction;
    # another layout must fail here rather than yield wrong values
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    r = QQ.add(Fraction(1, 6), Fraction(1, 3))
    assert (r.numerator, r.denominator) == (1, 2) and hash(r) == hash(Fraction(1, 2))


def _rationals():
    """Signed fractions, with 0, +-1 and large numerators and denominators."""
    nums = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50),
                     st.integers(-10**40, 10**40))
    dens = st.one_of(st.just(1), st.integers(1, 50), st.integers(1, 10**40))
    return st.builds(Fraction, nums, dens)


def _lowest_terms(r):
    return type(r) is Fraction and r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1


@settings(max_examples=300, deadline=None)
@given(_rationals(), _rationals())
def test_qq_kernel_matches_fraction_operators(a, b):
    # oracle: the operators of fractions.Fraction; every result in lowest terms
    got = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)]
    for g, want in zip(got, [a + b, a - b, a * b, -a]):
        assert _lowest_terms(g) and (g.numerator, g.denominator) == (want.numerator, want.denominator)
    assert QQ.eq(a, b) == (a == b) and QQ.eq(a, Fraction(a)) and QQ.is_zero(a) == (a == 0)
    if b == 0:
        for op in (QQ.inv, lambda x: QQ.div(a, x)):
            with pytest.raises(ZeroDivisionError):
                op(b)
    else:
        for g, want in ((QQ.inv(b), 1 / b), (QQ.div(a, b), a / b)):
            assert _lowest_terms(g) and (g.numerator, g.denominator) == (want.numerator, want.denominator)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 7, 13, 101]), st.integers(-10**20, 10**20), st.integers(-10**20, 10**20))
def test_prime_field_matches_integer_residues(p, m, n):
    # oracle: integer arithmetic followed by % p
    F = GF(p)
    a, b = F.from_int(m), F.from_int(n)
    assert a == m % p and F.const(n) == n % p
    assert (F.add(a, b), F.sub(a, b), F.mul(a, b), F.neg(a)) == ((m + n) % p, (m - n) % p,
                                                                 (m * n) % p, -m % p)
    assert F.is_zero(a) == (m % p == 0) and F.eq(a, b) == ((m - n) % p == 0)
    if b:
        assert F.mul(F.inv(b), b) == 1 and F.div(a, b) == (m * pow(n, -1, p)) % p
    else:
        with pytest.raises(ZeroDivisionError):
            F.inv(b)


def test_const_embeds_into_the_scalar_field():
    # QQ.const makes a Fraction and GF(p).const reduces mod p, through every
    # context that builds a constant from them
    L = FracField(QQ, ["y"])
    for two in (L.const(2).num, PolyRing(QQ, ["x"]).const(2)):
        (c,) = two.terms.values()
        assert type(c) is Fraction and c == 2
    assert L.const(2) == L.from_int(2) and L.const(Fraction(1, 2)) * L.const(2) == L.one()
    assert QQ.const(Fraction(1, 3)) == Fraction(1, 3)
    G = GF(13)
    assert G.const(13) == 0 and G.const(-1) == 12 and G.is_zero(G.const(26))
    assert FracField(G, ["y"]).const(13).is_zero() and PolyRing(G, ["x"]).const(13).is_zero()
    assert PolyRing(G, ["x"]).const(15) == PolyRing(G, ["x"]).from_int(2)
    assert L.const(1) is L.one() and FracField(G, ["y"]).const(14) is FracField(G, ["y"]).one()


def test_negation_and_inverse_equal_to_one_return_the_interned_unit():
    # so that products by them take the x * one() shortcut
    for F in (QQ, GF(7)):
        L = FracField(F, ["y"])
        one, minus_one = L.one(), L.from_int(-1)
        fresh_one = L.from_poly(L.poly_ring.one())
        assert fresh_one is not one
        assert one.inverse() is one and fresh_one.inverse() is one
        assert -minus_one is one and -(-one) is one
        assert minus_one.inverse() == minus_one and minus_one.inverse() is not one
        assert -one == minus_one and (-one).inverse() == minus_one
        y = L.var("y")
        assert -(-y) == y and y.inverse() * y is one


def test_raw_term_constructors_store_field_elements():
    # the raw-term constructors take coefficients already in the field, so a
    # raw int goes through const first: 13 and 26 are 0 in GF(13) and drop out
    G = GF(13)
    R = PolyRing(G, ["x"])
    p = R.poly({(0,): G.const(26), (1,): G.const(27), (2,): G.const(-1)})
    assert p.terms == {(1,): 1, (2,): 12} and p == R.var("x") - R.var("x") ** 2
    assert R.scalar(G.const(13)).is_zero() and str(p) == str(R.var("x") + R.from_int(12) * R.var("x") ** 2)
    A = NilAlgebra(G, ["a"], 3)
    assert A.element({(0,): G.const(13), (1,): G.const(14), (3,): G.one()}) == {(1,): 1}
    # over QQ the stored coefficient is a Fraction, never an int
    S = PolyRing(QQ, ["x"])
    q = S.poly({(1,): QQ.const(2)})
    assert [type(c) for c in q.terms.values()] == [Fraction] and q == S.from_int(2) * S.var("x")


def test_binom_char2_matches_square_expansion():
    # oracle: expand (y + t)^2 over GF(2) and read off the middle coefficient,
    # which is C(2, 1) reduced mod 2 as the iteration rule takes it
    ring = PolyRing(GF(2), ["y", "t"])
    y, t = ring.gens()
    sq = (y + t) ** 2
    assert sq == ring.poly({(2, 0): 1, (0, 2): 1})
    assert sq.terms.get((1, 1)) is None  # C(2,1) = 0 over GF(2)
    assert GF(2).from_int(math.comb(2, 1)) == 0


# ------------------------------------------------------------ polynomials


def qq_ring(*names):
    return PolyRing(QQ, names)


def test_poly_mul_and_exact_div():
    ring = qq_ring("y")
    y = ring.var("y")
    one = ring.one()
    assert (y + one) * (y - one) == ring.poly({(2,): Fraction(1), (0,): Fraction(-1)})
    assert ((y + one) * (y - one)).exact_div(y - one) == y + one
    with pytest.raises(ValueError):
        (y * y + one).exact_div(y - one)


def test_poly_substitution():
    ring = qq_ring("x", "y")
    x, y = ring.gens()
    p = x ** 2 * y + y
    assert p.subs({"x": y}) == y ** 3 + y


def test_poly_str_is_graded_lex_descending():
    ring = qq_ring("x", "y")
    x, y = ring.gens()
    p = x + y ** 2 + ring.one()
    assert str(p) == "y^2 + x + 1"


def test_laurent_inverse_pair_reduction():
    ring = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    y, yi = ring.gens()
    assert y * yi == ring.one()
    assert (y ** 3 * yi) == y ** 2
    u = ring.poly({(0, 2): Fraction(3)})  # 3*yi^2
    assert ring.is_unit(u)
    assert ring.mul(u, ring.inv(u)) == ring.one()
    assert not ring.is_unit(y + ring.one())
    # over NilAlgebra(QQ, (e,), 2) a unit monomial plus nilpotent terms is a
    # unit: (y + e*y^2)(yi - e) = 1 - e^2*y^2 = 1
    A = NilAlgebra(QQ, ("e",), 2)
    ring = PolyRing(A, ["y", "yi"], inverse_pairs=[(0, 1)])
    y, yi = ring.gens()
    e = ring.scalar(A.var("e"))
    assert ring.inv(y + e * y ** 2) == yi - e
    assert ring.inv(ring.scalar(A.add(A.one(), A.var("e")))) == ring.one() - e
    assert not ring.is_unit(ring.one() + y) and not ring.is_unit(e + e * y)


def test_poly_gcd_univariate_and_multivariate():
    ring = qq_ring("y")
    y = ring.var("y")
    one = ring.one()
    a = (y + one) ** 2 * (y - one)
    b = (y + one) * (y ** 2)
    assert poly_gcd(a, b) == y + one

    ring2 = qq_ring("x", "y")
    x, y = ring2.gens()
    g = x + y
    assert poly_gcd(g * (x - y), g * x * y) == g

    # gcd over GF(2)
    r2 = PolyRing(GF(2), ["y"])
    z = r2.var("y")
    assert poly_gcd((z + r2.one()) ** 2, z ** 2 + r2.one()) == (z + r2.one()) ** 2
    # (z+1)^2 = z^2 + 1 over GF(2)


def _to_sympy(p, *gens):
    import sympy

    return sympy.Poly({e: sympy.Rational(c.numerator, c.denominator)
                       for e, c in p.terms.items()} or {(0,) * len(gens): 0}, *gens, domain="QQ")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
                         min_size=1, max_size=4), min_size=3, max_size=3))
def test_poly_gcd_matches_sympy(coeff_lists):
    # a, b share the factor g, so the gcd is seldom 1
    sympy = pytest.importorskip("sympy")
    ring = qq_ring("y")
    g, a, b = (ring.poly({(i,): c for i, c in enumerate(cs)}) for cs in coeff_lists)
    a, b = a * g, b * g
    y = sympy.Symbol("y")
    want = _to_sympy(a, y).gcd(_to_sympy(b, y))  # monic over QQ, or 0
    got = poly_gcd(a, b)
    assert _to_sympy(got, y) == want


EXPS_XY = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=len(EXPS_XY), max_size=len(EXPS_XY)),
                min_size=3, max_size=3))
def test_poly_gcd_two_variables_matches_sympy(coeff_lists):
    # a, b share the factor g; poly_gcd is monic under graded lex order and
    # sympy's under lex, so both are compared after sympy's own monic()
    sympy = pytest.importorskip("sympy")
    ring = qq_ring("x", "y")
    g, a, b = (ring.poly({e: Fraction(c) for e, c in zip(EXPS_XY, cs)}) for cs in coeff_lists)
    a, b = a * g, b * g
    x, y = sympy.symbols("x y")
    want = _to_sympy(a, x, y).gcd(_to_sympy(b, x, y))
    got = _to_sympy(poly_gcd(a, b), x, y)
    if want.is_zero:
        assert got.is_zero
    else:
        assert got.monic() == want.monic()


def _gcd_matches_sympy(a, b):
    """poly_gcd(a, b) equals sympy's gcd up to sympy's monic(), over QQ or
    GF(p), in either argument order."""
    import sympy

    field, gens = a.ring.field, sympy.symbols(a.ring.vars)
    if field.char:
        def conv(p):
            return sympy.Poly({e: int(c) for e, c in p.terms.items()} or {(0,) * len(gens): 0},
                              *gens, modulus=field.char)
    else:
        def conv(p):
            return _to_sympy(p, *gens)
    want = conv(a).gcd(conv(b))
    for got in (poly_gcd(a, b), poly_gcd(b, a)):
        assert conv(got).monic() == want.monic()
        assert got.leading()[1] == field.one()


EXPS_LOW = st.tuples(st.integers(0, 3), st.integers(0, 3))
MONOMIAL_RINGS = [PolyRing(QQ, ["y"]), PolyRing(QQ, ["x", "y"]), PolyRing(GF(7), ["x", "y"])]


@pytest.mark.parametrize("ring", MONOMIAL_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(mono=EXPS_LOW, c=st.integers(1, 6),
       terms=st.dictionaries(EXPS_LOW, st.integers(-3, 3).filter(bool), min_size=1, max_size=5))
def test_poly_gcd_with_a_monomial_matches_sympy(ring, mono, c, terms):
    # a one-term argument takes the closed form; sympy runs a full gcd
    pytest.importorskip("sympy")
    n = ring.nvars()
    m = ring.poly({mono[:n]: ring.field.from_int(c)})
    p = ring.poly({e[:n]: ring.field.from_int(v) for e, v in terms.items()})
    if p.is_zero():
        return
    _gcd_matches_sympy(m, p)


@pytest.mark.parametrize("ring", MONOMIAL_RINGS[1:], ids=str)
def test_poly_gcd_monomial_edge_cases(ring):
    pytest.importorskip("sympy")
    x, y = ring.var("x"), ring.var("y")
    three = ring.from_int(3)
    cases = [
        (three * x * x * y, x * y * y * y),         # monomial against monomial: x*y
        (x * x * x, y * y + ring.one()),            # no shared variable: 1
        (x * x, three * y * y * y),                 # disjoint monomials: 1
        (x * y * y, x * x * y + x * y * y * y),     # shared factor x*y
    ]
    for a, b in cases:
        _gcd_matches_sympy(a, b)
    assert poly_gcd(three * x * x * y, x * y * y * y) == x * y
    assert poly_gcd(x * x * x, y * y + ring.one()) == ring.one()


def test_poly_gcd_with_a_constant_is_one():
    for ring in (qq_ring("y"), qq_ring("x", "y"), PolyRing(GF(7), ["y"])):
        x = ring.gens()[0]
        p = x * x * ring.from_int(3) + x
        for c in (ring.from_int(5), ring.one()):
            assert poly_gcd(p, c) == ring.one()
            assert poly_gcd(c, p) == ring.one()
            assert poly_gcd(c, c) == ring.one()
            assert poly_gcd(ring.zero(), c) == ring.one()


def _long_division(p, d):
    """Reference: exact division by long division under graded lex order,
    subtracting one quotient term times d per step."""
    f = p.ring.field
    r, q = p, {}
    dexp, dc = d.leading()
    while not r.is_zero():
        rexp, rc = r.leading()
        qexp = tuple(a - b for a, b in zip(rexp, dexp))
        if any(e < 0 for e in qexp):
            raise ValueError("non-exact polynomial division")
        qc = f.div(rc, dc)
        q[qexp] = f.add(q.get(qexp, f.zero()), qc)
        r = r - p.ring.poly({qexp: qc}) * d
    return p.ring.poly(q)


@pytest.mark.parametrize("ring", MONOMIAL_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(mono=EXPS_LOW, c=st.integers(1, 6),
       terms=st.dictionaries(EXPS_LOW, st.integers(-3, 3).filter(bool), max_size=5))
def test_exact_div_by_one_term_matches_long_division(ring, mono, c, terms):
    # a one-term divisor shifts the exponents in one pass; the long-division
    # loop is the oracle, for exact and for non-exact quotients alike
    n = ring.nvars()
    m = ring.poly({mono[:n]: ring.field.from_int(c)})
    q = ring.poly({e[:n]: ring.field.from_int(v) for e, v in terms.items()})
    assert (q * m).exact_div(m) == q == _long_division(q * m, m)
    try:
        want = _long_division(q, m)
    except ValueError:
        with pytest.raises(ValueError, match="non-exact"):
            q.exact_div(m)
    else:
        assert q.exact_div(m) == want


def test_exact_div_by_one_term_rejects_non_exact_and_bad_divisors():
    ring = qq_ring("x1", "x2")
    x1, x2 = ring.gens()
    R = qq_ring("y")
    y = R.var("y")
    three = R.from_int(3)
    for p, d in ((x1, x2), (y, y * y), (three * y, y * y)):
        with pytest.raises(ValueError, match="non-exact"):
            p.exact_div(d)
    with pytest.raises(ZeroDivisionError):
        y.exact_div(R.zero())
    laurent = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    with pytest.raises(ValueError, match="inverse pairs"):
        laurent.var("y").exact_div(laurent.var("y"))


@contextlib.contextmanager
def _gcd_calls():
    """The list of the calls that frac makes to poly_gcd inside the block."""
    calls = []

    def counting(*args):
        calls.append(args)
        return poly_gcd(*args)

    original = frac.poly_gcd
    frac.poly_gcd = counting
    try:
        yield calls
    finally:
        frac.poly_gcd = original


@pytest.mark.parametrize("ring", MONOMIAL_RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(a=EXPS_LOW, b=EXPS_LOW, ca=st.integers(1, 6), cb=st.integers(1, 6))
def test_cancel_of_one_term_pair_is_division_by_gcd_without_gcd_call(ring, a, b, ca, cb):
    # gcd(c*x^e, c'*x^e') = x^min(e, e'): _cancel shifts both exponents
    # directly and never calls poly_gcd; the oracle divides by poly_gcd
    n = ring.nvars()
    p = ring.poly({a[:n]: ring.field.from_int(ca)})
    q = ring.poly({b[:n]: ring.field.from_int(cb)})
    g = poly_gcd(p, q)
    want = (p, q) if p.is_const() or q.is_const() else (_long_division(p, g), _long_division(q, g))
    with _gcd_calls() as calls:
        got = frac._cancel(p, q)
    assert got == want
    assert not calls


# -------------------------------------------------------------- fractions


def test_frac_normalization_is_canonical():
    F = FracField(QQ, ["y"])
    y = F.poly_ring.var("y")
    one = F.poly_ring.one()
    a = F.frac(y * y - one, y - one)  # reduces to y + 1
    assert a == F.from_poly(y + one)
    two = F.poly_ring.from_int(2)
    assert F.frac(y, two * y * y) == F.frac(one, two * y)
    # same value, different raw representation -> identical normal form
    assert F.frac(two * y, two * y * y).num == F.frac(y, y * y).num


def test_frac_arithmetic_cross_multiplication_oracle():
    F = FracField(QQ, ["y"])
    y = F.var("y")
    one = F.one()
    s = one / y + one / (y + one)
    # oracle: p1/q1 + p2/q2 = (p1 q2 + p2 q1)/(q1 q2), here (2y+1)/(y^2+y)
    yp = F.poly_ring.var("y")
    expected = F.frac(
        F.poly_ring.from_int(2) * yp + F.poly_ring.one(), yp * yp + yp
    )
    assert s == expected
    assert str(s) == "(2*y + 1)/(y^2 + y)"


def test_frac_random_field_axioms():
    rng = random.Random(7)
    F = FracField(GF(5), ["y"])
    y = F.var("y")

    def rand_frac():
        num = F.poly_ring.poly({(rng.randrange(3),): rng.randrange(5)})
        den = F.poly_ring.poly({(rng.randrange(2),): rng.randrange(1, 5)})
        return F.frac(num + F.poly_ring.one(), den)

    for _ in range(40):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inverse() == F.one()
        assert a + b == b + a


FRAC_FIELDS = {
    "QQ(y)": FracField(QQ, ["y"]),
    "GF7(y)": FracField(GF(7), ["y"]),
    "QQ(x,y)": FracField(QQ, ["x", "y"]),
}


@st.composite
def frac_pairs(draw):
    """(L, a, b): two fractions built by the normalizing constructor from
    polynomials of total degree <= 2, often with a factor in common; about
    one operand in six is a Laurent monomial c*x^e / x^f instead, such as
    3y/y^2, y^2/y or 1/y^3, one in six a constant c/1 (0 and 1 included),
    and one in twelve the interned unit L.one(), so that one-term operands
    meet multi-term ones."""
    L = FRAC_FIELDS[draw(st.sampled_from(sorted(FRAC_FIELDS)))]
    R = L.poly_ring
    gens = R.gens()
    exps = [e for e in itertools.product(range(3), repeat=R.nvars()) if sum(e) <= 2]
    shared = [R.one(), gens[-1], gens[-1] + R.one(), gens[-1] - R.from_int(2)]
    if len(gens) > 1:
        shared.append(gens[0] - gens[1])
    factor = draw(st.sampled_from(shared))

    def part(nonzero):
        cs = draw(st.lists(st.integers(-2, 2), min_size=len(exps), max_size=len(exps)))
        p = R.poly({e: R.field.from_int(c) for e, c in zip(exps, cs)})
        if nonzero and p.is_zero():
            p = R.one()
        return p * factor if draw(st.booleans()) else p

    def operand():
        kind = draw(st.integers(0, 11))
        if kind < 2:
            e, f = (draw(st.tuples(*[st.integers(0, 3)] * R.nvars())) for _ in range(2))
            c = R.field.from_int(draw(st.integers(-3, 3).filter(bool)))
            return Frac(L, R.poly({e: c}), R.poly({f: R.field.one()}))
        if kind < 4:
            return Frac(L, R.from_int(draw(st.integers(-3, 3))), R.one())
        if kind < 5:
            return L.one()
        return Frac(L, part(False), part(True))

    return L, operand(), operand()


def _same_pair(got, want):
    return got.num.terms == want.num.terms and got.den.terms == want.den.terms


@settings(max_examples=180, deadline=None)
@given(frac_pairs())
def test_frac_arithmetic_matches_normalizing_constructor(data):
    # oracle: the normalizing constructor on the cross-multiplied pair
    L, a, b = data
    p, q, r, s = a.num, a.den, b.num, b.den
    assert _same_pair(a + b, Frac(L, p * s + r * q, q * s))
    assert _same_pair(a - b, Frac(L, p * s - r * q, q * s))
    assert _same_pair(a * b, Frac(L, p * r, q * s))
    assert _same_pair(-a, Frac(L, -p, q))
    # the interned unit and zero return the other operand itself
    for x in (a, b):
        assert x * L.one() is x and L.one() * x is x
        assert x + L.zero() is x and L.zero() + x is x
    # both denominators 1: the product is the pair (p*r, 1) with no gcd taken
    one = L.poly_ring.one()
    assert _same_pair(L.from_poly(p) * L.from_poly(r), Frac(L, p * r, one))
    assert _same_pair(L.from_poly(p), Frac(L, p, L.poly_ring.one()))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    else:
        assert _same_pair(a / b, Frac(L, p * s, q * r))
        assert _same_pair(b.inverse(), Frac(L, s, r))


LAURENT_FIELDS = dict(FRAC_FIELDS, **{"GF7(x,y)": FracField(GF(7), ["x", "y"])})


def _laurent(L, c, num_exp, den_exp):
    """c*x^num_exp / x^den_exp through the normalizing constructor."""
    R = L.poly_ring
    return Frac(L, R.poly({num_exp: R.field.from_int(c)}), R.poly({den_exp: R.field.one()}))


@st.composite
def laurent_monomials(draw, L):
    n = L.poly_ring.nvars()
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return _laurent(L, draw(st.integers(-3, 3).filter(bool)), draw(exps), draw(exps))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_laurent_monomial_arithmetic_is_closed_form(data):
    # both operands c*x^e / x^f: exponent arithmetic with no gcd; oracle: the
    # normalizing constructor on the cross-multiplied pair
    L = LAURENT_FIELDS[data.draw(st.sampled_from(sorted(LAURENT_FIELDS)))]
    a, b = data.draw(laurent_monomials(L)), data.draw(laurent_monomials(L))
    p, q, r, s = a.num, a.den, b.num, b.den
    want = [Frac(L, p * s + r * q, q * s), Frac(L, p * s - r * q, q * s),
            Frac(L, p * r, q * s), Frac(L, p * s, q * r)]
    with _gcd_calls() as calls:
        got = [a + b, a - b, a * b, a / b]
    assert not calls
    for g, w in zip(got, want):
        assert _same_pair(g, w)


def test_laurent_monomial_arithmetic_cases():
    F = FracField(QQ, ["x", "y"])
    Fy = FracField(QQ, ["y"])
    G = FracField(GF(7), ["y"])
    x, y = F.poly_ring.gens()
    (yy,) = Fy.poly_ring.gens()
    one = F.poly_ring.one()
    with _gcd_calls() as calls:
        a = _laurent(F, 3, (2, 0), (0, 1))  # 3x^2/y
        assert _same_pair(a + (-a), F.zero())
        s = _laurent(Fy, 1, (0,), (1,)) + _laurent(Fy, 1, (0,), (2,))  # 1/y + 1/y^2
        assert (s.num, s.den) == (yy + Fy.poly_ring.one(), yy * yy)
        s = _laurent(F, 1, (1, 0), (0, 1)) + _laurent(F, 1, (0, 1), (1, 0))  # x/y + y/x
        assert (s.num, s.den) == (x * x + y * y, x * y)
        s = _laurent(F, 2, (0, 1), (1, 0)) * _laurent(F, 1, (1, 0), (0, 1))  # (2y/x)*(x/y)
        assert (s.num, s.den) == (F.poly_ring.from_int(2), one)
        s = _laurent(G, 3, (0,), (1,)) + _laurent(G, 4, (0,), (1,))  # 3/y + 4/y over GF(7)
        assert _same_pair(s, G.zero())
    assert not calls


def test_frac_from_poly_rejects_another_ring():
    F = FracField(QQ, ["y"])
    with pytest.raises(ValueError):
        F.from_poly(qq_ring("x").var("x"))


# ---------------------------------------------------------------- product


def test_product_field_componentwise():
    P = ProductField(QQ, 3)
    a = P.element([Fraction(1), Fraction(2), Fraction(0)])
    assert not P.is_unit(a)
    b = P.element([Fraction(1), Fraction(2), Fraction(3)])
    assert P.is_unit(b)
    assert P.mul(b, P.inv(b)) == P.one()


def test_matrix_over_a_product_eliminates_factor_by_factor():
    # the factors pivot in different rows: no entry of the first column is a
    # unit of Q x Q, yet the matrix is its own inverse, of determinant (1, -1)
    P = ProductField(QQ, 2)
    one, zero = Fraction(1), Fraction(0)
    M = Matrix(P, [[(one, zero), (zero, one)], [(zero, one), (one, zero)]])
    assert M.inverse() == M
    assert M * M.inverse() == Matrix.identity(P, 2)
    assert M.det() == (one, -one)
    # singular in the second factor only
    S = Matrix(P, [[(one, one), (zero, one)], [(zero, one), (one, one)]])
    assert S.det() == (one, zero)
    with pytest.raises(ValueError):
        S.inverse()
    # a single factor is the plain elimination
    T = Matrix(ProductField(QQ, 1), [[(Fraction(2),)]])
    assert T.inverse() == Matrix(ProductField(QQ, 1), [[(Fraction(1, 2),)]])
    assert T.det() == (Fraction(2),)


# -------------------------------------------------------------- contexts


def test_contexts_are_interned():
    assert RationalField() is QQ
    assert GF(7) is PrimeField(7) and GF(7) is not GF(5)
    assert PolyRing(QQ, ["x"]) is PolyRing(QQ, ("x",))
    assert PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)]) is PolyRing(QQ, ("y", "yi"), [[0, 1]])
    assert PolyRing(QQ, ["x"]) is not PolyRing(GF(7), ["x"])
    F = FracField(QQ, ["y"])
    assert FracField(QQ, ("y",)) is F and F.poly_ring is PolyRing(QQ, ["y"])
    assert NilAlgebra(F, ["a", "b"], 3) is NilAlgebra(F, ("a", "b"), 3)
    assert NilAlgebra(F, ("a", "b"), 3) is not NilAlgebra(F, ("a", "b"), 2)
    assert ProductField(QQ, 3) is ProductField(QQ, 3)
    u = FracField(QQ, ["u"])
    minpoly = [-u.var("u"), u.zero(), u.one()]
    assert AlgebraicField(u, "z", minpoly) is AlgebraicField(u, "z", tuple(minpoly))
    # an equal construction is the same object, so contexts compare by identity
    assert PolyRing(QQ, ["x"]) == PolyRing(QQ, ["x"])
    assert {F: 1}[FracField(QQ, ["y"])] == 1


def test_bad_context_arguments_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            GF(1)
        with pytest.raises(ValueError):
            PolyRing(QQ, ["x", "x"])
        with pytest.raises(ValueError):
            PolyRing(QQ, ["x", "y"], inverse_pairs=[(0, 2)])
        with pytest.raises(ValueError):
            FracField(QQ, ["y", "y"])
        with pytest.raises(ValueError):
            NilAlgebra(QQ, ("a",), 0)
        with pytest.raises(ValueError):
            ProductField(QQ, 0)
        u = FracField(QQ, ["u"])
        with pytest.raises(ValueError):
            AlgebraicField(u, "z", [u.one(), u.one(), u.from_int(2)])


def test_every_context_answers_the_protocol():
    F = FracField(GF(5), ["y"])
    u = FracField(QQ, ["u"])
    contexts = [QQ, GF(5), PolyRing(QQ, ["x"]), F, ProductField(F, 2),
                NilAlgebra(F, ("a",), 2),
                AlgebraicField(u, "z", [-u.var("u"), u.zero(), u.one()])]
    for R in contexts:
        assert R.scalars in (QQ, GF(5)) and R.char == R.scalars.char
        two = R.from_int(2)
        assert R.eq(two, R.const(R.scalars.from_int(2)))
        assert R.eq(R.add(R.one(), R.one()), two)
        assert R.eq(R.sub(two, R.one()), R.one())
        assert R.eq(R.div(two, two), R.one())
        assert R.is_unit(two) and not R.is_nilpotent(two) and R.is_nilpotent(R.zero())
        assert R.to_str(R.zero()) in ("0", "(0, 0)")
        assert R.factors() == ((F, F) if isinstance(R, ProductField) else ())
        elems = [R.one(), two] + R.gens()
        labels, rows = R.scalar_coordinates(elems)
        assert len(rows) == len(elems) and all(len(r) == len(labels) for r in rows)
        # -2 * 1 + 1 * two = 0 is the one scalar relation between 1 and two
        k = R.scalars
        kernel = restriction_kernel([[R.one()], [two]], R, k)
        assert kernel == [[k.from_int(-2), k.one()]]
    assert QQ.gens() == [] and QQ.scalar_coordinates([Fraction(3)]) == ([()], [[Fraction(3)]])
    A = NilAlgebra(QQ, ("a",), 2)
    assert A.is_nilpotent(A.gen("a")) and A.gens() == [A.gen("a")]


# ---------------------------------------------------------------- matrices


def test_mat_inverse_unipotent():
    ring = qq_ring("y")
    y = ring.var("y")
    M = Matrix(ring, [[ring.one(), y], [ring.zero(), ring.one()]])
    Minv = M.inverse()
    assert Minv == Matrix(ring, [[ring.one(), -y], [ring.zero(), ring.one()]])
    assert M * Minv == Matrix.identity(ring, 2)


def test_mat_inverse_over_function_field():
    F = FracField(QQ, ["y"])
    y = F.var("y")
    M = Matrix(F, [[y]])
    assert M.inverse() == Matrix(F, [[y.inverse()]])


def test_mat_inverse_adjugate_oracle():
    # adjugate oracle for [[1,1],[1,2]]: det=1, adj=[[2,-1],[-1,1]]
    M = Matrix(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]])
    assert M.inverse() == Matrix(QQ, [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(1)]])
    assert M.det() == 1
    # the swap [[0,1],[1,0]] takes its pivots in the other order: det=-1
    swap = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert swap.inverse() == swap and swap.det() == -1
    # over NilAlgebra(QQ, (e,), 2), [[e,1],[1,e]]: det = e^2 - 1 = -1 and
    # adj = [[e,-1],[-1,e]]; the (0, 0) entry is not a unit, so the first
    # pivot is in the other row
    A = NilAlgebra(QQ, ("e",), 2)
    e, one, minus_e = A.var("e"), A.one(), A.neg(A.var("e"))
    M = Matrix(A, [[e, one], [one, e]])
    Minv = M.inverse()
    assert Minv == Matrix(A, [[minus_e, one], [one, minus_e]])
    assert M * Minv == Minv * M == Matrix.identity(A, 2)
    assert A.eq(M.det(), A.const(-1))


def test_mat_inverse_rejects_singular():
    M = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError):
        M.inverse()
    assert M.det() == 0
    # over NilAlgebra, [[e]] has a nilpotent determinant: no unit pivot
    A = NilAlgebra(QQ, ("e",), 2)
    for op in (Matrix.inverse, Matrix.det):
        with pytest.raises(ValueError, match="no unit pivot"):
            op(Matrix(A, [[A.var("e")]]))


def test_laurent_matrix_inverse():
    ring = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    y = ring.var("y")
    M = Matrix(ring, [[y]])
    assert M.inverse() == Matrix(ring, [[ring.var("yi")]])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=27, max_size=27))
def test_mat_inverse_and_det_over_a_local_ring(coeffs):
    # oracle: the Leibniz expansion of the determinant over NilAlgebra; M is
    # invertible exactly when that determinant is a unit, and det() either
    # equals it or raises for want of a unit pivot
    A = NilAlgebra(QQ, ("e",), 3)
    it = iter(coeffs)
    M = Matrix(A, [[A.element({(k,): QQ.const(next(it)) for k in range(3)}) for _ in range(3)]
                   for _ in range(3)])
    det = A.zero()
    for perm in itertools.permutations(range(3)):
        term = A.from_int(-1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2
                          else 1)
        for i, j in enumerate(perm):
            term = A.mul(term, M.entry(i, j))
        det = A.add(det, term)
    if A.is_unit(det):
        Minv = M.inverse()
        assert M * Minv == Minv * M == Matrix.identity(A, 3)
        assert A.eq(M.det(), det)
        return
    with pytest.raises(ValueError):
        M.inverse()
    with contextlib.suppress(ValueError):
        assert A.eq(M.det(), det)


# ---------------------------------------------------------- linear algebra


def test_kernel_and_solve():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    ker = kernel_basis(rows, QQ)
    assert len(ker) == 2
    for v in ker:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    x = solve_linear([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]], [Fraction(6), Fraction(8)], QQ)
    assert x == [Fraction(3), Fraction(2)]
    assert solve_linear([[Fraction(0)]], [Fraction(1)], QQ) is None


def test_restriction_kernel_over_function_field():
    # columns 1, y, y-1 over QQ(y): kernel of x0*1 + x1*y + x2*(y-1) over QQ
    F = FracField(QQ, ["y"])
    y = F.var("y")
    cols = [[F.one()], [y], [y - F.one()]]
    ker = restriction_kernel(cols, F, QQ)
    assert len(ker) == 1
    x0, x1, x2 = ker[0]
    assert F.add(F.add(F.mul(F.one(), F.const(x0)), F.mul(y, F.const(x1))), F.mul(y - F.one(), F.const(x2))).is_zero()


# ------------------------------------------------- sparse rref and Echelon


def dense_rref(rows, field):
    """Reference: the dense loop that scales and eliminates whole rows."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, e) for e in m[r]]
        for i in range(nr):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


QY = FracField(QQ, ["y"])
SMALL = st.integers(-3, 3)


def qq_entry():
    return st.builds(Fraction, SMALL, st.integers(1, 3))


def gf_entry():
    return st.integers(0, 6)


def qy_entry():
    y = QY.var("y")

    def build(a, b, c):
        num = QY.const(Fraction(a)) + QY.const(Fraction(b)) * y
        return num / (y + QY.const(Fraction(c))) if c else num

    return st.builds(build, SMALL, SMALL, st.integers(0, 2))


# field, entry strategy, largest shape; rational functions swell fast under
# elimination, so the QQ(y) matrices stay small
FIELDS = {
    "QQ": (QQ, qq_entry, 6, 6),
    "GF7": (GF(7), gf_entry, 6, 6),
    "QQ(y)": (QY, qy_entry, 3, 4),
}


NIL = NilAlgebra(QQ, ("e",), 2)


def nil_entry():
    """A unit, a unit plus a nilpotent, or a nilpotent of NIL, whose
    nonunits are the multiples of e."""
    unit = st.builds(Fraction, st.sampled_from([-2, -1, 1, 2, 3]))
    return st.one_of(
        st.builds(NIL.scalar, unit),
        st.builds(lambda a, b: NIL.element({(0,): a, (1,): b}), unit, unit),
        st.builds(lambda b: NIL.element({(1,): b}), unit),
    )


# the fields and a local ring, for what holds over every ring an Echelon takes
RINGS = {**FIELDS, "NIL": (NIL, nil_entry, 5, 5)}
ENTRIES = {ring: entry for ring, entry, _, _ in RINGS.values()}


@st.composite
def matrices(draw, min_rows=1, extra_rows=0, rings=FIELDS):
    """(field, rows): a random matrix, sparse or dense, over QQ, GF(7) or
    QQ(y) (or the rings named in rings), with up to extra_rows rows beyond
    the field's largest shape."""
    field, entry, max_rows, max_cols = rings[draw(st.sampled_from(sorted(rings)))]
    nr = draw(st.integers(min_rows, max_rows + extra_rows))
    nc = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    rows = []
    for _ in range(nr):
        row = []
        for _ in range(nc):
            nonzero = draw(st.floats(0, 1)) < density
            row.append(draw(entry()) if nonzero else field.zero())
        rows.append(row)
    return field, rows


def _same_rows(field, a, b):
    return len(a) == len(b) and all(
        len(r) == len(s) and all(field.eq(x, z) for x, z in zip(r, s)) for r, s in zip(a, b)
    )


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_sparse_rref_matches_dense_reference(data):
    field, rows = data
    got_rows, got_pivots = rref(rows, field)
    want_rows, want_pivots = dense_rref(rows, field)
    assert got_pivots == want_pivots
    assert _same_rows(field, got_rows, want_rows)


def dense_rank(rows, field):
    return len(dense_rref(rows, field)[1]) if rows else 0


def dense_solve(rows, rhs, field):
    """Reference: the solution the dense reduced echelon form of [rows | rhs]
    gives, zero at the free columns, or None when rhs is outside the span of
    the columns."""
    ncols = len(rows[0])
    m, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=2, extra_rows=1))
def test_echelon_add_and_contains_match_rref_rank(data):
    field, rows = data
    # the last row is a further vector, tested for membership only
    rows, vec = rows[:-1], rows[-1]
    ech = Echelon(field)
    independent = 0
    for i, row in enumerate(rows):
        rank_before = dense_rank(rows[:i], field)
        rank_after = dense_rank(rows[:i + 1], field)
        assert ech.contains(row) == (rank_after == rank_before)
        added = ech.add(row)
        assert added == (rank_after > rank_before)
        independent += added
    assert independent == len(ech.steps) == dense_rank(rows, field)
    assert all(ech.contains(row) for row in rows)
    in_span = dense_rank(rows + [vec], field) == dense_rank(rows, field)
    assert ech.contains(vec) == in_span
    # the same vector as a dict keyed by column
    assert ech.contains({j: x for j, x in enumerate(vec)}) == in_span


@settings(max_examples=80, deadline=None)
@given(matrices(min_rows=2), st.data())
def test_echelon_matches_dense_reference(matrix, data):
    # the columns of the matrix, added one at a time as sparse dicts keyed by
    # row, against the dense reduced echelon form; the last row is nonzero
    # only from a drawn column on, so its key first appears in a later vector
    field, rows = matrix
    ncols = len(rows[0])
    first = data.draw(st.integers(0, ncols - 1))
    rows[-1] = [field.zero()] * first + [field.one()] + rows[-1][first + 1:]
    cols = [{("row", i): row[c] for i, row in enumerate(rows) if not field.is_zero(row[c])}
            for c in range(ncols)]
    assert all(("row", len(rows) - 1) not in col for col in cols[:first])
    want_rows, pivots = dense_rref(rows, field)
    ech = Echelon(field)
    assert [ech.add(col) for col in cols] == [c in pivots for c in range(ncols)]
    assert list(ech.pivots.values()) == pivots and len(ech.steps) == len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    assert list(ech.dependent) == free
    # each relation is a kernel vector of the dense form
    kernel = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(want_rows[r][fc])
        kernel.append(v)
    got = [[ech.relation(fc).get(c, field.zero()) for c in range(ncols)] for fc in free]
    assert _same_rows(field, got, kernel)
    assert _same_rows(field, kernel_basis(rows, field), kernel)
    got_rows, got_pivots = rref(rows, field)
    assert got_pivots == pivots and _same_rows(field, got_rows, want_rows)
    # right-hand sides: a combination of the columns, sometimes moved off
    # their span, solved by replaying the one elimination
    for _ in range(3):
        xs = [data.draw(ENTRIES[field]()) for _ in range(ncols)]
        b = [field.zero()] * len(rows)
        for c, x in enumerate(xs):
            b = [field.add(bi, field.mul(x, row[c])) for bi, row in zip(b, rows)]
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(rows) - 1))
            b[i] = field.add(b[i], field.one())
        want = dense_solve(rows, b, field)
        rhs = {("row", i): x for i, x in enumerate(b)}
        assert ech.contains(rhs) == (want is not None)
        got = ech.solve(rhs)
        assert (got is None) == (want is None)
        if want is not None:
            assert _same_rows(field, [got], [want])
        got = solve_linear(rows, b, field)
        assert (got is None) == (want is None)
        if want is not None:
            assert _same_rows(field, [got], [want])


@st.composite
def echelon_cases(draw):
    """(ring, rows, right-hand sides): a matrix over RINGS and three
    right-hand sides, each a coefficient per column and either None or a
    (row, entry) added to the combination to move it off the span."""
    ring, rows = draw(matrices(rings=RINGS))
    entry = ENTRIES[ring]
    ncols = len(rows[0])
    off = st.none() | st.tuples(st.integers(0, len(rows) - 1), entry())
    return ring, rows, [(draw(st.lists(entry(), min_size=ncols, max_size=ncols)), draw(off))
                        for _ in range(3)]


# Over NIL with u = -2 and n = -2e, the columns c0..c3 of
# [u,0,0,0; 0,u,u,u; u,0,0,0; u,n,0,n; u,u,0,u+n] have c3 = (1+e)*c1 - e*c2:
# a replay clearing c3 by c2 multiplies nilpotents into products that vanish
U, N = NIL.const(-2), NIL.element({(1,): Fraction(-2)})
ZERO_PRODUCT_ROWS = [[U, NIL.zero(), NIL.zero(), NIL.zero()],
                     [NIL.zero(), U, U, U],
                     [U, NIL.zero(), NIL.zero(), NIL.zero()],
                     [U, N, NIL.zero(), N],
                     [U, U, NIL.zero(), NIL.add(U, N)]]


# Over NIL, a combination of these columns that a one-at-a-time replay found
# outside their span, from the same vanishing products
ZERO_PRODUCT_SPAN_ROWS = [[U, U, U, U],
                          [U, U, NIL.const(-1), U],
                          [U, NIL.zero(), U, U],
                          [NIL.add(NIL.one(), N), U, U, NIL.one()],
                          [U, NIL.zero(), U, NIL.zero()]]


def test_echelon_drops_products_that_vanish():
    # one at a time, c3 is found dependent with its relation, as in bulk
    cols = [{i: row[c] for i, row in enumerate(ZERO_PRODUCT_ROWS) if not NIL.is_zero(row[c])}
            for c in range(4)]
    single = Echelon(NIL)
    assert [single.add(col) for col in cols] == [True, True, True, False]
    want = {1: NIL.neg(NIL.add(NIL.one(), NIL.gen("e"))), 2: NIL.gen("e"), 3: NIL.one()}
    for ech in (single, Echelon(NIL, cols)):
        rel = ech.relation(3)
        assert rel.keys() == want.keys() and all(NIL.eq(rel[k], want[k]) for k in want)
    assert Echelon(NIL, cols[:3]).contains(cols[3])


@settings(max_examples=100, deadline=None)
@given(echelon_cases())
@example((NIL, ZERO_PRODUCT_ROWS, [([NIL.one()] * 4, None), ([U, N, U, N], (3, N)),
                                   ([N, U, NIL.zero(), U], None)]))
@example((NIL, ZERO_PRODUCT_SPAN_ROWS, [([U, U, U, N], None)] * 3))
def test_bulk_echelon_matches_one_at_a_time(case):
    # the columns given to the constructor pivot at the unit entry whose key
    # the fewest later columns touch, the columns fed by add at their first
    # unit key: the two give the same answers, and over NIL, where a rarer
    # key may hold a nilpotent the rule must skip, both raise at the same
    # column when its entries left outside the pivot keys are all nilpotent
    ring, rows, rhs = case
    cols = [{i: row[c] for i, row in enumerate(rows) if not ring.is_zero(row[c])}
            for c in range(len(rows[0]))]
    single = Echelon(ring)
    failed = None
    for j, col in enumerate(cols):
        try:
            single.add(col)
        except ValueError as exc:
            assert str(exc) == "no unit pivot"
            failed = j
            break
    reached = []

    class Reaching(Echelon):
        def _add(self, v):
            reached.append(self.size)
            return super()._add(v)

    if failed is None:
        bulk = Reaching(ring, cols)
    else:
        with pytest.raises(ValueError, match="no unit pivot"):
            Reaching(ring, cols)
        assert reached[-1] == failed
        bulk = Echelon(ring, cols[:failed])
    assert bulk.size == single.size and list(bulk.dependent) == list(single.dependent)

    def same(a, b):
        return a.keys() == b.keys() and all(ring.eq(a[k], b[k]) for k in a)

    assert all(same(bulk.relation(j), single.relation(j)) for j in single.dependent)
    # right-hand sides: a combination of the columns added, sometimes moved
    # off their span
    for xs, off in rhs:
        b = {}
        for x, col in zip(xs, cols[:single.size]):
            for i, e in col.items():
                b[i] = ring.add(b.get(i, ring.zero()), ring.mul(x, e))
        if off is not None:
            i, x = off
            b[i] = ring.add(b.get(i, ring.zero()), x)
        assert bulk.contains(b) == single.contains(b)
        got, want = bulk.solve(b), single.solve(b)
        assert (got is None) == (want is None)
        if want is not None:
            assert all(ring.eq(x, z) for x, z in zip(got, want))


def test_bulk_echelon_pivots_at_the_rarest_unit_key():
    # the first column's rarest key b holds a nilpotent, so it pivots at c,
    # which one later column touches, not at a, which both do; the second
    # column pivots at d, which no later column touches, and stops its scan
    # there; a column added later pivots at its first unit key
    e, one = NIL.gen("e"), NIL.one()
    cols = [{"a": one, "b": e, "c": one},
            {"a": one, "c": NIL.const(2), "d": one},
            {"a": NIL.const(3), "e": one}]
    ech = Echelon(NIL, cols)
    assert [p for p, _, _ in ech.steps] == ["c", "d", "a"]
    assert ech.add({"f": e, "g": one, "h": one}) and ech.steps[-1][0] == "g"
    assert [p for p, _, _ in Echelon(NIL, cols[:1]).steps] == ["a"]


def test_echelon_with_labelled_columns():
    ech = Echelon(QQ)
    assert ech.add({"a": Fraction(1), "b": Fraction(2)})
    assert ech.add({"b": Fraction(1), "c": Fraction(1)})
    assert ech.contains({"a": Fraction(1), "b": Fraction(3), "c": Fraction(1)})
    assert not ech.contains({"c": Fraction(1)})
    assert not ech.add({"a": Fraction(2), "b": Fraction(5), "c": Fraction(1)})
    assert ech.contains({}) and ech.contains([Fraction(0), Fraction(0)])
    assert len(ech.steps) == 2
    # the third vector is twice the first plus the second
    assert ech.relation(2) == {0: Fraction(-2), 1: Fraction(-1), 2: Fraction(1)}
    assert ech.solve({"a": Fraction(1), "b": Fraction(3), "c": Fraction(1)}) == [
        Fraction(1), Fraction(1), Fraction(0)]
    assert ech.solve({"c": Fraction(1)}) is None
    # the key "d" first appears in the fourth vector
    assert ech.add({"c": Fraction(1), "d": Fraction(3)})
    assert ech.solve({"c": Fraction(2), "d": Fraction(6)}) == [
        Fraction(0), Fraction(0), Fraction(0), Fraction(2)]


def test_dense_rational_function_rref_matches_dense_reference():
    # dense 4x6 over QQ(y) with every entry (a + b*y)/(y + c): the size at
    # which unnormalized gcd remainders used to swell past any time budget
    rng = random.Random(20241018)
    y = QY.var("y")

    pairs = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]

    def entry():
        a, b = rng.choice(pairs)
        num = QY.const(Fraction(a)) + QY.const(Fraction(b)) * y
        return num / (y + QY.from_int(rng.randint(1, 3)))

    rows = [[entry() for _ in range(6)] for _ in range(4)]
    got_rows, got_pivots = rref(rows, QY)
    want_rows, want_pivots = dense_rref(rows, QY)
    assert got_pivots == want_pivots == [0, 1, 2, 3]
    assert _same_rows(QY, got_rows, want_rows)


# ------------------------------------------------------------- binary powers


def _power_bases():
    """One value of each type whose ** is exactalg.power: a polynomial, a
    fraction and a truncated series."""
    R = PolyRing(QQ, ["x", "y"])
    L = FracField(QQ, ["y"])
    y = L.var("y")
    return [
        R.var("x") + R.from_int(2) * R.var("y") - R.one(),
        (y + L.one()) / (y - L.from_int(2)),
        TruncSeries(QQ, ("w",), 5, {(0,): Fraction(1), (1,): Fraction(-1), (2,): Fraction(3)}),
    ]


@pytest.mark.parametrize("index", range(3))
def test_power_is_repeated_multiplication_with_fewest_products(index, monkeypatch):
    x = _power_bases()[index]
    cls = type(x)
    one = x ** 0
    products = []
    original = cls.__mul__

    def counting(a, b):
        products.append(1)
        return original(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    expected = one
    for n in range(6):
        products.clear()
        got = x ** n
        # squarings below the top bit, plus one product per further set bit
        assert len(products) == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)
        assert got == expected
        expected = original(expected, x)
    products.clear()
    assert x ** 1 is x and not products
