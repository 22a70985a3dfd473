"""Base arithmetic tests: scalar fields, binomials, polynomials, fractions,
matrices, row reduction.  Expected values for the derived cases are computed
by independent oracles (direct expansion, Lucas digits, cross-multiplication,
adjugate, a dense elimination loop)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalg.exactalg import (
    GF,
    QQ,
    Echelon,
    Frac,
    FracField,
    Matrix,
    MPoly,
    PolyRing,
    ProductField,
    binom,
    kernel_basis,
    poly_gcd,
    restriction_kernel,
    rref,
    solve_linear,
)


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


def test_binom_char0_factorial_identity():
    assert binom(5, 2) == Fraction(10)
    import math

    for i in range(10):
        for j in range(i + 1):
            assert binom(i, j) == Fraction(
                math.factorial(i), math.factorial(j) * math.factorial(i - j)
            )


def test_binom_char2_matches_square_expansion():
    # oracle: expand (y + t)^2 over GF(2) and read off the middle coefficient
    ring = PolyRing(GF(2), ["y", "t"])
    y, t = ring.gens()
    sq = (y + t) ** 2
    assert sq == ring.poly({(2, 0): 1, (0, 2): 1})
    assert sq.terms.get((1, 1)) is None  # C(2,1) = 0 over GF(2)
    assert binom(2, 1, 2) == 0


def test_binom_char3_lucas_digits():
    # 3 = 10 base 3 and 1 = 01 base 3, so C(3,1) = C(1,0)*C(0,1) = 0 mod 3
    assert binom(3, 1, 3) == 0


def test_binom_congruence_property():
    for p in (2, 3, 5):
        for i in range(13):
            for j in range(13):
                if j > i:
                    continue
                assert binom(i, j, p) == int(binom(i, j, 0)) % p


def test_binom_vectors_and_errors():
    assert binom((2, 3), (1, 1)) == Fraction(6)
    with pytest.raises(ValueError):
        binom(2, 1, 4)
    with pytest.raises(ValueError):
        binom(-1, 0)


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


def test_poly_substitution_and_partial():
    ring = qq_ring("x", "y")
    x, y = ring.gens()
    p = x ** 2 * y + y
    assert p.partial(0) == ring.poly({(1, 1): Fraction(2)})
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


# ---------------------------------------------------------------- product


def test_product_field_componentwise():
    P = ProductField(QQ, 3)
    a = P.element([Fraction(1), Fraction(2), Fraction(0)])
    assert not P.is_unit(a)
    b = P.element([Fraction(1), Fraction(2), Fraction(3)])
    assert P.is_unit(b)
    assert P.mul(b, P.inv(b)) == P.one()


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


def test_mat_inverse_rejects_singular():
    M = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError):
        M.inverse()


def test_laurent_matrix_inverse():
    ring = PolyRing(QQ, ["y", "yi"], inverse_pairs=[(0, 1)])
    y = ring.var("y")
    M = Matrix(ring, [[y]])
    assert M.inverse() == Matrix(ring, [[ring.var("yi")]])


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


@st.composite
def matrices(draw, min_rows=1, extra_rows=0):
    """(field, rows): a random matrix, sparse or dense, over QQ, GF(7) or
    QQ(y), with up to extra_rows rows beyond the field's largest shape."""
    field, entry, max_rows, max_cols = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
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


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=2, extra_rows=1))
def test_echelon_add_and_contains_match_rref_rank(data):
    field, rows = data
    # the last row is a further vector, tested for membership only
    rows, vec = rows[:-1], rows[-1]
    ech = Echelon(field)
    independent = 0
    for i, row in enumerate(rows):
        rank_before = len(rref(rows[:i], field)[1]) if i else 0
        rank_after = len(rref(rows[:i + 1], field)[1])
        assert ech.contains(row) == (rank_after == rank_before)
        added = ech.add(row)
        assert added == (rank_after > rank_before)
        independent += added
    assert independent == len(ech.rows) == len(rref(rows, field)[1])
    assert all(ech.contains(row) for row in rows)
    in_span = len(rref(rows + [vec], field)[1]) == len(rref(rows, field)[1])
    assert ech.contains(vec) == in_span
    # the same vector as a dict keyed by column
    assert ech.contains({j: x for j, x in enumerate(vec)}) == in_span


def test_echelon_with_labelled_columns():
    ech = Echelon(QQ)
    assert ech.add({"a": Fraction(1), "b": Fraction(2)})
    assert ech.add({"b": Fraction(1), "c": Fraction(1)})
    assert ech.contains({"a": Fraction(1), "b": Fraction(3), "c": Fraction(1)})
    assert not ech.contains({"c": Fraction(1)})
    assert not ech.add({"a": Fraction(2), "b": Fraction(5), "c": Fraction(1)})
    assert ech.contains({}) and ech.contains([Fraction(0), Fraction(0)])
    assert len(ech.rows) == 2
