"""The sparse-term kernel: accumulation with cancellation, term-by-term
products with a truncating combine, and the shared term printer."""

from __future__ import annotations

from fractions import Fraction

from modalg.exactalg import QQ, PolyRing, terms
from modalg.lieritt import NilAlgebra


def test_accumulate_drops_cancelled_keys():
    out = terms.accumulate({(1,): Fraction(2)}, [((1,), Fraction(-2)), ((0,), Fraction(3))], QQ)
    assert out == {(0,): Fraction(3)}
    # a key that cancels and comes back is stored again
    out = terms.accumulate({}, [((1,), Fraction(1)), ((1,), Fraction(-1)), ((1,), Fraction(5))], QQ)
    assert out == {(1,): Fraction(5)}


def test_add_leaves_operands_alone():
    a = {(0,): Fraction(1), (1,): Fraction(1)}
    b = {(1,): Fraction(-1)}
    assert terms.add(a, b, QQ) == {(0,): Fraction(1)}
    assert a == {(0,): Fraction(1), (1,): Fraction(1)} and b == {(1,): Fraction(-1)}


def test_mul_with_and_without_truncation():
    # (1 + x)(1 - x) = 1 - x^2
    a = {(0,): Fraction(1), (1,): Fraction(1)}
    b = {(0,): Fraction(1), (1,): Fraction(-1)}
    assert terms.mul(a, b, QQ, terms.add_keys) == {(0,): Fraction(1), (2,): Fraction(-1)}
    # modulo degree 2 the square term is dropped by combine returning None
    assert terms.mul(a, b, QQ, terms.degree_bound(1)) == {(0,): Fraction(1)}
    assert terms.degree_bound(1) is terms.degree_bound(1)
    assert terms.mul({}, b, QQ, terms.add_keys) == {}


def test_mul_of_single_terms():
    # one term times one term: a key and a coefficient product, dropped when
    # combine truncates it or the coefficients multiply to zero
    assert terms.mul({(1,): Fraction(2)}, {(2,): Fraction(3)}, QQ, terms.add_keys) \
        == {(3,): Fraction(6)}
    assert terms.mul({(1,): Fraction(2)}, {(2,): Fraction(3)}, QQ, terms.degree_bound(2)) == {}
    A = NilAlgebra(QQ, ("e",), 2)
    e = A.gen("e")
    assert terms.mul({(0,): e}, {(1,): e}, A, terms.add_keys) == {}


def test_operators_context_for_value_coefficients():
    # coefficients that are values with +, * and is_zero()
    R = PolyRing(QQ, ["x"])
    x = R.var("x")
    out = terms.mul({(1,): x}, {(1,): -x, (0,): x}, terms.OPERATORS, terms.add_keys)
    assert out == {(2,): -(x * x), (1,): x * x}
    assert terms.add(out, {(2,): x * x}, terms.OPERATORS) == {(1,): x * x}


def test_format_terms():
    def render(e):
        return terms.power_str(("x", "y"), e)

    assert terms.format_terms([], QQ, render) == "0"
    items = [((2, 1), Fraction(-1)), ((0, 1), Fraction(1)), ((0, 0), Fraction(-3, 2))]
    assert terms.format_terms(items, QQ, render) == "-x^2*y + y - 3/2"

    class Words:
        @staticmethod
        def to_str(c):
            return c

    assert terms.format_terms([((1, 0), "a - b"), ((0, 0), "c + d")], Words, render) \
        == "(a - b)*x + c + d"
