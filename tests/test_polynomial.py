import pytest

from klpoly.polynomial import ONE, Q, ZERO, IntPolynomial, geometric_sum


def test_trailing_zeros_trimmed():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == ()
    assert not IntPolynomial([])


def test_degree_and_coefficients():
    p = IntPolynomial([1, 0, 3])
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(2) == 3
    assert p.coefficient(99) == 0
    assert p.coefficient(0) == 1
    assert ZERO.degree == -1


def test_addition_and_subtraction():
    one_plus_q = IntPolynomial([1, 1])
    one_minus_q = IntPolynomial([1, -1])
    assert one_plus_q + one_minus_q == IntPolynomial([2])
    assert one_plus_q + one_minus_q == 2
    assert one_plus_q - one_plus_q == ZERO
    assert one_plus_q - 1 == Q
    assert 1 - one_plus_q == -Q
    assert sum([ONE, Q, Q]) == IntPolynomial([1, 2])


def test_adding_zero_returns_the_other_operand():
    p = IntPolynomial([1, -2, 3])
    assert p + ZERO is p
    assert ZERO + p is p
    assert p - ZERO is p
    assert p + 0 is p
    assert 0 + p is p
    assert p - 0 is p
    # Every other result is a new polynomial with the same value as before.
    assert ZERO - p == IntPolynomial([-1, 2, -3])
    assert ZERO + ZERO == ZERO and ZERO - ZERO == ZERO
    assert p - p == ZERO
    assert p + 1 == IntPolynomial([2, -2, 3])
    assert 5 + ZERO == IntPolynomial([5])


def test_multiplication():
    one_plus_q = IntPolynomial([1, 1])
    assert one_plus_q * Q == IntPolynomial([0, 1, 1])
    assert one_plus_q * one_plus_q == IntPolynomial([1, 2, 1])
    assert one_plus_q * 0 == ZERO
    assert 3 * one_plus_q == IntPolynomial([3, 3])
    assert ZERO * one_plus_q == ZERO


def test_shift():
    assert IntPolynomial([1, 1]).shift(2) == IntPolynomial([0, 0, 1, 1])
    assert IntPolynomial([1, 1]).shift(0) == IntPolynomial([1, 1])
    assert ZERO.shift(5) == ZERO
    with pytest.raises(ValueError):
        ONE.shift(-1)


def test_q_power():
    assert ONE.shift(0) == ONE
    assert ONE.shift(1) == Q
    assert ONE.shift(3).coeffs == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        ONE.shift(-2)


def test_str_formatting():
    assert str(IntPolynomial([1, 2, 1])) == "1 + 2q + q^2"
    assert str(ZERO) == "0"
    assert str(IntPolynomial([1, -1])) == "1 - q"
    assert str(IntPolynomial([-1])) == "-1"
    assert str(Q) == "q"
    assert str(IntPolynomial([0, 0, 0, 2])) == "2q^3"
    assert str(IntPolynomial([0, -3, 0, 1])) == "-3q + q^3"
    assert str(IntPolynomial([1, 0, 5])) == "1 + 5q^2"


def test_equality_and_hash():
    assert IntPolynomial([1, 1]) == IntPolynomial((1, 1))
    assert IntPolynomial([5]) == 5
    assert ZERO == 0
    assert IntPolynomial([1, 1]) != IntPolynomial([1])
    assert hash(IntPolynomial([1, 1])) == hash(IntPolynomial([1, 1, 0]))
    assert {ONE, IntPolynomial([1])} == {ONE}


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        IntPolynomial([1.5])
    with pytest.raises(TypeError):
        IntPolynomial(["1"])


def test_geometric_sum():
    assert geometric_sum(0) == ONE
    assert geometric_sum(2) == IntPolynomial([1, 1, 1])
    with pytest.raises(ValueError):
        geometric_sum(-1)


def test_to_list_round_trip():
    p = IntPolynomial([1, 0, -2])
    assert p.to_list() == [1, 0, -2]
    assert IntPolynomial(p.to_list()) == p


def test_repr_is_evaluable():
    p = IntPolynomial([1, 4, 1])
    assert eval(repr(p)) == p
