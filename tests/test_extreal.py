from fractions import Fraction

import pytest

from extreal import INF, ExtReal, ExtRealError, extreal_max, extreal_sum_weighted


def test_finite_arithmetic_is_exact():
    a = ExtReal(Fraction(1, 3))
    b = ExtReal(Fraction(1, 6))
    assert a + b == ExtReal(Fraction(1, 2))
    assert a * b == ExtReal(Fraction(1, 18))
    assert a - b == ExtReal(Fraction(1, 6))
    assert a / Fraction(1, 3) == ExtReal(1)


def test_infinity_absorbs_addition():
    assert ExtReal(5) + INF == INF
    assert INF + INF == INF
    assert (INF + ExtReal(3)).is_infinite


def test_multiplication_conventions():
    # positive * inf = inf, zero * inf = 0
    assert ExtReal(2) * INF == INF
    assert ExtReal(0) * INF == ExtReal(0)
    assert INF * ExtReal(0) == ExtReal(0)
    with pytest.raises(ExtRealError):
        ExtReal(-1) * INF


def test_order_with_infinity():
    assert ExtReal(7) <= INF
    assert INF <= INF
    assert not INF <= ExtReal(10**9)
    assert INF > ExtReal(0)
    assert extreal_max(ExtReal(3), INF) == INF


def test_subtracting_infinity_is_undefined():
    with pytest.raises(ExtRealError):
        ExtReal(1) - INF
    with pytest.raises(ExtRealError):
        INF - INF
    assert INF - ExtReal(5) == INF


def test_weighted_sum_finite_average():
    out = extreal_sum_weighted([(Fraction(1, 2), ExtReal(4)), (Fraction(1, 2), ExtReal(6))])
    assert out == ExtReal(5)


def test_weighted_sum_zero_weight_on_infinity_drops_out():
    out = extreal_sum_weighted([(Fraction(0), INF), (Fraction(1), ExtReal(3))])
    assert out == ExtReal(3)


def test_weighted_sum_positive_weight_on_infinity_is_infinite():
    out = extreal_sum_weighted([(Fraction(1, 4), INF), (Fraction(3, 4), ExtReal(1))])
    assert out == INF


def test_weighted_sum_rejects_negative_weights():
    with pytest.raises(ExtRealError):
        extreal_sum_weighted([(Fraction(-1, 2), ExtReal(1))])


def test_commutative_associative_on_finite():
    xs = [ExtReal(Fraction(i, 7)) for i in range(1, 6)]
    total = ExtReal(0)
    for x in xs:
        total = total + x
    rev = ExtReal(0)
    for x in reversed(xs):
        rev = x + rev
    assert total == rev


def test_division_rules():
    assert INF / 4 == INF
    assert ExtReal(6) / 3 == ExtReal(2)
    with pytest.raises(ExtRealError):
        ExtReal(1) / 0
    with pytest.raises(ExtRealError):
        ExtReal(1) / INF


def test_str_forms():
    assert str(ExtReal(Fraction(27, 2))) == "27/2"
    assert str(ExtReal(3)) == "3"
    assert str(INF) == "inf"
