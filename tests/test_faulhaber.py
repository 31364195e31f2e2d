from fractions import Fraction

from virpoly.densepoly import index_poly, pdeg
from virpoly.faulhaber import (
    bernoulli_numbers,
    faulhaber,
    faulhaber_sum,
    neg_faulhaber_sum,
)
from virpoly.scalars import Scalar, sc


def test_bernoulli_convention():
    b = bernoulli_numbers(6)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)


def test_p1_and_small_sums():
    p1 = faulhaber(1)
    assert p1 == index_poly([0, sc("1/2"), sc("1/2")])  # (t^2 + t)/2
    assert faulhaber_sum(1, 3) == sc(6)
    assert faulhaber_sum(2, 3) == sc(14)
    assert neg_faulhaber_sum(2, 3) == sc(14)


def test_degree_and_constant_term():
    for k in range(1, 9):
        pk = faulhaber(k)
        assert pdeg(pk) == k + 1
        assert pk[0].is_zero()


def test_sums_match_direct_summation():
    for k in range(0, 11):
        for j in range(1, 26):
            direct = sum((Scalar(i) ** k for i in range(1, j + 1)), Scalar(0))
            assert faulhaber_sum(k, j) == direct
            direct_neg = sum((Scalar(-i) ** k for i in range(1, j + 1)), Scalar(0))
            assert neg_faulhaber_sum(k, j) == direct_neg


def test_reflection_identity():
    # sum (-i)^k = -P_k(-j-1) needs k >= 1
    for k in range(1, 11):
        for j in range(1, 12):
            direct = sum((Scalar(-i) ** k for i in range(1, j + 1)), Scalar(0))
            assert -faulhaber(k).evaluate(-j - 1) == direct
