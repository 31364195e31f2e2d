import random

import pytest

from conftest import rand_laurent, rand_scalar
from virpoly.errors import BadModulus, NotCoprime, NotDivisible
from virpoly.laurent import (
    LaurentPoly,
    ZERO_POLY,
    bezout,
    divide_exact,
    f_adic_decompose,
    lie_bracket,
    linear_factor,
    taylor,
)
from virpoly.scalars import Scalar, sc


def t(k, c=1):
    return LaurentPoly({k: c})


def test_coefficients_are_read_by_exponent_not_iterated():
    p = LaurentPoly({0: 1, 2: 3})
    assert [p[e] for e in range(3)] == [sc(1), sc(0), sc(3)]
    for consume in (list, any, tuple):
        with pytest.raises(TypeError):
            consume(p)


def test_powers_skip_the_unit_and_the_last_square(monkeypatch):
    f = linear_factor(sc("-3/2"))
    want = [LaurentPoly({0: 1})]
    for _ in range(8):
        want.append(want[-1] * f)
    mul = LaurentPoly.__mul__
    products = []

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    for k, count in ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)):
        products.clear()
        assert f**k == want[k], k
        assert len(products) == count, k


class TestLieBracket:
    def test_monomials(self):
        assert lie_bracket(t(2), t(3)) == t(5)
        assert lie_bracket(t(0), t(1)) == t(1)

    def test_monomial_law(self):
        # [t^j, t^k] = (k - j) t^(j+k)
        for j in range(-8, 9):
            for k in range(-8, 9):
                assert lie_bracket(t(j), t(k)) == t(j + k, k - j)

    def test_antisymmetry_on_self(self):
        rng = random.Random(7)
        for _ in range(30):
            f = rand_laurent(rng)
            assert lie_bracket(f, f).is_zero()

    def test_jacobi_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            f, g, h = (rand_laurent(rng) for _ in range(3))
            total = (
                lie_bracket(lie_bracket(f, g), h)
                + lie_bracket(lie_bracket(g, h), f)
                + lie_bracket(lie_bracket(h, f), g)
            )
            assert total.is_zero()


def termwise(p, x):
    """The value at x as the sum of c x^e over the terms."""
    return sum((c * x**e for e, c in p.terms.items()), Scalar(0))


class TestEvaluate:
    def test_matches_termwise_sum(self):
        rng = random.Random(211)
        xs = [sc(2), sc(-1), sc("1/3"), sc("-5/2"), Scalar(1, 1), Scalar("1/2", -2), Scalar(0, 1)]
        for _ in range(60):
            gaussian = rng.random() < 0.5

            def coeff():
                im = Scalar(0, rng.randint(-2, 2)) if gaussian else 0
                return rand_scalar(rng) + im

            # sparse support: exponents spread over a wide range, both signs
            p = LaurentPoly({rng.randint(-12, 12): coeff() for _ in range(rng.randint(1, 5))})
            for x in xs:
                assert p.evaluate(x) == termwise(p, x), (p, x)

    def test_shapes(self):
        x = Scalar(2, -1)
        cases = [
            LaurentPoly(),
            t(0, 7),
            t(1),
            t(-1),
            t(9, "2/3"),
            t(-7, Scalar(0, 1)),
            LaurentPoly({-3: 1, 0: 2, 5: -1}),
            LaurentPoly({-10: 1, -9: 1}),
            LaurentPoly({20: 1, 0: 1}),
        ]
        for p in cases:
            for y in (x, sc(3), sc(1), sc(-1)):
                assert p.evaluate(y) == termwise(p, y), (p, y)

    def test_at_zero(self):
        assert LaurentPoly({0: 5, 2: 1}).evaluate(0) == sc(5)
        assert LaurentPoly({1: 5, 2: 1}).evaluate(0) == sc(0)
        assert LaurentPoly().evaluate(0) == sc(0)
        for p in (t(-1), LaurentPoly({-2: 1, 3: 1}), LaurentPoly({-1: 1, 0: 1})):
            with pytest.raises(ZeroDivisionError):
                p.evaluate(0)


class TestDerivative:
    def test_examples(self):
        assert t(3).derivative() == t(2, 3)
        assert t(0).derivative().is_zero()
        assert t(-1).derivative() == t(-2, -1)


class TestDivideExact:
    def test_polynomial_case(self):
        g = LaurentPoly({2: 1, 0: -1})  # t^2 - 1
        d = linear_factor(1)
        assert divide_exact(g, d) == LaurentPoly({1: 1, 0: 1})

    def test_zero_dividend(self):
        assert divide_exact(ZERO_POLY, linear_factor(1)).is_zero()

    def test_negative_valuation(self):
        d = linear_factor(1) ** 2
        g = d.shift(-1)
        q = divide_exact(g, d)
        assert q == t(-1)
        assert q * d == g

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            divide_exact(t(1) + t(0), linear_factor(1))

    def test_random_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            q = rand_laurent(rng, -4, 4)
            d = rand_laurent(rng, -2, 3)
            if d.is_zero():
                continue
            g = q * d
            assert divide_exact(g, d) == q


class TestTaylor:
    def test_inverse_of_t(self):
        # t^-1 = sum_i (-1)^i lam^(-1-i) (t - lam)^i near lam
        for lam in (sc(2), sc("-1/3"), Scalar(1, 1)):
            assert taylor(t(-1), lam, 5) == [sc(-1) ** i * lam ** (-1 - i) for i in range(5)]

    def test_constant_coefficient_is_the_value(self):
        rng = random.Random(23)
        for lam in (sc(1), sc(-2), sc("3/2"), Scalar(2, -1)):
            for _ in range(20):
                g = rand_laurent(rng, -5, 5)
                assert taylor(g, lam, 3)[0] == g.evaluate(lam)


class TestFAdicDecompose:
    def test_spec_examples(self):
        f = linear_factor(1)
        w, tail = f_adic_decompose(t(2), f, 2)
        assert w == (sc(1), sc(2)) and tail == t(0)
        w, tail = f_adic_decompose(t(-1), f, 2)
        assert w == (sc(1), sc(-1)) and tail == t(-1)
        # g = f^n: window zero, tail one
        w, tail = f_adic_decompose(f**3, f, 3)
        assert all(c.is_zero() for c in w) and tail == t(0)

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            f_adic_decompose(t(1), t(1), 1)  # zero constant term
        with pytest.raises(BadModulus):
            f_adic_decompose(t(1), LaurentPoly({1: 2, 0: 1}), 1)  # not monic
        with pytest.raises(BadModulus):
            f_adic_decompose(t(1), linear_factor(1), 0)
        with pytest.raises(BadModulus):
            f_adic_decompose(t(1), LaurentPoly({2: 1, 0: 1}), 1)  # monic quadratic

    def test_round_trip_random(self):
        rng = random.Random(17)
        lams = [sc(1), sc(2), sc(-1), sc("1/2"), sc(-3), Scalar(1, 1), Scalar(2, -1)]
        for _ in range(200):
            f = linear_factor(rng.choice(lams))
            n = rng.randint(1, 4)
            g = rand_laurent(rng, -5, 5)
            window, tail = f_adic_decompose(g, f, n)
            recomb = tail * f**n
            fp = t(0)
            for c in window:
                recomb = recomb + fp * c
                fp = fp * f
            assert recomb == g


class TestBezout:
    def test_examples(self):
        u, v = bezout(linear_factor(1), linear_factor(2))
        assert u == t(0) and v == t(0, -1)
        u, v = bezout(t(2), linear_factor(1))
        assert u * t(2) + v * linear_factor(1) == t(0)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            bezout(linear_factor(1), linear_factor(1))

    def test_random_coprime_pairs(self):
        rng = random.Random(5)
        lams = [sc(1), sc(2), sc(-1), sc(3), sc("1/2"), sc(-2)]
        for _ in range(40):
            split = rng.randint(1, len(lams) - 1)
            picks = rng.sample(lams, len(lams))
            a = t(0)
            for lam in picks[:split][: rng.randint(1, 3)]:
                a = a * linear_factor(lam) ** rng.randint(1, 2)
            b = t(0)
            for lam in picks[split:][: rng.randint(1, 3)]:
                b = b * linear_factor(lam) ** rng.randint(1, 2)
            if a.degree() == 0 and b.degree() == 0:
                continue
            u, v = bezout(a, b)
            assert u * a + v * b == t(0)
            assert max(a.degree(), b.degree()) <= 6
