import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from virpoly.scalars import ONE, Scalar, power, sc


def test_rational_arithmetic_exact():
    a = sc("2/3")
    b = sc("1/6")
    assert a + b == sc("5/6")
    assert a - b == sc("1/2")
    assert a * b == sc("1/9")
    assert a / b == sc(4)
    assert -a == sc("-2/3")


def test_gaussian_arithmetic():
    i = Scalar(0, 1)
    assert i * i == sc(-1)
    a = Scalar("1/2", "3/2")
    b = Scalar(2, -1)
    assert a * b == Scalar("1/2", "3/2") * b
    # division is exact: (a / b) * b == a
    assert (a / b) * b == a
    assert a.conjugate() == Scalar("1/2", "-3/2")


def test_powers_include_negative():
    a = sc("2/3")
    assert a**3 == sc("8/27")
    assert a**-2 == sc("9/4")
    assert Scalar(0, 2) ** -1 == Scalar(0, "-1/2")


@pytest.mark.parametrize("x", [sc("-2/3"), Scalar("1/2", "-3")], ids=["Q", "Qi"])
def test_powers_match_repeated_products(x):
    for k in (-3, 0, 1, 2, 5):
        want = sc(1)
        for _ in range(abs(k)):
            want = want * x
        if k < 0:
            want = sc(1) / want
        assert x**k == want, k


@pytest.mark.parametrize(
    "x",
    [sc("3/5"), sc("-2/3"), sc(-7), sc("-1"), sc("12/35"), Scalar(1, 1) / 2, Scalar("1/2", "-3"), Scalar(0, 1)],
    ids=str,
)
def test_powers_match_square_and_multiply(x):
    # a rational power is built from the integer powers of its parts; it
    # must be the canonical value that square-and-multiply reduces to
    for k in list(range(-7, 8)) + [64, 99, -99]:
        want = power(x, k, ONE) if k >= 0 else power(ONE / x, -k, ONE)
        got = x**k
        assert got == want and hash(got) == hash(want), k
        assert got.to_json() == want.to_json()


def test_gaussian_powers_are_reduced():
    assert (Scalar(1, 1) / 2) ** 2 == Scalar(0, "1/2")
    assert (Scalar(1, 1) / 2) ** -2 == Scalar(0, -2)


def test_powers_of_zero():
    assert sc(0) ** 0 == 1 and sc(0) ** 3 == 0
    with pytest.raises(ZeroDivisionError):
        sc(0) ** -1


def test_zero_division_rejected():
    with pytest.raises(ZeroDivisionError):
        sc(1) / sc(0)


def test_json_round_trip():
    for s in [sc("3/4"), sc(-2), Scalar("1/3", "-5/7")]:
        assert Scalar.from_json(s.to_json()) == s
    assert sc(3).to_json() == "3"
    assert Scalar(0, 1).to_json() == {"re": "0", "im": "1"}


def test_hash_consistency():
    assert hash(sc("2/4")) == hash(sc("1/2"))
    assert len({sc(1), sc("2/2"), Scalar(1, 0)}) == 1


# -- property test against an independent two-Fraction reference --------------


class Ref:
    """re + im*i on two Fractions, with the textbook formulas."""

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def conj(self):
        return Ref(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def power(self, k):
        out = Ref(1)
        base = self if k >= 0 else Ref(1) / self
        for _ in range(abs(k)):
            out = out * base
        return out


DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12, 35, 10**12 + 39)


def random_fraction(rng):
    top = rng.choice((5, 40, 10**15))
    return Fraction(rng.randint(-top, top), rng.choice(DENOMINATORS))


def random_pair(rng, gaussian):
    """The same random value as a Scalar and as a Ref."""
    re = random_fraction(rng)
    im = random_fraction(rng) if gaussian else Fraction(0)
    if rng.random() < 0.5:
        return Scalar(re, im), Ref(re, im)
    return Scalar(str(re), str(im)), Ref(re, im)


def assert_same(s, r):
    assert isinstance(s, Scalar)
    assert (s.re, s.im) == (r.re, r.im)
    for part in (s.re, s.im):
        assert type(part) is Fraction
        assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1
    expected = str(r.re) if r.im == 0 else {"re": str(r.re), "im": str(r.im)}
    assert s.to_json() == expected
    assert s.is_rational() == (r.im == 0)
    assert s.is_zero() == r.is_zero()
    assert s == Scalar(r.re, r.im) and hash(s) == hash(Scalar(r.re, r.im))


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
def test_arithmetic_matches_fraction_reference(gaussian):
    rng = random.Random(20240917 + gaussian)
    for _ in range(400):
        (x, rx), (y, ry) = random_pair(rng, gaussian), random_pair(rng, rng.random() < 0.5)
        assert_same(x, rx)
        assert_same(x + y, rx + ry)
        assert_same(x - y, rx - ry)
        assert_same(x * y, rx * ry)
        assert_same(-x, Ref(0) - rx)
        assert_same(x.conjugate(), rx.conj())
        if not ry.is_zero():
            assert_same(x / y, rx / ry)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        k = rng.randint(-4, 4)
        if k >= 0 or not rx.is_zero():
            assert_same(x**k, rx.power(k))
        q = random_fraction(rng)
        assert_same(x + q, rx + Ref(q))
        assert_same(q - x, Ref(q) - rx)
        assert_same(x * q.numerator, rx * Ref(q.numerator))
        if not rx.is_zero():
            assert_same(q.numerator / x, Ref(q.numerator) / rx)


def test_canonical_form_is_route_independent():
    half = [sc("2/4"), sc(1) / sc(2), sc(3) / 6, 1 / sc(2), sc("1/3") + sc("1/6")]
    half.append(Scalar(Fraction(5, 10)))
    assert all(h == half[0] and hash(h) == hash(half[0]) for h in half)
    g = Scalar("1/2", "1/2")
    gaussian = [Scalar(1, 1) / 2, sc(1) / Scalar(1, -1), Scalar("3/6", "2/4"), Scalar(2, 2) * sc("1/4")]
    assert all(v == g and hash(v) == hash(g) for v in gaussian)
    zero = [sc(0), sc("0/5"), g - g, Scalar(0, 0) * g, Scalar(-3, 4) - Scalar(-3, 4)]
    assert all(z == 0 and hash(z) == hash(sc(0)) and z.to_json() == "0" for z in zero)
    # A reduced real part over an imaginary one with a larger denominator.
    assert Scalar(1, "1/2").to_json() == {"re": "1", "im": "1/2"}
    assert (Scalar("1/4", "1/2") * 2).to_json() == {"re": "1/2", "im": "1"}


def test_equality_with_python_numbers():
    assert sc("4/2") == 2 and sc(2) == Fraction(4, 2) and sc("1/2") == "2/4"
    assert sc("1/2") != 1 and Scalar(1, 1) != 1 and Scalar(1, 1) != Fraction(1)
    assert (sc(1) == object()) is False


def test_parts_are_read_only():
    with pytest.raises(AttributeError):
        sc(1).re = Fraction(2)


@pytest.mark.parametrize(
    "text, want",
    [("3/4", (3, 4)), ("-2", (-2, 1)), ("+5", (5, 1)), ("007/014", (1, 2)), ("-0/9", (0, 1))],
)
def test_json_parts_read_as_fractions(text, want):
    assert Scalar.from_json(text) == Scalar(Fraction(*want))
    assert Scalar.from_json({"re": "1/3", "im": text}) == Scalar(Fraction(1, 3), Fraction(*want))


@pytest.mark.parametrize(
    "bad",
    [
        "1/0", "0/0", {"re": "1", "im": "1/0"}, {"re": "2/00", "im": "1"},
        "1e3", "1.5", " 1", "1 ", "1/2/3", "/2", "2/", "--1", "1/+2", "6/-0", "", "i", "١",
        1, 1.5, None, [], {"re": 1}, {"im": ["1"]},
        {"re": "2", "im": "1", "x": 0}, {"real": "1"},
    ],
    ids=repr,
)
def test_malformed_scalars_are_refused(bad):
    with pytest.raises(ValueError, match="^bad scalar JSON: "):
        Scalar.from_json(bad)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string limit")
@pytest.mark.parametrize("form", ["{}", "1/{}", "-{}/7", "re:{}", "im:1/{}"])
def test_scalar_digits_stay_limited(form):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    text = form.split(":")[-1].format(digits)
    obj = {form.split(":")[0]: text} if ":" in form else text
    with pytest.raises(ValueError, match="Exceeds the limit"):
        Scalar.from_json(obj)
    short = "7" * sys.get_int_max_str_digits()
    assert Scalar.from_json(form.split(":")[-1].format(short)) != 0


def test_booleans_are_not_scalars():
    for bad in (True, False, {"re": False, "im": True}, {"re": "1", "im": True}):
        with pytest.raises(ValueError):
            Scalar.from_json(bad)
    with pytest.raises(TypeError):
        Scalar(True)
