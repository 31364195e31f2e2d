"""Exact scalars: elements of Q or of the Gaussian rationals Q(i).

Every coefficient in the package is a :class:`Scalar`.  Arithmetic is exact,
equality is decidable, and the canonical form is unique, so hash-based
containers behave correctly.

A Scalar is the integer triple (a, b, d) meaning (a + b*i)/d, with d > 0 and
gcd(a, b, d) == 1; zero is (0, 0, 1).  Each arithmetic result is brought to
that form with at most one three-way gcd on Python ints (Knuth, TAOCP vol. 2,
section 4.5.1), none when the denominator is 1 or for a rational power, and
a rational operand (b == 0) skips the imaginary products.  ``Fraction``
reads string operands and serves the ``re``/``im`` views and the output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


# The one spelling of a scalar part in JSON: [+-]digits or [+-]digits/digits.
_JSON_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

# The operand types a Scalar operator converts; for any other it returns
# NotImplemented, so the other operand (a vector scaled from the left) may act.
_OPERANDS = (int, Fraction, str)
_new = object.__new__


def _make(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d of a triple already in canonical form."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _reduced(a: int, b: int, d: int) -> "Scalar":
    """The Scalar (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


class Scalar:
    """A Gaussian rational (a + b*i)/d in lowest terms, on Python ints.

    Plain rationals are the b == 0 case; the working field (Q or Q(i)) is a
    parse-time restriction, not a separate type.  ``re`` and ``im`` read the
    parts as reduced Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = _frac(re)
        im = _frac(im)
        # With both parts reduced, their lcm leaves gcd(a, b, d) == 1.
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_json(obj) -> "Scalar":
        """Parse "p/q" (rational) or {"re": "p/q", "im": "r/s"} (Gaussian).

        Each part is a string of an optional sign, decimal digits and an
        optional "/digits".  Anything else, numbers, booleans, decimals,
        exponents, spaces and zero denominators included, is malformed
        input and raises ValueError, and so does a part with more digits
        than Python converts.
        """
        parts = (obj.get("re", "0"), obj.get("im", "0")) if isinstance(obj, dict) else (obj, "0")
        matches = [_JSON_SCALAR.fullmatch(x) if isinstance(x, str) else None for x in parts]
        if not all(matches):
            raise ValueError(f"bad scalar JSON: {obj!r}")
        # p/q + (r/s) i = (p s + r q i)/(q s)
        (p, q), (r, s) = ((int(m[1]), int(m[2] or 1)) for m in matches)
        if not (q and s):
            raise ValueError(f"bad scalar JSON: {obj!r}")
        return _reduced(p * s, r * q, q * s)

    def to_json(self):
        if self._b == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def power_bits(self) -> int:
        """ceil(log2(|a| + |b|)) + ceil(log2 d): a bound on the bits that each
        unit of k adds to the integers of self**k, zero for 1, -1, i and -i."""
        return (abs(self._a) + abs(self._b) - 1).bit_length() + (self._d - 1).bit_length()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar(other)
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                return _make(self._a + other._a, self._b + other._b, 1)
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar(other)
        return self + -other

    def __rsub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return Scalar(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar(other)
        a, b = self._a, self._b
        c, e = other._a, other._b
        if e == 0:
            re, im = a * c, b * c
        elif b == 0:
            re, im = a * c, a * e
        else:
            re, im = a * c - b * e, a * e + b * c
        d = self._d * other._d
        if d == 1:
            return _make(re, im, 1)
        return _reduced(re, im, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, _OPERANDS):
                return NotImplemented
            other = Scalar(other)
        a, b = self._a, self._b
        c, e, f = other._a, other._b, other._d
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero Scalar")
            # ((a + b i)/d) / (c/f) = (a f + b f i)/(d c)
            re, im, d = a * f, b * f, self._d * c
        else:
            # ((a + b i)/d) / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
            re, im, d = (a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e)
        if d < 0:
            re, im, d = -re, -im, -d
        return _reduced(re, im, d)

    def __rtruediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return Scalar(other) / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Scalar powers must be integers")
        x = self if k >= 0 else ONE / self
        if x._b:
            # a Gaussian power still needs reducing: ((1 + i)/2)**2 = i/2
            return power(x, abs(k), ONE)
        # the powers of a rational in lowest terms are in lowest terms
        return _make(x._a ** abs(k), 0, x._d ** abs(k))

    def conjugate(self) -> "Scalar":
        return _make(self._a, -self._b, self._d)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, int):
                return self._b == 0 and self._d == 1 and self._a == other
            if not isinstance(other, (Fraction, str)):
                return NotImplemented
            other = sc(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        if self._b == 0:
            return f"Scalar({str(self.re)!r})"
        return f"Scalar({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self):
        if self._b == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


ZERO = Scalar(0)
ONE = Scalar(1)


def power(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply, shared by Scalars and Laurent polynomials.

    Nothing is multiplied by ``one`` and x is not squared past the top bit of
    k, so k = 1 takes no product, k = 2 one and k = 8 three.
    """
    if k == 0:
        return one
    while not k & 1:
        x = x * x
        k >>= 1
    out = x
    k >>= 1
    while k:
        x = x * x
        if k & 1:
            out = out * x
        k >>= 1
    return out


def order_keys(xs) -> list:
    """Integer keys ordered as (re, im) of the Scalars xs: each one's numerators
    over the common denominator of xs, so no Fraction is built."""
    d = lcm(*[x._d for x in xs])
    return [(x._a * (d // x._d), x._b * (d // x._d)) for x in xs]


def json_map(obj, what: str) -> dict:
    """obj itself when it is a JSON object; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def json_field(obj, key: str, what: str):
    """obj[key] for a JSON object obj that holds key; else ValueError naming
    the missing field and what it belongs to."""
    obj = json_map(obj, what)
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


def json_int(obj, what: str) -> int:
    """obj itself when it is a JSON integer; floats, bools and strings raise ValueError."""
    if type(obj) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {obj!r}")
    return obj


def json_index(key: str, what: str) -> int:
    """The integer a JSON object key spells in canonical decimal ("-3", not "-03", "+3" or " 3")."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ValueError(f"{what} must be a canonical decimal integer key, not {key!r}")


def json_list(obj, what: str) -> list:
    """obj itself when it is a JSON array; anything else raises ValueError."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON array, not {type(obj).__name__}")
    return obj


def sc(x) -> Scalar:
    """The one coercion to ``Scalar``, used throughout the package and the tests."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, _OPERANDS):
        return Scalar(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")
