"""Exact scalars: elements of Q or of the Gaussian rationals Q(i).

Every coefficient in the package is a :class:`Scalar`.  Arithmetic is exact,
equality is decidable, and the canonical form (reduced real and imaginary
parts) is unique, so hash-based containers behave correctly.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class Scalar:
    """A Gaussian rational re + im*i with exact Fraction parts.

    Plain rationals are the im == 0 case; the working field (Q or Q(i)) is a
    parse-time restriction, not a separate type.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction, str)):
            return Scalar(_frac(x))
        raise TypeError(f"cannot coerce {x!r} to Scalar")

    @staticmethod
    def from_json(obj) -> "Scalar":
        """Parse "p/q" (rational) or {"re": "p/q", "im": "r/s"} (Gaussian).

        Anything else, floats and zero denominators included, is malformed
        input and raises ValueError.
        """
        parts = (obj.get("re", 0), obj.get("im", 0)) if isinstance(obj, dict) else (obj, 0)
        try:
            return Scalar(*parts)
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar JSON: {obj!r}") from exc

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_rational(self) -> bool:
        return self.im == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        other = Scalar.coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Scalar powers must be integers")
        if k < 0:
            return (Scalar(1) / self) ** (-k)
        out = Scalar(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"Scalar({str(self.re)!r})"
        return f"Scalar({str(self.re)!r}, {str(self.im)!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"{self.re}+{self.im}i"


ZERO = Scalar(0)
ONE = Scalar(1)


def json_map(obj, what: str) -> dict:
    """obj itself when it is a JSON object; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def json_int(obj, what: str) -> int:
    """obj itself when it is a JSON integer; floats, bools and strings raise ValueError."""
    if type(obj) is not int:
        raise ValueError(f"{what} must be a JSON integer, not {obj!r}")
    return obj


def json_list(obj, what: str) -> list:
    """obj itself when it is a JSON array; anything else raises ValueError."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a JSON array, not {type(obj).__name__}")
    return obj


def sc(x) -> Scalar:
    """Shorthand coercion used throughout the package and the tests."""
    return Scalar.coerce(x)
