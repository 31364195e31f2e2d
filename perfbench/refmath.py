"""Reference arithmetic for the benchmark's known answers.

Exact Gaussian rationals as pairs of ``Fraction``s, and the few polynomial
helpers the checks need.  Nothing here imports virpoly, so a known answer
computed here is never golden output from the code under test.
"""

from __future__ import annotations

from fractions import Fraction


class G:
    """A Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def parse(obj) -> "G":
        """Read the program's scalar JSON: "p/q", an int, or {"re": .., "im": ..}."""
        if isinstance(obj, dict):
            return G(Fraction(obj.get("re", 0)), Fraction(obj.get("im", 0)))
        return G(Fraction(obj))

    def json(self):
        """Write the program's scalar JSON for this value."""
        if self.im == 0:
            return str(self.re)
        return {"re": str(self.re), "im": str(self.im)}

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, o):
        o = _g(o)
        return G(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _g(o)
        return G(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return G(-self.re, -self.im)

    def __mul__(self, o):
        o = _g(o)
        return G(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "G":
        n = self.re * self.re + self.im * self.im
        return G(self.re / n, -self.im / n)

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        out = G(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, o):
        o = _g(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"G({self.re}, {self.im})"


def _g(x) -> G:
    return x if isinstance(x, G) else G(x)


def poly_mul(a: dict, b: dict) -> dict:
    """Product of sparse Laurent polynomials exponent -> G."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, G(0)) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def linear_power(lam: G, n: int) -> dict:
    """(t - lam)^n as a sparse polynomial."""
    out = {0: G(1)}
    for _ in range(n):
        out = poly_mul(out, {1: G(1), 0: -lam})
    return out


def peval(p, x: int) -> G:
    """p(x) for a coefficient list p, constant term first."""
    out = G(0)
    for c in reversed(p):
        out = out * x + c
    return out


def exp_poly_value(factors, j: int) -> G:
    """sum_i p_i(j) lambda_i^j over factors (lambda, n, p)."""
    out = G(0)
    for lam, _n, p in factors:
        out = out + peval(p, j) * lam**j
    return out


def parse_factors(factors_json):
    """Factor list [(lambda, n, p)] from the program's character JSON."""
    return [
        (G.parse(f["lambda"]), int(f["n"]), [G.parse(c) for c in f.get("p", [])])
        for f in factors_json
    ]


def vir_bracket(a: dict, b: dict):
    """[a, b] in Vir for e-parts a, b (z is central, so z-parts drop out).

    [e_j, e_k] = (k - j) e_{j+k} + delta_{j,-k} (j^3 - j)/12 z; returns
    (e-part, z coefficient).
    """
    e = {}
    z = G(0)
    for j, x in a.items():
        for k, y in b.items():
            e[j + k] = e.get(j + k, G(0)) + x * y * (k - j)
            if j == -k:
                z = z + x * y * Fraction(j**3 - j, 12)
    return {i: c for i, c in e.items() if not c.is_zero()}, z
