"""Laurent polynomials over exact scalars, with the Witt Lie bracket.

A Laurent polynomial is a finite map exponent -> Scalar with no stored
zeros.  The same objects serve as the associative algebra C[t^+-] and, via
``lie_bracket``, as the Witt algebra [f, g] = t(fg' - gf').
"""

from __future__ import annotations

from math import comb

from .errors import BadModulus, NotCoprime, NotDivisible
from .scalars import ONE, ZERO, Scalar, json_index, json_map, power, sc
from .sparse import SparseVector, accumulate


class LaurentPoly(SparseVector):
    """Immutable sparse Laurent polynomial, exponent -> Scalar in ``terms``; the
    container operations come from ``SparseVector``, the ring product from here."""

    __slots__ = ()

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_json(obj) -> "LaurentPoly":
        obj = json_map(obj, "a Laurent polynomial")
        return LaurentPoly({json_index(e, "an exponent"): Scalar.from_json(c) for e, c in obj.items()})

    def to_json(self):
        return {str(e): self.terms[e].to_json() for e in sorted(self.terms)}

    # -- basic structure --------------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero Laurent polynomial is undefined")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("valuation of the zero Laurent polynomial is undefined")
        return min(self.terms)

    def is_polynomial(self) -> bool:
        """True when the support is nonnegative (an element of C[t])."""
        return not self.terms or min(self.terms) >= 0

    def is_monic_nonzero_const(self) -> bool:
        """Monic element of C[t] of degree >= 1 with nonzero constant term."""
        return (
            not self.is_zero()
            and self.is_polynomial()
            and self.degree() >= 1
            and self.terms[self.degree()] == ONE
            and 0 in self.terms
        )

    def leading_coeff(self) -> Scalar:
        return self.terms[self.degree()]

    def __getitem__(self, e: int) -> Scalar:
        return self.terms.get(e, Scalar(0))

    # __getitem__ answers every exponent, so the fallback iteration would never stop
    __iter__ = None

    def evaluate(self, x) -> Scalar:
        """The value at x, by Horner's rule over the descending exponents.

        The gaps between exponents are powers of x, and the least exponent
        is applied last, so x = 0 with negative support divides by zero.
        """
        x = sc(x)
        terms = self.terms
        if not terms:
            return Scalar(0)
        exps = sorted(terms, reverse=True)
        prev = exps[0]
        out = terms[prev]
        for e in exps[1:]:
            gap = prev - e
            out = out * (x if gap == 1 else x**gap) + terms[e]
            prev = e
        return out * x**prev if prev else out

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return super().__mul__(other)
        out = {}
        for e1, c1 in self.terms.items():
            accumulate(out, {e1 + e2: c2 for e2, c2 in other.terms.items()}, c1)
        return LaurentPoly.adopt(out)

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative Laurent polynomial powers not supported")
        return power(self, k, ONE_POLY)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly.adopt({e + k: c for e, c in self.terms.items()})

    def derivative(self) -> "LaurentPoly":
        """Termwise t^n -> n t^(n-1)."""
        return LaurentPoly({e - 1: c * e for e, c in self.terms.items() if e != 0})


ZERO_POLY = LaurentPoly()
ONE_POLY = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})


def linear_factor(lam) -> LaurentPoly:
    """The monic linear polynomial t - lam."""
    return LaurentPoly({1: ONE, 0: -sc(lam)})


def lie_bracket(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Witt bracket [f, g] = t (f g' - g f').

    On monomials this is [t^j, t^k] = (k - j) t^(j+k).
    """
    return (f * g.derivative() - g * f.derivative()).shift(1)


def poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Quotient and remainder in C[t]; both arguments must have support >= 0."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("poly_divmod needs nonnegative support")
    q = {}
    r = dict(a.terms)
    db = b.degree()
    lb = b.leading_coeff()
    while r and max(r) >= db:
        dr = max(r)
        c = r[dr] / lb
        q[dr - db] = c
        accumulate(r, {dr - db + e: bc for e, bc in b.terms.items()}, -c)
    return LaurentPoly(q), LaurentPoly(r)


def divide_exact(g: LaurentPoly, d: LaurentPoly) -> LaurentPoly:
    """Return q with q d = g, or raise NotDivisible.

    Valuations are cleared first, so divisibility is tested in C[t] after
    both arguments are shifted to have nonzero constant term.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if g.is_zero():
        return ZERO_POLY
    vg, vd = g.valuation(), d.valuation()
    q, r = poly_divmod(g.shift(-vg), d.shift(-vd))
    if not r.is_zero():
        raise NotDivisible("remainder is nonzero after clearing valuations")
    return q.shift(vg - vd)


def bezout(a: LaurentPoly, b: LaurentPoly):
    """Cofactors (u, v) in C[t] with u a + v b = 1 for coprime a, b (extended Euclid)."""
    if a.is_zero() or b.is_zero():
        raise ValueError("bezout needs nonzero polynomials")
    if not (a.is_polynomial() and b.is_polynomial()):
        raise ValueError("bezout needs nonnegative support")
    r0, r1 = a, b
    u0, u1 = ONE_POLY, ZERO_POLY
    v0, v1 = ZERO_POLY, ONE_POLY
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.degree() != 0:
        raise NotCoprime(f"gcd has degree {r0.degree()}")
    inv = ONE / r0.leading_coeff()
    return u0 * inv, v0 * inv


def t_inverse_mod(modulus: LaurentPoly) -> LaurentPoly:
    """Inverse of t modulo a polynomial with nonzero constant term."""
    u, _ = bezout(T, modulus)
    return u


def taylor(g: LaurentPoly, lam, order: int) -> list:
    """The first ``order`` Taylor coefficients of g at lam != 0.

    a_i = sum_j g_j C(j, i) lam^(j-i), with the generalized binomial
    C(j, i) = j (j-1) ... (j-i+1) / i! = (-1)^i C(i-j-1, i) for j < 0, so
    that g minus sum(a_i (t - lam)^i, i < order) is divisible by
    (t - lam)^order (the Taylor shift, Knuth, TAOCP vol. 2, 4.6.4).  A
    term's powers lam^(j-i) are one power of lam multiplied up by lam.
    """
    lam = sc(lam)
    out = [ZERO] * order
    for j, c in g.terms.items():
        # C(j, i) vanishes for 0 <= j < i
        top = order - 1 if j < 0 else min(order - 1, j)
        term = c * lam ** (j - top)
        for i in range(top, -1, -1):
            b = comb(j, i) if j >= 0 else (-1) ** i * comb(i - j - 1, i)
            x = term if b == 1 else term * b
            out[i] = x if out[i] is ZERO else out[i] + x
            if i:
                term = term * lam
    return out


def f_adic_decompose(g: LaurentPoly, f: LaurentPoly, n: int):
    """Write g = sum(window[i] f^i, i < n) + tail * f^n for f = t - lambda.

    This is the coordinate expression of g in the basis
    {t^j f^n : j in Z} united with {f^0, ..., f^(n-1)}; f must be monic and
    linear with nonzero constant term.  The window is the first n Taylor
    coefficients of g at lambda, and the tail is the exact quotient of what
    is left by f^n.
    """
    if n < 1:
        raise BadModulus("n must be a positive integer")
    if not f.is_monic_nonzero_const() or f.degree() != 1:
        raise BadModulus("f must be t - lambda with lambda nonzero")
    window = taylor(g, -f[0], n)
    recomb = ZERO_POLY
    fp = ONE_POLY
    for c in window:
        recomb = recomb + fp * c
        fp = fp * f
    tail = divide_exact(g - recomb, fp)
    return tuple(window), tail
