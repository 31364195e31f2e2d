"""Index polynomials: the p with mu(t^j f^n) = p(j) lambda^j.

An index polynomial lives in the exponent variable j, not in the Laurent
variable t, but it is the same kind of object: a ``LaurentPoly`` with
support >= 0, so its ring operations and ``evaluate`` are the shared
kernel's.  This module keeps only what index polynomials need beyond the
ring: the reader from the constant-first coefficient list, the degree
(-1 for zero), the translation p(x) -> p(x + a) and the JSON list form.
"""

from __future__ import annotations

from math import comb

from .laurent import LaurentPoly
from .scalars import Scalar, sc
from .sparse import accumulate


def index_poly(coeffs) -> LaurentPoly:
    """The polynomial sum_d coeffs[d] x^d; a ``LaurentPoly`` is returned unchanged."""
    if isinstance(coeffs, LaurentPoly):
        return coeffs
    return LaurentPoly(dict(enumerate(coeffs)))


def pdeg(p: LaurentPoly) -> int:
    return max(p.terms, default=-1)


def pshift(p: LaurentPoly, a) -> LaurentPoly:
    """Compose with a translation: p(x + a), by the binomial expansion.

    The closed forms reach this through ``power_poly``; it stays apart from
    ``laurent.taylor``, which the straightening engine reads, so the two
    routes that the verify suites compare share no expansion.
    """
    a = sc(a)
    out = {}
    for d, c in p.terms.items():
        # c * (x + a)^d
        accumulate(out, {t: c * comb(d, t) * a ** (d - t) for t in range(d + 1)})
    return LaurentPoly(out)


def p_to_json(p: LaurentPoly):
    return [p[d].to_json() for d in range(pdeg(p) + 1)]


def p_from_json(obj) -> LaurentPoly:
    return index_poly([Scalar.from_json(c) for c in obj])
