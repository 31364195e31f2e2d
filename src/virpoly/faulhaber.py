"""Bernoulli numbers and Faulhaber power-sum polynomials, exact.

Convention: B_1 = -1/2 (the "first" Bernoulli numbers), via the recurrence
sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1 with B_0 = 1.  With this sign,

    P_k(t) = 1/(k+1) * sum_{i=0}^{k} (-1)^i C(k+1, i) B_i t^(k+1-i)

satisfies P_k(j) = 1^k + 2^k + ... + j^k for j >= 1, and the companion
identity sum_{i=1}^{j} (-i)^k = -P_k(-j-1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .laurent import LaurentPoly
from .scalars import Scalar


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n as exact Fractions, B_1 = -1/2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [Fraction(1)]
    for m in range(1, n + 1):
        s = Fraction(0)
        for j in range(m):
            s += comb(m + 1, j) * out[j]
        out.append(-s / (m + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def faulhaber(k: int) -> LaurentPoly:
    """The degree k+1 power-sum polynomial P_k, a ``LaurentPoly`` with support >= 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    bern = bernoulli_numbers(k)
    return LaurentPoly(
        {k + 1 - i: Fraction((-1) ** i * comb(k + 1, i), k + 1) * bern[i] for i in range(k + 1)}
    )


def faulhaber_sum(k: int, j: int) -> Scalar:
    """P_k(j); equals sum_{i=1}^{j} i^k for j >= 1 and 0 at j = 0."""
    return faulhaber(k).evaluate(j)


def neg_faulhaber_sum(k: int, j: int) -> Scalar:
    """sum_{i=1}^{j} (-i)^k, via the reflection -P_k(-j-1) for k >= 1.

    The reflection identity needs k >= 1 (it rests on the odd Bernoulli
    numbers above B_1 vanishing); for k = 0 the sum is plainly P_0(j) = j.
    """
    if k == 0:
        return faulhaber(0).evaluate(j)
    return -faulhaber(k).evaluate(-j - 1)
