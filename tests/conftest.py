"""Shared helpers for the test suite: seeded random algebra elements, a dense
rank, the pivot rows of an ``Echelon`` written out and an enumeration oracle
for the excluded central charges of the mbar tail."""

import os
import random
from fractions import Fraction
from math import gcd

import virpoly
from virpoly.laurent import LaurentPoly
from virpoly.scalars import ONE, Scalar, sc
from virpoly.virasoro import VirElement


def cli_env() -> dict:
    """The environment for a ``python -m virpoly.cli`` child: it finds virpoly
    where this process did, whether or not PYTHONPATH was set."""
    src = os.path.dirname(os.path.dirname(virpoly.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def rand_scalar(rng: random.Random, num=4, den=(1, 2, 3)) -> Scalar:
    return sc(rng.randint(-num, num)) / sc(rng.choice(den))


def rand_laurent(rng: random.Random, lo=-6, hi=6, terms=3) -> LaurentPoly:
    out = {}
    for _ in range(terms):
        out[rng.randint(lo, hi)] = rand_scalar(rng)
    return LaurentPoly(out)


def rand_vir(rng: random.Random, lo=-6, hi=6, terms=2, with_z=True) -> VirElement:
    e = {}
    for _ in range(terms):
        e[rng.randint(lo, hi)] = rand_scalar(rng)
    z = rand_scalar(rng) if with_z else 0
    return VirElement(e, z)


def dense_rank(vectors) -> int:
    """Exact rank of sparse vectors by dense Gaussian elimination.

    A reference that shares no code with ``sparse.Echelon``: each vector is
    laid out as a list over the columns in order of first appearance and
    reduced left to right against one pivot per column, kept as the
    (column, value) pairs of its nonzero entries.  It stops once every
    column holds a pivot, since the rank can grow no further.
    """
    vectors = list(vectors)
    cols = list(dict.fromkeys(k for v in vectors for k in v))
    where = {k: j for j, k in enumerate(cols)}
    zero = Scalar(0)
    pivots = {}  # column j -> the nonzero entries of a row with 1 at j, zeros before it
    for v in vectors:
        if len(pivots) == len(cols):
            break
        row = [zero] * len(cols)
        for k, c in v.items():
            row[where[k]] = c
        for j in range(len(cols)):
            c = row[j]
            if c.is_zero():
                continue
            p = pivots.get(j)
            if p is None:
                inv = ONE / c
                pivots[j] = [(i, row[i] * inv) for i in range(j, len(cols)) if not row[i].is_zero()]
                break
            for i, b in p:
                row[i] = row[i] - c * b
    return len(pivots)


def pivots_of(ech) -> dict:
    """A fresh map from each label of an ``Echelon``, in arrival order, to its
    pivot row, a unit row written out as {label: ONE}."""
    return {label: ech.row(label) for label in ech.labels}


def mbar_excluded_bruteforce(c, bound: int) -> bool:
    """Direct enumeration oracle: is c = 1 - 6(p-q)^2/(pq) for coprime p, q >= 2?"""
    c = sc(c)
    if not c.is_rational():
        return False
    for p in range(2, bound + 1):
        for q in range(2, bound + 1):
            if gcd(p, q) != 1:
                continue
            if c.re == 1 - Fraction(6 * (p - q) ** 2, p * q):
                return True
    return False
