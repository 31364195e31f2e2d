"""Shared helpers for the test suite: seeded random algebra elements."""

import os
import random

import virpoly
from virpoly.laurent import LaurentPoly
from virpoly.scalars import Scalar, sc
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
