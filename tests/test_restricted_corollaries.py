"""Simplicity of b_m^F-induced modules through their tensor realizations.

For each family the verdict must agree with the closed-form conditions read
directly off the character window: the Kac scan at the hat weight for m = 0,
the excluded-charge criterion for m = -1, and nonvanishing of the two top
hat values for m >= 1 (equivalently the displayed window combinations, which
differ only by powers of the constant coefficient).
"""

import random

from virpoly.characters import RestrictedCharacter
from virpoly.scalars import Scalar, sc
from virpoly.tailmod import mbar_simple, verma_simple_upto
from virpoly.tensor import restricted_to_tensor, simplicity_verdict

ROOT_CONFIGS = [
    [(sc(1), 1)],
    [(sc(2), 1)],
    [(sc(1), 2)],
    [(sc(1), 1), (sc(2), 1)],
    [(sc(1), 1), (sc(-1), 2)],
]


def random_restricted(rng, roots, m):
    p = sum(n for _, n in roots)
    window = {j: sc(rng.randint(-4, 4)) for j in range(m, 2 * m + p + 1)}
    return RestrictedCharacter.from_window(roots, m, window, sc(rng.randint(-6, 6)))


def window_sum(rc, base):
    F = rc.ambient()
    out = Scalar(0)
    for i, a in F.terms.items():
        out = out + a * rc.mu_x(base + i)
    return out


def test_verma_family_m0():
    rng = random.Random(14)
    for roots in ROOT_CONFIGS:
        for _ in range(6):
            rc = random_restricted(rng, roots, 0)
            spec, extra = restricted_to_tensor(rc)
            assert spec.tail.kind == "verma"
            a0 = rc.ambient()[0]
            hat0 = window_sum(rc, 0) / (a0 * a0)
            assert spec.tail.psi(0) == hat0
            rep = simplicity_verdict(spec, kac_level=10)
            direct = verma_simple_upto(hat0, rc.z_value, 10)["simple"]
            ddot_large = all(f["large_degree"] for f in rep["factors"])
            zero_linear = any(f["zero_linear_factor"] for f in rep["factors"])
            assert rep["simple"] == (direct and ddot_large and not zero_linear)


def test_quotient_family_m_minus_1():
    rng = random.Random(15)
    for roots in ROOT_CONFIGS:
        for _ in range(6):
            rc = random_restricted(rng, roots, -1)
            spec, extra = restricted_to_tensor(rc)
            assert spec.tail.kind == "mbar"
            assert spec.tail.c == rc.z_value
            rep = simplicity_verdict(spec)
            ddot_large = all(f["large_degree"] for f in rep["factors"])
            zero_linear = any(f["zero_linear_factor"] for f in rep["factors"])
            assert rep["simple"] == (
                mbar_simple(rc.z_value) and ddot_large and not zero_linear
            )
    # hit the excluded set on the nose
    excluded = sc(1) - sc(6) / sc(6)  # (p, q) = (2, 3) gives charge 0
    rc = RestrictedCharacter.from_window([(sc(1), 1)], -1, {-1: sc(1)}, excluded)
    spec, _ = restricted_to_tensor(rc)
    assert not simplicity_verdict(spec)["simple"]


def test_whittaker_family_m_ge_1():
    rng = random.Random(16)
    for roots in ROOT_CONFIGS:
        for m in (1, 2):
            for _ in range(6):
                rc = random_restricted(rng, roots, m)
                spec, extra = restricted_to_tensor(rc)
                assert spec.tail.kind == "whittaker"
                closed = rc.muhat_closed_forms()
                a0 = rc.ambient()[0]
                # corollary window combinations, before dividing by a0 powers
                s2 = window_sum(rc, 2 * m)
                s1 = window_sum(rc, 2 * m - 1)
                display = a0 * s1 - 2 * rc.ambient()[1] * s2
                assert closed["hat_2m"] == s2 / (a0 * a0)
                assert closed["hat_2m_minus_1_display"] == display
                tail_simple_direct = (not s2.is_zero()) or (not display.is_zero())
                rep = simplicity_verdict(spec)
                assert rep["tail"]["simple"] == tail_simple_direct
                ddot_large = all(f["large_degree"] for f in rep["factors"])
                zero_linear = any(f["zero_linear_factor"] for f in rep["factors"])
                assert rep["simple"] == (
                    tail_simple_direct and ddot_large and not zero_linear
                )


def test_hat_values_feed_the_tail_exactly():
    rng = random.Random(17)
    for m in (1, 2):
        rc = random_restricted(rng, [(sc(1), 1), (sc(2), 1)], m)
        spec, _ = restricted_to_tensor(rc)
        _, hat = rc.split_muhat()
        for j in range(m, 2 * m + 1):
            assert spec.tail.psi(j) == hat["window"][j]
        assert spec.tail.psi(2 * m + 1) == Scalar(0)
