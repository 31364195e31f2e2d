"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is equality on exact
scalars; run with -s to watch the per-criterion lines.
"""

import functools
import json
import random
import subprocess
import sys
import time
from itertools import product

from conftest import cli_env, mbar_excluded_bruteforce, rand_laurent, rand_vir
from virpoly.characters import (
    RestrictedCharacter,
    compose,
    decompose,
    single_root_character,
)
from virpoly.densepoly import pdeg
from virpoly.faulhaber import faulhaber, faulhaber_sum, neg_faulhaber_sum
from virpoly.induced import (
    OmegaSpec,
    bracket_action_oracle,
    closed_form_bracket,
    ell,
    get_engine,
    omega_iso_check,
    quotient_smalldegree,
    reduce_to_generator,
)
from virpoly.laurent import LaurentPoly, lie_bracket
from virpoly.scalars import Scalar, sc
from virpoly.tailmod import (
    TailModuleSpec,
    kac_h,
    kac_phi,
    mbar_simple,
)
from virpoly.tensor import (
    TensorElement,
    TensorSpec,
    cyclic_reduce,
    general_tensor_map,
    tensor_act,
)
from virpoly.verify import run_suite
from virpoly.virasoro import VirElement, vir_bracket


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL")
                raise
            print(f"criterion {num:2d} ({name}): PASS")

        return wrapper

    return deco


def ones(lam, n, r):
    return single_root_character(lam, n, [1] * (r + 1) if r >= 0 else [])


def small_indices(n, top=3):
    for s in product(range(top + 1), repeat=n):
        if 0 < sum(s) <= top:
            yield s


@criterion(1, "Lie and representation axioms")
def test_c01_axioms():
    start = time.time()
    rng = random.Random(0)
    for _ in range(200):
        f, g, h = (rand_laurent(rng, -6, 6) for _ in range(3))
        total = (
            lie_bracket(lie_bracket(f, g), h)
            + lie_bracket(lie_bracket(g, h), f)
            + lie_bracket(lie_bracket(h, f), g)
        )
        assert total.is_zero()
    for _ in range(200):
        x, y, z = (rand_vir(rng, -6, 6) for _ in range(3))
        total = (
            vir_bracket(vir_bracket(x, y), z)
            + vir_bracket(vir_bracket(y, z), x)
            + vir_bracket(vir_bracket(z, x), y)
        )
        assert total.is_zero()
    # induced action, n <= 3, |s| <= 3
    chars = [ones(1, 1, 0), ones(2, 2, 0), ones(2, 2, 1), ones(-1, 3, 1), ones(1, 3, 2)]
    for i in range(200):
        mu = chars[i % len(chars)]
        _, n, _ = mu.root_data()
        eng = get_engine(mu)
        x, y = rand_vir(rng, -4, 4), rand_vir(rng, -4, 4)
        idx = [0] * n
        for _ in range(rng.randint(0, 3)):
            idx[rng.randrange(n)] += 1
        v = eng.basis(tuple(idx))
        lhs = eng.act_vir(x, eng.act_vir(y, v)) - eng.act_vir(y, eng.act_vir(x, v))
        assert lhs == eng.act_vir(vir_bracket(x, y), v)
    # tensor action, k <= 2, |s| <= 2, all tail families
    tails = [
        TailModuleSpec.trivial(),
        TailModuleSpec.verma(sc(2), sc(1)),
        TailModuleSpec.mbar(sc(3)),
        TailModuleSpec.whittaker(1, {2: sc(1)}, sc("1/2")),
    ]
    spec = TensorSpec([ones(1, 1, 0), ones(2, 2, 1)], tails[0])
    for i in range(200):
        tail = tails[i % len(tails)]
        spec = TensorSpec([ones(1, 1, 0), ones(2, 2, 1)], tail)
        x, y = rand_vir(rng, -3, 3), rand_vir(rng, -3, 3)
        weights = [0] * 3
        for _ in range(rng.randint(0, 2)):
            weights[rng.randrange(3)] += 1
        parts = ((weights[0],), (weights[1], weights[2]))
        mono = ()
        if not tail.is_trivial() and rng.random() < 0.5:
            mono = (tail.m - rng.randint(1, 3),)
        v = TensorElement({parts + (mono,): 1})
        lhs = tensor_act(spec, x, tensor_act(spec, y, v)) - tensor_act(
            spec, y, tensor_act(spec, x, v)
        )
        assert lhs == tensor_act(spec, vir_bracket(x, y), v)
    assert time.time() - start < 30


_GRID_CACHE = {}


def _closed_form_grid():
    """(mu, j, m, s) with the lemma hypotheses, n <= 3, r < n, |s| <= 3, |j| <= 4."""
    if "grid" in _GRID_CACHE:
        return _GRID_CACHE["grid"]
    out = []
    for n in range(1, 4):
        for r in range(-1, n):
            for lam in (1, 2):
                mu = ones(lam, n, r)
                for s in small_indices(n):
                    l = ell(s)
                    if l > 0:
                        lo = max(n, n + r + 1 - l)
                    else:
                        lo = n + r + s[0] + (1 if r < 0 else 0)
                    for m in range(lo, lo + 3):
                        for j in range(-4, 5):
                            out.append((mu, j, m, s))
    _GRID_CACHE["grid"] = out
    return out


@criterion(2, "closed-form bracket grid with negative control")
def test_c02_closed_form_grid():
    start = time.time()
    mismatches = 0
    control = 0
    for mu, j, m, s in _closed_form_grid():
        closed = closed_form_bracket(mu, j, m, s)
        oracle = bracket_action_oracle(mu, j, m, s)
        if closed != oracle:
            mismatches += 1
        _, n, p = mu.root_data()
        if ell(s) == 0 and m == n + pdeg(p) + s[0] and s[0] != pdeg(p):
            alt = closed_form_bracket(mu, j, m, s, literal_denominator=True)
            if alt != oracle:
                control += 1
    assert mismatches == 0
    assert control > 0  # the literal factorial reading must fail somewhere
    assert time.time() - start < 60


@criterion(3, "index size bound")
def test_c03_size_bound():
    for mu, j, m, s in _closed_form_grid():
        _, n, _ = mu.root_data()
        if m < n + s[0]:
            continue
        out = bracket_action_oracle(mu, j, m, s)
        assert all(sum(idx) < sum(s) for idx in out.terms)


@criterion(4, "linear-factor simplicity boundary")
def test_c04_linear_boundary():
    for lam in (1, 2, -1):
        mu = single_root_character(lam, 1, [3])
        eng = get_engine(mu)
        for s0 in range(1, 5):
            trace, final = reduce_to_generator(mu, eng.basis((s0,)))
            assert set(final.terms) == {(0,)}
    mu0 = single_root_character(1, 1, [])
    eng0 = get_engine(mu0)
    for k in range(-4, 5):
        for s0 in range(1, 5):
            out = eng0.act(LaurentPoly({k: 1}), eng0.basis((s0,)))
            assert all(idx[0] >= 1 for idx in out.terms)


@criterion(5, "polynomial-realization isomorphism")
def test_c05_omega_iso():
    for lam in ("1", "2", "1/2"):
        for b in ("0", "2", "-1"):
            assert omega_iso_check(OmegaSpec(sc(lam), sc(b)), 3)


@criterion(6, "small-degree quotient")
def test_c06_quotient():
    for n, r in [(2, -1), (3, 0), (4, 0), (4, 1)]:
        for lam_int in (1, 2):
            lam = sc(lam_int)
            mu = ones(lam_int, n, r)
            report, mu_prime = quotient_smalldegree(mu)
            assert report.get("eigen_ok")
            if r < 0:
                assert mu_prime.is_zero_map()
                continue
            _, _, q = mu_prime.root_data()
            assert pdeg(q) == r + 1
            p = mu.factors[0][2]
            # positive and negative partial sums meet the same polynomial,
            # through the power-sum reflection
            for j in range(-6, 7):
                if j == 0:
                    want = Scalar(0)
                elif j > 0:
                    want = lam ** (j - 1) * sum(
                        (p.evaluate(i) for i in range(0, j)), Scalar(0)
                    )
                else:
                    want = -(lam ** (j - 1)) * sum(
                        (p.evaluate(-i) for i in range(1, -j + 1)), Scalar(0)
                    )
                assert mu_prime.value_power(j, n - 1) == want


@criterion(7, "power sums")
def test_c07_faulhaber():
    for k in range(0, 11):
        for j in range(1, 26):
            direct = sum((Scalar(i) ** k for i in range(1, j + 1)), Scalar(0))
            assert faulhaber_sum(k, j) == direct
            direct_neg = sum((Scalar(-i) ** k for i in range(1, j + 1)), Scalar(0))
            assert neg_faulhaber_sum(k, j) == direct_neg
            if k >= 1:
                assert -faulhaber(k).evaluate(-j - 1) == direct_neg


@criterion(8, "tensor simplicity, both directions")
def test_c08_tensor():
    shapes = [((1, 0), (1, 0)), ((2, 0), (1, 0)), ((2, 1), (2, 0))]
    for l1, l2 in [(1, 2), (1, -1)]:
        for (n1, r1), (n2, r2) in shapes:
            spec = TensorSpec([ones(l1, n1, r1), ones(l2, n2, r2)])
            for s in product(range(3), repeat=n1 + n2):
                if not 0 < sum(s) <= 2:
                    continue
                w = TensorElement({(s[:n1], s[n1:], ()): 1})
                trace, final = cyclic_reduce(spec, w)
                assert all(not any(p0) for key in final.terms for p0 in key[:-1])
    # the non-simple direction: small-degree factor leaves a proper invariant slice
    spec = TensorSpec([ones(1, 3, 0), ones(2, 1, 0)])
    for k in range(-4, 5):
        x = VirElement.e(k)
        for s in product(range(2), repeat=4):
            if s[2] < 1 or sum(s) > 2:
                continue
            v = TensorElement({(s[:3], s[3:], ()): 1})
            out = tensor_act(spec, x, v)
            assert all(key[0][2] >= 1 for key in out.terms)


@criterion(9, "decomposition and hat-split round trips")
def test_c09_round_trips():
    rng = random.Random(9)
    pool = [sc(1), sc(2), sc(-1), sc(3), sc("1/2")]
    for _ in range(25):
        k = rng.randint(1, 3)
        lams = rng.sample(pool, k)
        parts = []
        for lam in lams:
            n = rng.randint(1, 3)
            deg = rng.randint(-1, n - 1)
            p = [sc(rng.randint(-3, 3)) for _ in range(deg)] + (
                [sc(rng.choice([1, 2, -1]))] if deg >= 0 else []
            )
            parts.append(single_root_character(lam, n, p))
        comp = compose(parts)
        back = decompose(comp)
        key = lambda m: (m.factors[0][0].re, m.factors[0][0].im)
        assert [b.factors for b in back] == [m.factors for m in sorted(parts, key=key)]
    configs = [[(sc(1), 1)], [(sc(2), 1)], [(sc(1), 2)], [(sc(1), 1), (sc(2), 1)], [(sc(1), 3)]]
    for m in (0, 1, 2):
        for roots in configs:
            p = sum(n for _, n in roots)
            window = {j: sc(rng.randint(-4, 4)) for j in range(m, 2 * m + p + 1)}
            rc = RestrictedCharacter.from_window(roots, m, window, sc(rng.randint(-3, 3)))
            ddot, hat = rc.split_muhat()
            F = rc.ambient()
            a0 = F[0]
            for j in range(m, 2 * m + p + 1):
                hat_xj = Scalar(0)
                for i, a in F.terms.items():
                    hat_xj = hat_xj + a * hat["window"].get(j + i, Scalar(0))
                assert ddot.seq(j) + hat_xj == rc.mu_x(j)
            closed = rc.muhat_closed_forms()
            if m == 0:
                assert closed["hat_0"] == hat["window"][0]
            elif m >= 1:
                assert closed["hat_2m"] == hat["window"][2 * m]
                assert closed["hat_2m_minus_1"] == hat["window"][2 * m - 1]
                # the displayed corollary value differs by the cube of the
                # constant coefficient, so nonzeroness agrees
                assert closed["hat_2m_minus_1_display"] == a0**3 * hat["window"][2 * m - 1]


@criterion(10, "literature criteria")
def test_c10_literature():
    rng = random.Random(10)
    for _ in range(10):
        c = sc(rng.randint(-20, 20)) / sc(rng.randint(1, 9))
        assert kac_phi(1, 1, c, sc(0)).is_zero()
    assert kac_phi(2, 1, sc(1), sc("1/4")).is_zero()
    assert kac_h(2, 1, sc(1))["sum"] == sc("1/2")
    samples = [sc(0), sc(1)]
    for _ in range(30):
        samples.append(sc(rng.randint(-30, 30)) / sc(rng.randint(1, 12)))
    assert not mbar_simple(sc(0))
    assert mbar_simple(sc(1))
    for c in samples:
        assert mbar_simple(c) == (not mbar_excluded_bruteforce(c, 50))


@criterion(11, "induction isomorphism slices")
def test_c11_tensor_map():
    parts = [single_root_character(1, 1, [1]), single_root_character(2, 1, [1])]
    rep = general_tensor_map(parts, 3, kind="polynomial")
    assert rep["passed"]
    rc = RestrictedCharacter.from_window([(1, 1)], 0, {0: sc(2), 1: sc(3)}, sc(5))
    rep = general_tensor_map(rc, 3, kind="restricted")
    assert rep["passed"]


@criterion(12, "deterministic reports")
def test_c12_determinism():
    a = json.dumps(run_suite("muhat-split", seed=3), sort_keys=True)
    b = json.dumps(run_suite("muhat-split", seed=3), sort_keys=True)
    assert a == b
    cmd = [sys.executable, "-m", "virpoly.cli", "verify", "--suite", "codim1", "--seed", "2"]
    out1 = subprocess.run(cmd, capture_output=True, check=True, env=cli_env()).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True, env=cli_env()).stdout
    assert out1 == out2
