"""Named verification suites: closed forms against the straightening oracle.

Each suite runs a documented finite grid and reports case counts with the
first counterexample, if any.  The suites deliberately pit two independent
routes against each other (closed formulas vs. the straightening engine,
power-sum polynomials vs. direct summation, triangular solves vs. the
corollary expressions), so a typo on either side surfaces as a mismatch.
"""

from __future__ import annotations

import random
from itertools import product

from .characters import RestrictedCharacter, single_root_character
from .densepoly import pdeg
from .errors import HypothesisViolation
from .faulhaber import faulhaber, faulhaber_sum, neg_faulhaber_sum
from .induced import (
    OmegaSpec,
    bracket_action_oracle,
    closed_form_bracket,
    dstep,
    dtilde,
    ell,
    get_engine,
    omega_iso_check,
    quotient_smalldegree,
    reduce_step,
    reduce_to_generator,
    _omega_equivariant,
)
from .scalars import Scalar, sc
from .tensor import counted_slice, general_tensor_map
from .virasoro import codim1_closure_check


def _indices(n: int, top: int, min_ell=None):
    """Nonzero multi-indices of length n and weight <= top."""
    ranges = [range(top + 1)] * n
    for s in product(*ranges):
        if 0 < sum(s) <= top:
            if min_ell is not None and ell(s) < min_ell:
                continue
            yield s


def _grid_character(lam, n: int, r: int):
    """All-ones polynomial of degree r (zero map for r = -1) at the root lam."""
    return single_root_character(lam, n, [sc(1)] * (r + 1))


def _grid(nmax: int, n_min: int):
    """The suites' character grid: (n, r, lam, mu, where) for n_min <= n <= nmax,
    -1 <= r < n and lam in {1, 2}, with ``where`` the case's {"n", "r", "lambda"}."""
    for n in range(n_min, nmax + 1):
        for r in range(-1, n):
            for lam in (1, 2):
                yield n, r, lam, _grid_character(lam, n, r), {"n": n, "r": r, "lambda": str(sc(lam))}


class _Recorder:
    def __init__(self, suite, parameters):
        self.report = {
            "suite": suite,
            "parameters": parameters,
            "cases": 0,
            "passed": 0,
            "failed": 0,
            "first_counterexample": None,
        }

    def record(self, ok: bool, detail):
        self.report["cases"] += 1
        if ok:
            self.report["passed"] += 1
        else:
            self.report["failed"] += 1
            if self.report["first_counterexample"] is None:
                self.report["first_counterexample"] = detail

    def done(self):
        if self.report["cases"] == 0:
            # a grid that ran no case has verified nothing
            self.report["failed"] += 1
            self.report["first_counterexample"] = {"empty_grid": "no cases ran"}
        return self.report


def suite_rep_root_power_comp1(nmax: int = 3, **_kw):
    rec = _Recorder(
        "repRootPowerComp1",
        {"nmax": nmax, "lambdas": ["1", "2"], "j": [-3, 3], "weight_max": 3},
    )
    for n, r, _lam, mu, where in _grid(nmax, 2):
        for s in _indices(n, 3, min_ell=1):
            m_lo = max(n, n + r + 1 - ell(s))
            for m in range(m_lo, n + r + 3):
                for j in range(-3, 4):
                    ok = closed_form_bracket(mu, j, m, s) == bracket_action_oracle(mu, j, m, s)
                    rec.record(ok, {**where, "s": list(s), "j": j, "m": m})
    return rec.done()


def suite_rep_root_power_comp3(nmax: int = 3, **_kw):
    rec = _Recorder(
        "repRootPowerComp3",
        {"nmax": nmax, "lambdas": ["1", "2"], "j": [-3, 3], "weight_max": 3},
    )
    control = 0
    for n, r, _lam, mu, where in _grid(nmax, 1):
        for s in _indices(n, 3):
            if ell(s) != 0:
                continue
            m_eq = n + r + s[0]
            for m in range(m_eq, m_eq + 3):
                if m == m_eq and r < 0:
                    continue  # the equality closed form needs mu != 0
                if m < n:
                    continue
                for j in range(-3, 4):
                    closed = closed_form_bracket(mu, j, m, s)
                    oracle = bracket_action_oracle(mu, j, m, s)
                    ok = closed == oracle
                    rec.record(ok, {**where, "s": list(s), "j": j, "m": m})
                    if ok and m == m_eq and s[0] != r:
                        alt = closed_form_bracket(mu, j, m, s, literal_denominator=True)
                        if alt != oracle:
                            control += 1
    report = rec.done()
    # the (n+s_0)! reading of the ambiguous factorial must disagree somewhere
    report["negative_control_mismatches"] = control
    if control == 0:
        report["failed"] += 1
        report["first_counterexample"] = {"negative_control": "no mismatch found"}
    return report


def suite_brack_tuple_size(nmax: int = 3, **_kw):
    rec = _Recorder(
        "brack-tupleSize",
        {"nmax": nmax, "lambdas": ["1", "2"], "j": [-3, 3], "weight_max": 3},
    )
    for n, r, _lam, mu, where in _grid(nmax, 1):
        for s in _indices(n, 3):
            for m in range(n + s[0], n + s[0] + 3):
                for j in range(-3, 4):
                    out = bracket_action_oracle(mu, j, m, s)
                    ok = all(sum(idx) < sum(s) for idx in out.terms)
                    rec.record(ok, {**where, "s": list(s), "j": j, "m": m})
    return rec.done()


def suite_reducedegree(nmax: int = 3, j_window: int = 16, **_kw):
    rec = _Recorder(
        "reducedegree",
        {"nmax": nmax, "lambdas": ["1", "2"], "weight_max": 3, "j_window": j_window},
    )
    for n, r, _lam, mu, where in _grid(nmax, 1):
        if r < max(n - 2, 0):
            continue  # the descent needs a nonzero character of degree >= n-2
        eng = get_engine(mu)
        for s in _indices(n, 3):
            v = eng.basis(s)
            try:
                (j, m), w = reduce_step(mu, v, j_window)
                target = dstep(s) if ell(s) > 0 else dtilde(s)
                ok = w.leading_index() == target
                if ok:
                    trace, final = reduce_to_generator(mu, v, j_window)
                    ok = len(trace) <= sum(s) + 3 and set(final.terms) == {eng.zero_index}
            except HypothesisViolation:
                ok = False
            rec.record(ok, {**where, "s": list(s)})
    return rec.done()


def suite_faulhaber(**_kw):
    rec = _Recorder("faulhaber", {"k_max": 10, "j_max": 25})
    for k in range(0, 11):
        # running direct sums of i^k and (-i)^k over 1 <= i <= j
        direct = direct_neg = Scalar(0)
        for j in range(1, 26):
            direct = direct + Scalar(j) ** k
            rec.record(faulhaber_sum(k, j) == direct, {"k": k, "j": j, "part": "i"})
            direct_neg = direct_neg + Scalar(-j) ** k
            rec.record(
                neg_faulhaber_sum(k, j) == direct_neg, {"k": k, "j": j, "part": "ii"}
            )
            if k >= 1:
                # the reflection identity itself, not just the sum values
                rec.record(
                    -faulhaber(k).evaluate(-j - 1) == direct_neg,
                    {"k": k, "j": j, "part": "ii-reflection"},
                )
    return rec.done()


def suite_degreehom(nmax: int = 3, **_kw):
    rec = _Recorder("degreehom", {"nmax": nmax, "lambdas": ["1", "2"], "j": [-3, 3]})
    for n, r, _lam, mu, where in _grid(nmax, 1):
        eng = get_engine(mu)
        for m in range(n, n + r + 3):
            ok = pdeg(mu.power_poly(m)) == max(n + r - m, -1)
            if ok:
                for j in range(-3, 4):
                    if mu.eval(eng.fpow(m).shift(j)) != mu.value_power(j, m):
                        ok = False
                        break
            rec.record(ok, {**where, "m": m})
    return rec.done()


def suite_codim1(**_kw):
    from .virasoro import VirElement, span_member

    rec = _Recorder("codim1", {"c": ["3", "1", "-1/2"], "ranges": [5, 8]})
    for c, span in (("3", 5), ("1", 8), ("-1/2", 5)):
        ok = codim1_closure_check(sc(c), range(-span, span + 1))
        rec.record(ok, {"c": c, "range": span})
    # negative controls: a bare e_0 is outside the span, and brackets land
    # outside a span of the wrong shape (gap 2 instead of 1)
    rec.record(
        not span_member(VirElement.e(0), sc(3)),
        {"control": "bare e_0 membership"},
    )
    bad = codim1_closure_check(sc(3), range(-4, 5), step=2, span_step=1)
    rec.record(not bad, {"c": "3", "step": 2, "expected": "membership failure"})
    return rec.done()


def suite_omega_iso(depth: int = 3, **_kw):
    rec = _Recorder("omega-iso", {"lambdas": ["1", "2", "1/2"], "b": ["0", "2", "-1"], "depth": depth})
    for lam in ("1", "2", "1/2"):
        for b in ("0", "2", "-1"):
            spec = OmegaSpec(sc(lam), sc(b))
            rec.record(omega_iso_check(spec, depth), {"lambda": lam, "b": b})
    # soundness control: a perturbed character must fail equivariance
    spec = OmegaSpec(sc(1), sc(2))
    wrong = single_root_character(sc(1), 1, [sc(1) * (sc(2) - sc(1)) + sc(1)])
    rec.record(
        not _omega_equivariant(spec, wrong, depth), {"control": "perturbed character"}
    )
    return rec.done()


def suite_smalldegree_quotient(**_kw):
    grid = [(2, -1), (3, 0), (4, 0), (4, 1)]
    rec = _Recorder("smalldegree-quotient", {"grid": grid, "lambdas": ["1", "2"], "j": [-4, 4]})
    for (n, r), lam in product(grid, (1, 2)):
        mu = _grid_character(lam, n, r)
        try:
            report, mu_prime = quotient_smalldegree(mu)
            if r < 0:
                ok = mu_prime.is_zero_map()
            else:
                _, _, q = mu_prime.root_data()
                ok = pdeg(q) == r + 1
                lam_s = sc(lam)
                p = mu.factors[0][2]
                for j in range(-6, 7):
                    if j == 0:
                        direct = Scalar(0)
                    elif j > 0:
                        part = sum((p.evaluate(i) for i in range(0, j)), Scalar(0))
                        direct = lam_s ** (j - 1) * part
                    else:
                        part = sum((p.evaluate(-i) for i in range(1, -j + 1)), Scalar(0))
                        direct = -(lam_s ** (j - 1)) * part
                    if mu_prime.value_power(j, n - 1) != direct:
                        ok = False
                        break
        except HypothesisViolation:
            ok = False
        rec.record(ok, {"n": n, "r": r, "lambda": str(sc(lam))})
    return rec.done()


def suite_muhat_split(seed: int = 0, **_kw):
    rec = _Recorder("muhat-split", {"m": [0, 1, 2], "deg_max": 3, "seed": seed})
    rng = random.Random(seed)
    configs = [
        [(sc(1), 1)],
        [(sc(2), 1)],
        [(sc(1), 2)],
        [(sc(1), 1), (sc(2), 1)],
        [(sc(1), 3)],
        [(sc(1), 2), (sc(2), 1)],
    ]
    for m in (0, 1, 2):
        for roots in configs:
            p = sum(n for _, n in roots)
            window = {
                j: sc(rng.randint(-4, 4))
                for j in range(m, 2 * m + p + 1)
            }
            z = sc(rng.randint(-3, 3))
            rc = RestrictedCharacter.from_window(roots, m, window, z)
            ddot, hat = rc.split_muhat()
            F = rc.ambient()
            ok = True
            for j in range(m, 2 * m + F.degree() + 1):
                hat_x = Scalar(0)
                for i, a in F.terms.items():
                    hat_x = hat_x + a * hat["window"].get(j + i, Scalar(0))
                if ddot.seq(j) + hat_x != rc.mu_x(j):
                    ok = False
                    break
            if ok:
                closed = rc.muhat_closed_forms()
                a0 = F[0]
                if m == 0:
                    ok = closed["hat_0"] == hat["window"][0]
                else:
                    ok = (
                        closed["hat_2m"] == hat["window"][2 * m]
                        and closed["hat_2m_minus_1"] == hat["window"][2 * m - 1]
                        and closed["hat_2m_minus_1_display"]
                        == a0**3 * hat["window"][2 * m - 1]
                    )
            rec.record(ok, {"m": m, "roots": [[str(l), n] for l, n in roots]})
    return rec.done()


def _tensor_map_sources():
    """The tensor-map suite's (kind, source) pairs."""
    parts = [
        single_root_character(sc(1), 1, [sc(1)]),
        single_root_character(sc(2), 1, [sc(1)]),
    ]
    rc = RestrictedCharacter.from_window(
        [(sc(1), 1)], 0, {0: sc(2), 1: sc(3)}, sc(5)
    )
    return [("polynomial", parts), ("restricted", rc)]


def check_tensor_map_depth(depth: int) -> None:
    """Raise the VirpolyError the tensor-map suite would raise at this depth,
    from the slice counts alone; they stop early, so this is cheap."""
    for kind, source in _tensor_map_sources():
        counted_slice(source, depth, kind)


def suite_tensor_map(depth: int = 3, **_kw):
    rec = _Recorder("tensor-map", {"depth": depth})
    for kind, source in _tensor_map_sources():
        rep = general_tensor_map(source, depth, kind=kind)
        rec.record(rep["passed"], {"kind": kind, "report": _strip(rep)})
    return rec.done()


def _strip(rep):
    return {k: v for k, v in rep.items() if k in ("rank", "expected_rank", "equivariance")}


SUITES = {
    "repRootPowerComp1": suite_rep_root_power_comp1,
    "repRootPowerComp3": suite_rep_root_power_comp3,
    "brack-tupleSize": suite_brack_tuple_size,
    "reducedegree": suite_reducedegree,
    "faulhaber": suite_faulhaber,
    "degreehom": suite_degreehom,
    "codim1": suite_codim1,
    "omega-iso": suite_omega_iso,
    "smalldegree-quotient": suite_smalldegree_quotient,
    "muhat-split": suite_muhat_split,
    "tensor-map": suite_tensor_map,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
