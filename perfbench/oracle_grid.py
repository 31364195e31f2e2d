"""Workloads ``oracle-grid`` (roots in Q) and ``oracle-grid-qi`` (roots in Q(i)).

A run walks rounds of 30 blocks, each round from cold caches.  A round
visits the 30 shapes (family, n, r) in a fixed order; each block draws
a single-root character of that shape (root and polynomial from the seed)
and takes at most ``CASES_PER_BLOCK`` evenly spaced cases from the family's
grid, the same grids the ``repRootPowerComp1``, ``repRootPowerComp3``,
``brack-tupleSize`` and ``reducedegree`` verify suites walk.  The cases are
the same for every seed, so seeds differ only in their characters.  One op
is one case.  Both fields consume the seeded stream identically, so a seed gives
the same shapes and cases in Q and in Q(i); only the scalars differ.
"""

from __future__ import annotations

import random
from itertools import product

import common
from common import Op

CASES_PER_BLOCK = 12
ROUNDS = 12
J_WINDOW = 16

# Roots of comparable size in each field (no +-1, whose powers are free, and
# no fractions), so that a round costs about the same whichever roots a seed
# draws.
ROOTS = {
    "Q": ["2", "-2", "3", "-3", "4", "-4", "5", "-5"],
    "Qi": [{"re": str(a), "im": str(b)}
           for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1), (2, 1), (2, -1), (1, 2), (-1, 2))],
}
COEFFS = (-3, -2, -1, 0, 1, 2, 3)
LEAD = (-3, -2, -1, 1, 2, 3)


def _ell(s) -> int:
    return next(i for i, v in enumerate(s) if v)


def _indices(n: int, top: int = 3):
    """Nonzero multi-indices of length n and weight <= top, as the suites use."""
    return [s for s in product(range(top + 1), repeat=n) if 0 < sum(s) <= top]


def shapes():
    """The 30 (family, n, r) shapes of the nmax = 3 suites, in round order."""
    out = []
    for n in (2, 3):
        out += [("comp1", n, r) for r in range(-1, n)]
    for fam in ("comp3", "brack"):
        for n in (1, 2, 3):
            out += [(fam, n, r) for r in range(-1, n)]
    for n in (1, 2, 3):
        out += [("reduce", n, r) for r in range(max(n - 2, 0), n)]
    return out


def grid(fam: str, n: int, r: int):
    """Every case of one family for a character of shape (n, r)."""
    if fam == "comp1":
        return [
            [*s, m, j]
            for s in _indices(n)
            if _ell(s) >= 1
            for m in range(max(n, n + r + 1 - _ell(s)), n + r + 3)
            for j in range(-3, 4)
        ]
    if fam == "comp3":
        out = []
        for s in _indices(n):
            if _ell(s) != 0:
                continue
            m_eq = n + r + s[0]
            for m in range(m_eq, m_eq + 3):
                if (m == m_eq and r < 0) or m < n:
                    continue
                out += [[*s, m, j] for j in range(-3, 4)]
        return out
    if fam == "brack":
        return [
            [*s, m, j]
            for s in _indices(n)
            for m in range(n + s[0], n + s[0] + 3)
            for j in range(-3, 4)
        ]
    return [list(s) for s in _indices(n)]


def _scalar(field: str, a: int, b: int):
    return str(a) if field == "Q" else {"re": str(a), "im": str(b)}


def generate(seed: int, field: str) -> dict:
    """The seeded plan: ROUNDS rounds of one block per shape."""
    rng = random.Random(f"oracle-grid:{seed}")
    cases = {}
    for fam, n, r in shapes():
        full = grid(fam, n, r)
        cases[fam, n, r] = full[::max(1, len(full) // CASES_PER_BLOCK)][:CASES_PER_BLOCK]
    rounds = []
    for _ in range(ROUNDS):
        blocks = []
        for fam, n, r in shapes():
            lam = ROOTS[field][rng.randrange(len(ROOTS[field]))]
            p = []
            for k in range(r + 1):
                a = rng.choice(LEAD if k == r else COEFFS)
                p.append(_scalar(field, a, rng.choice(COEFFS)))
            blocks.append({"family": fam, "n": n, "r": r, "lambda": lam, "p": p,
                           "cases": cases[fam, n, r]})
        rounds.append(blocks)
    return {"workload": "oracle-grid" if field == "Q" else "oracle-grid-qi",
            "field": field, "seed": seed, "rounds": rounds}


class State:
    """Run-level tallies of the negative control."""

    def __init__(self):
        self.control_checked = 0
        self.control_mismatches = 0


def prepare(vp, plan, workdir):
    return State()


def finish(state):
    """The literal (n+s_0)! reading must mismatch at least once per run."""
    detail = {"checked": state.control_checked, "mismatches": state.control_mismatches}
    return [("negative_control", state.control_mismatches > 0, detail)]


def unit(vp, plan, state):
    """One group per block, round after round.

    The caches are reset at the start of every round, so each round runs
    cold and memory stays bounded by one round however many rounds a run
    completes.
    """
    return [lambda block=block, fresh=k == 0: _block_ops(vp, block, state, fresh)
            for blocks in plan["rounds"] for k, block in enumerate(blocks)]


def _block_ops(vp, block, state, fresh):
    if fresh:
        common.reset_caches(vp)
    Scalar = vp.scalars.Scalar
    mu = vp.characters.single_root_character(
        Scalar.from_json(block["lambda"]), block["n"],
        [Scalar.from_json(c) for c in block["p"]],
    )
    fam, n, r = block["family"], block["n"], block["r"]
    label = f"{fam}/n{n}/r{r}"
    ops = []
    for case in block["cases"]:
        if fam == "reduce":
            ops.append(Op(label, _reduce_run(vp, mu, tuple(case)), _expect_true))
            continue
        s, m, j = tuple(case[:n]), case[n], case[n + 1]
        if fam == "brack":
            ops.append(Op(label, _weight_run(vp, mu, s, m, j), _expect_true))
        else:
            control = fam == "comp3" and m == n + r + s[0] and s[0] != r
            ops.append(Op(label, _compare_run(vp, mu, s, m, j, control, state), _expect_true))
    return ops


def _expect_true(out, exc):
    if exc is not None:
        return f"exception {type(exc).__name__}"
    return None if out is True else "mismatch"


def _compare_run(vp, mu, s, m, j, control, state):
    """closed_form_bracket == bracket_action_oracle; the literal (n+s_0)!
    reading is the negative control and must disagree somewhere in a run."""
    induced = vp.induced

    def run():
        oracle = induced.bracket_action_oracle(mu, j, m, s)
        ok = induced.closed_form_bracket(mu, j, m, s) == oracle
        if ok and control:
            state.control_checked += 1
            alt = induced.closed_form_bracket(mu, j, m, s, literal_denominator=True)
            if alt != oracle:
                state.control_mismatches += 1
        return ok

    return run


def _weight_run(vp, mu, s, m, j):
    """Every index of [t^j f^m, f^s] v has weight strictly below |s|."""
    induced = vp.induced

    def run():
        out = induced.bracket_action_oracle(mu, j, m, s)
        return all(sum(idx) < sum(s) for idx in out.terms)

    return run


def _reduce_run(vp, mu, s):
    """reduce_to_generator reaches the span of the generator."""
    induced = vp.induced

    def run():
        eng = induced.get_engine(mu)
        trace, final = induced.reduce_to_generator(mu, eng.basis(s), J_WINDOW)
        return len(trace) <= sum(s) + 3 and set(final.terms) == {eng.zero_index}

    return run


# The traced unit: one round, every shape once.
TRACE_GROUPS = len(shapes())
