"""Command-line front end: JSON in, deterministic JSON report out.

Exit codes: 0 success, 1 verification failure (counterexample in the
report), 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from math import isqrt

from .characters import (
    ExpPolyCharacter,
    RestrictedCharacter,
    decompose,
)
from .errors import VirpolyError
from .induced import ModuleElement, get_engine, reduce_to_generator
from .laurent import LaurentPoly, lie_bracket
from .scalars import ONE, Scalar, json_field, json_int, json_list, json_map
from .tensor import (
    TensorSpec,
    general_tensor_map,
    iso_decide,
    restricted_to_tensor,
    simplicity_verdict,
)
from .verify import SUITES, check_tensor_map_depth, run_suite
from .virasoro import VirElement, vir_bracket


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's int-to-string digit limit inside the block, where it exists."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload) -> None:
    """Print the report; values that are objects are converted by their to_json here.

    An exact result may hold integers longer than Python's int-to-string
    limit, so the limit is lifted while the report is converted and printed,
    and only then: input parsing keeps it.
    """
    with _int_digits_unlimited():
        json.dump(payload, sys.stdout, sort_keys=True, indent=2, default=lambda obj: obj.to_json())
        sys.stdout.write("\n")


def _load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json_map(json.load(fh), "the spec")


def _check_field(raw, field: str) -> None:
    """Under the rational field, Gaussian scalar literals are invalid input."""
    if field != "Q":
        return
    if isinstance(raw, dict):
        if set(raw) <= {"re", "im"} and "im" in raw:
            if not Scalar.from_json(raw).is_rational():
                raise VirpolyError("Gaussian scalar under field Q")
        for v in raw.values():
            _check_field(v, field)
    elif isinstance(raw, list):
        for v in raw:
            _check_field(v, field)


def _cmd_bracket(raw, args):
    kind = raw.get("kind", "laurent")
    if kind == "laurent":
        a = LaurentPoly.from_json(json_field(raw, "a", "the spec"))
        b = LaurentPoly.from_json(json_field(raw, "b", "the spec"))
        return {"kind": kind, "result": lie_bracket(a, b)}
    if kind == "vir":
        a = VirElement.from_json(json_field(raw, "a", "the spec"))
        b = VirElement.from_json(json_field(raw, "b", "the spec"))
        return {"kind": kind, "result": vir_bracket(a, b)}
    raise VirpolyError(f"unknown bracket kind {kind!r}")


def _module_vector(raw):
    """The character and the module vector of a request, the indices checked."""
    mu = ExpPolyCharacter.from_json(json_field(raw, "character", "the spec"))
    return mu, get_engine(mu).check(ModuleElement.from_json(json_field(raw, "vector", "the spec")))


def _cmd_act(raw, args):
    mu, v = _module_vector(raw)
    eng = get_engine(mu)
    elem = json_map(json_field(raw, "element", "the spec"), "the element")
    if "vir" in elem:
        x = VirElement.from_json(elem["vir"])
    else:
        x = VirElement(LaurentPoly.from_json(json_field(elem, "laurent", "the element")))
    _check_indices(x.e_part.terms, "an element exponent")
    # each exponent builds the Taylor window of n + r + 1 powers at lambda, and
    # straightening a term of weight w = sum_i (i + 1) s_i takes about
    # (1 + w/4)^2 times their work, a fit (see MAX_POWER_BITS)
    weight = max((sum((i + 1) * e for i, e in enumerate(s)) for s in v.terms), default=0)
    _check_powers([eng.lam], x.e_part.terms, (eng.n + eng.r + 1) * (4 + weight) ** 2 // 16)
    return {"result": eng.act_vir(x, v)}


# seq(j) builds lambda^j exactly, so the cost of a check climbs with |j|: at
# +-1000 it takes about 2.6 s for the roots 3+4i and -5+12i (2-core host).
MAX_VALIDATE_INDICES = 2001

# The largest |j| of an element exponent in `act` or a `char-validate` range
# bound.  Each one builds lambda^j exactly: at the integer root lambda = 2
# (n = 1), `act` took 0.04 s on t^(10^5) and 3.6 s on t^(10^6); a root of
# more bits is bounded by MAX_POWER_BITS below.
MAX_INDEX = 10**5


def _check_indices(indices, what: str) -> None:
    for j in indices:
        if abs(j) > MAX_INDEX:
            raise ValueError(f"{what} {j} is out of range; |j| is at most {MAX_INDEX}")


# The largest exact power of a root lambda that a request may build, in
# bits.  lambda^j holds about |j| ``Scalar.power_bits`` of lambda (of
# 1/lambda for j < 0).  A rational power takes no gcd, but the sums and
# products of such powers do, so a power costs about the square of its bits:
# several count by the root of the sum of their squares, over the roots and
# the indices evaluated.  At the bound, three single in-process `cli.main`
# runs each (2-core host, Python 3.11) took: `act` t^3837 on the generator at
# a 20-digit lambda (129 bits) 0.5-1.0 s, t^1356 at n = 8 there 0.3-1.2 s,
# and t^98994 at lambda = 3/5 0.4-0.6 s; `char-validate` on one index at the
# 20-digit lambda 0.6-0.8 s.  `char-validate` on [-1000, 1000] at lambda =
# 3/5, far below it, took 0.13-0.16 s.  `act` on a vector of weight w counts
# its powers (1 + w/4)^2 times: t^1000 at the 20-digit lambda took 1.3 s on
# s = [11], the largest admitted, and 21 s on [64] before.  That factor is
# fitted where the powers are large and bounds only those: the straightening
# also makes about w^2 products whatever their bits, which nothing here
# counts, so t^10 on s = [900] is admitted and takes 4.5-5.7 s.
MAX_POWER_BITS = 7 * 10**5


def _check_powers(roots, indices, per_index: int) -> None:
    """ValueError when per_index powers of each root at each index j exceed
    MAX_POWER_BITS, counted by the root of the sum of their squared bits."""
    up = sum(lam.power_bits() ** 2 for lam in roots)
    down = sum((ONE / lam).power_bits() ** 2 for lam in roots)
    square = per_index * sum(j * j * (up if j >= 0 else down) for j in indices)
    if square > MAX_POWER_BITS**2:
        raise ValueError(
            f"the request builds powers of {isqrt(square)} bits (the root of the sum of their squares); "
            f"at most {MAX_POWER_BITS} are built"
        )


# The verify grids grow fast with --nmax: the full run took 2.0 s at 4,
# 5.3 s at 5 and 11-15 s at 6 (two runs), and repRootPowerComp1 alone
# 126 s at 10 (375,480 cases), on a shared 2-core host.
MAX_VERIFY_NMAX = 6

# The verify suites' --depth: omega-iso, the slowest, grows about as depth^3.
# It takes about 0.5 s at 20, 1.7 s at 30 and 4.5 s at 40 (2-core host).
MAX_VERIFY_DEPTH = 20


def _cmd_char_validate(raw, args):
    mu = ExpPolyCharacter.from_json(json_field(raw, "character", "the spec"))
    bounds = json_list(raw.get("range", [-10, 10]), "the range")
    if len(bounds) != 2:
        raise ValueError("the range must hold exactly two integers")
    lo, hi = (json_int(x, "a range bound") for x in bounds)
    _check_indices((lo, hi), "the range bound")
    if lo > hi:
        raise ValueError(f"the range [{lo}, {hi}] holds no index")
    if hi - lo >= MAX_VALIDATE_INDICES:
        raise ValueError(
            f"the range [{lo}, {hi}] holds {hi - lo + 1} indices; at most {MAX_VALIDATE_INDICES} are checked"
        )
    # the check at m evaluates mu at m + i for each term t^i of the ambient polynomial
    indices = (m + i for m in range(lo, hi + 1) for i in mu.ambient.terms)
    _check_powers([lam for lam, _, _ in mu.factors], indices, 1)
    return {"valid": mu.validate(range(lo, hi + 1)), "range": [lo, hi]}


def _cmd_char_split(raw, args):
    rc = RestrictedCharacter.from_json(json_field(raw, "character", "the spec"))
    ddot, hat = rc.split_muhat()
    report = {
        "mu_ddot": ddot,
        "mu_hat": {
            "window": {str(j): v for j, v in sorted(hat["window"].items())},
            "z": hat["z"],
        },
    }
    closed = rc.muhat_closed_forms()
    if closed:
        report["closed_forms"] = closed
    return report


def _cmd_char_decompose(raw, args):
    mu = ExpPolyCharacter.from_json(json_field(raw, "character", "the spec"))
    return {"components": list(decompose(mu))}


# A work estimate for `reduce`: the largest, over the vector's nonzero
# indices s, of n (|s| + 1) (n + r + 1 + sum_j (j + 1) s_j)^3 for a
# character of root multiplicity n and degree r, scaled by bits / 12 for a
# lambda of more than 12 ``Scalar.power_bits``.  The form was fitted to the
# timings of a descent that acted with f^m monomial by monomial, so it also
# refuses requests that the two-term bracket now answers fast; a work meter
# counted by the engine should replace it.  In-process at lambda = 3/5 + 4i/7
# (12 bits), p = (1, ..., 1, 1/5), r = n - 1, on a shared 2-core host, n = 1
# at s = [640] takes 0.03 s, n = 2 at [32, 32] 0.06 s, n = 64 with one unit
# in direction 63 0.0001 s (mu(f^m) is the engine's, not a derived power),
# and n = 1 at [72] 0.0005 s, and 0.002 s at 87 bits
# (123456789123456789/987654321 + 4i/7).  40 random requests from 0.6 to 1
# times the bound took 0.05-0.09 s through the CLI, mostly start-up.
MAX_REDUCE_WORK = 3 * 10**7


def _reduce_work(n: int, r: int, s) -> int:
    return n * (sum(s) + 1) * (n + r + 1 + sum((j + 1) * x for j, x in enumerate(s))) ** 3


def _cmd_reduce(raw, args):
    mu, v = _module_vector(raw)
    eng = get_engine(mu)
    work = max((_reduce_work(eng.n, eng.r, s) for s in v.terms if any(s)), default=0)
    work = work * max(eng.lam.power_bits(), 12) // 12
    if work > MAX_REDUCE_WORK:
        raise ValueError(
            f"the descent's work estimate {work} is too large; reduce admits estimates up to {MAX_REDUCE_WORK}"
        )
    trace, final = reduce_to_generator(mu, v)
    return {
        "steps": [{"j": j, "m": m} for j, m in trace],
        "final": final,
        "generator_span": set(final.terms) <= {eng.zero_index},
    }


def _cmd_simplicity(raw, args):
    if "restricted" in raw:
        rc = RestrictedCharacter.from_json(raw["restricted"])
        spec, extra = restricted_to_tensor(rc)
        report = simplicity_verdict(spec, args.kac_level)
        report["restricted"] = extra
        return report
    spec = TensorSpec.from_json(raw)
    return simplicity_verdict(spec, args.kac_level)


def _cmd_iso(raw, args):
    a = TensorSpec.from_json(json_field(raw, "a", "the spec"))
    b = TensorSpec.from_json(json_field(raw, "b", "the spec"))
    return iso_decide(a, b)


def _cmd_tensor_map(raw, args):
    kind = raw.get("kind", "polynomial")
    if kind == "polynomial":
        parts = TensorSpec.factors_from_json(raw)
        return general_tensor_map(parts, args.depth, kind="polynomial")
    if kind == "restricted":
        rc = RestrictedCharacter.from_json(json_field(raw, "character", "the spec"))
        return general_tensor_map(rc, args.depth, kind="restricted")
    raise VirpolyError(f"unknown tensor-map kind {kind!r}")


def _cmd_verify(args):
    if args.nmax > MAX_VERIFY_NMAX:
        raise ValueError(f"--nmax {args.nmax} is too large; the verify grids run up to {MAX_VERIFY_NMAX}")
    if args.depth > MAX_VERIFY_DEPTH:
        raise ValueError(f"--depth {args.depth} is too large; the verify suites run up to {MAX_VERIFY_DEPTH}")
    names = [args.suite] if args.suite else sorted(SUITES)
    if "tensor-map" in names:
        check_tensor_map_depth(args.depth)  # refused before any suite runs
    suites = [run_suite(name, nmax=args.nmax, seed=args.seed, depth=args.depth) for name in names]
    return {"failed_total": sum(s["failed"] for s in suites), "seed": args.seed, "suites": suites}


_WITH_SPEC = {
    "bracket": _cmd_bracket,
    "act": _cmd_act,
    "char-validate": _cmd_char_validate,
    "char-split": _cmd_char_split,
    "char-decompose": _cmd_char_decompose,
    "reduce": _cmd_reduce,
    "simplicity": _cmd_simplicity,
    "iso": _cmd_iso,
    "tensor-map": _cmd_tensor_map,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, on the first call.

    ``main(argv)`` may be called repeatedly in one process: every call
    parses with this same parser into a fresh ``Namespace``, so no flag
    carries over from one call to the next.  Importing the module builds
    nothing.
    """
    ap = argparse.ArgumentParser(
        prog="virpoly",
        description="Exact computations with polynomial subalgebras of the "
        "Virasoro algebra and their induced modules.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=False, help="path to the input JSON file")
    common.add_argument("--field", choices=["Q", "Qi"], default="Q")
    common.add_argument("--kac-level", type=int, default=20, dest="kac_level")
    common.add_argument("--depth", type=int, default=3)
    common.add_argument("--seed", type=int, default=0)
    for name in _WITH_SPEC:
        sub.add_parser(name, parents=[common])
    vp = sub.add_parser("verify", parents=[common])
    vp.add_argument("--suite", choices=sorted(SUITES), default=None)
    vp.add_argument("--nmax", type=int, default=3)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verify = args.command == "verify"
    if args.kac_level < 1 or args.depth < 0 or verify and args.nmax < 1:
        print("flag out of range", file=sys.stderr)
        return 2
    if not verify and not args.spec:
        print("--spec is required for this command", file=sys.stderr)
        return 2
    try:
        if verify:
            report = _cmd_verify(args)
        else:
            raw = _load_spec(args.spec)
            _check_field(raw, args.field)
            report = _WITH_SPEC[args.command](raw, args)
    except (VirpolyError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("request beyond the engine's reach: recursion too deep", file=sys.stderr)
        return 2
    _emit({"command": args.command, **report})
    failed = report["failed_total"] if verify else report.get("passed") is False
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
