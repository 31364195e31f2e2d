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

from .characters import (
    ExpPolyCharacter,
    RestrictedCharacter,
    decompose,
)
from .errors import VirpolyError
from .induced import ModuleElement, get_engine, reduce_to_generator
from .laurent import LaurentPoly, lie_bracket
from .scalars import Scalar, json_field, json_int, json_list, json_map
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


def _emit(payload, stream=None) -> None:
    """Print the report; values that are objects are converted by their to_json here.

    An exact result may hold integers longer than Python's int-to-string
    limit, so the limit is lifted while the report is converted and printed,
    and only then: input parsing keeps it.
    """
    stream = stream or sys.stdout
    with _int_digits_unlimited():
        json.dump(payload, stream, sort_keys=True, indent=2, default=lambda obj: obj.to_json())
        stream.write("\n")


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
        _check_indices(x.e_part.terms, "an element exponent")
        out = eng.act_vir(x, v)
    else:
        g = LaurentPoly.from_json(json_field(elem, "laurent", "the element"))
        _check_indices(g.terms, "an element exponent")
        out = eng.act(g, v)
    return {"result": out}


# seq(j) builds lambda^j exactly, so the cost of a check climbs with |j|: at
# +-1000 it takes about 2.6 s for the roots 3+4i and -5+12i (2-core host).
MAX_VALIDATE_INDICES = 2001

# The largest |j| of an element exponent in `act` or a `char-validate` range
# bound.  Each one builds lambda^j exactly: t^(10^6) takes about 5-9 s in
# `act`, t^(10^5) about 0.1 s, and t^(10^8) did not finish in 30 s.
MAX_INDEX = 10**5


def _check_indices(indices, what: str) -> None:
    for j in indices:
        if abs(j) > MAX_INDEX:
            raise ValueError(f"{what} {j} is out of range; |j| is at most {MAX_INDEX}")


# The verify grids grow fast with --nmax: the full run takes about 3.9 s at
# 4, 10.8 s at 5 and 26.9 s at 6 (2-core host), and repRootPowerComp1 alone
# did not finish in 60 s at 10.
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


def _cmd_reduce(raw, args):
    mu, v = _module_vector(raw)
    trace, final = reduce_to_generator(mu, v)
    return {
        "steps": [{"j": j, "m": m} for j, m in trace],
        "final": final,
        "generator_span": set(final.terms) <= {get_engine(mu).zero_index},
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
