import argparse
import hashlib
import json
import re
import subprocess
import sys
import time
from math import comb, isqrt
from pathlib import Path

import pytest

from conftest import cli_env
from virpoly import cli
from virpoly.cli import main
from virpoly.characters import MAX_CHARACTER_DEGREE
from virpoly.scalars import Scalar
from virpoly.tensor import MAX_SLICE_RANK
from virpoly.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_bracket_laurent(tmp_path, capsys):
    spec = write(tmp_path, "b.json", {"kind": "laurent", "a": {"2": "1"}, "b": {"3": "1"}})
    code, out = run_cli(capsys, "bracket", "--spec", spec)
    assert code == 0
    assert out["result"] == {"5": "1"}


def test_bracket_vir(tmp_path, capsys):
    spec = write(
        tmp_path,
        "b.json",
        {"kind": "vir", "a": {"e": {"-2": "1"}}, "b": {"e": {"2": "1"}}},
    )
    code, out = run_cli(capsys, "bracket", "--spec", spec)
    assert code == 0
    assert out["result"] == {"e": {"0": "4"}, "z": "-1/2"}


def test_act(tmp_path, capsys):
    spec = write(
        tmp_path,
        "a.json",
        {
            "character": {"factors": [{"lambda": "1", "n": 1, "p": ["2"]}]},
            "element": {"laurent": {"1": "1", "0": "-1"}},
            "vector": {"terms": [{"s": [1], "c": "1"}]},
        },
    )
    code, out = run_cli(capsys, "act", "--spec", spec)
    assert code == 0
    assert out["result"] == {"terms": [{"s": [0], "c": "-2"}, {"s": [1], "c": "1"}]}
    # repeated indices in the input vector add up
    spec = write(
        tmp_path,
        "r.json",
        {
            "character": {"factors": [{"lambda": "2", "n": 2, "p": ["1"]}]},
            "element": {"laurent": {"0": "1"}},
            "vector": {"terms": [{"s": [1, 0], "c": "1"}, {"s": [1, 0], "c": "2"}]},
        },
    )
    code, out = run_cli(capsys, "act", "--spec", spec)
    assert code == 0
    assert out["result"] == {"terms": [{"s": [2, 0], "c": "3"}]}


def test_char_validate(tmp_path, capsys):
    spec = write(
        tmp_path,
        "c.json",
        {"character": {"factors": [{"lambda": "2", "n": 2, "p": ["0", "1"]}]}, "range": [-8, 8]},
    )
    code, out = run_cli(capsys, "char-validate", "--spec", spec)
    assert code == 0 and out["valid"] is True


def test_char_split(tmp_path, capsys):
    spec = write(
        tmp_path,
        "s.json",
        {
            "character": {
                "factors": [{"lambda": "1", "n": 1, "p": ["9"]}],
                "restriction": {"m": 0, "window": {"0": "4"}, "z": "7"},
            }
        },
    )
    code, out = run_cli(capsys, "char-split", "--spec", spec)
    assert code == 0
    assert out["mu_hat"]["window"] == {"0": "5"}
    assert out["closed_forms"]["hat_0"] == "5"


def test_char_decompose(tmp_path, capsys):
    spec = write(
        tmp_path,
        "d.json",
        {
            "character": {
                "factors": [
                    {"lambda": "1", "n": 1, "p": ["3"]},
                    {"lambda": "2", "n": 1, "p": ["5"]},
                ]
            }
        },
    )
    code, out = run_cli(capsys, "char-decompose", "--spec", spec)
    assert code == 0
    assert out["components"][0]["factors"][0]["p"] == ["-3"]
    assert out["components"][1]["factors"][0]["p"] == ["5"]


def test_reduce(tmp_path, capsys):
    spec = write(
        tmp_path,
        "r.json",
        {
            "character": {"factors": [{"lambda": "1", "n": 1, "p": ["2"]}]},
            "vector": {"terms": [{"s": [2], "c": "1"}]},
        },
    )
    code, out = run_cli(capsys, "reduce", "--spec", spec)
    assert code == 0
    assert out["generator_span"] is True
    assert len(out["steps"]) >= 1


def test_simplicity_linear_factor(tmp_path, capsys):
    spec = write(
        tmp_path,
        "s.json",
        {"factors": [{"lambda": "1", "n": 1, "p": ["1"]}], "tail": {"type": "trivial"}},
    )
    code, out = run_cli(capsys, "simplicity", "--spec", spec, "--kac-level", "20")
    assert code == 0 and out["simple"] is True


def test_simplicity_restricted(tmp_path, capsys):
    spec = write(
        tmp_path,
        "s.json",
        {
            "restricted": {
                "factors": [{"lambda": "1", "n": 1, "p": ["3"]}],
                "restriction": {"m": 0, "window": {"0": "2"}, "z": "5"},
            }
        },
    )
    code, out = run_cli(capsys, "simplicity", "--spec", spec)
    assert code == 0
    assert out["tail"]["kind"] == "verma"
    assert out["restricted"]["closed_forms"]["hat_0"] == "1"


def test_iso(tmp_path, capsys):
    a = {"factors": [{"lambda": "1", "n": 1, "p": ["1"]}, {"lambda": "2", "n": 2, "p": ["0", "1"]}]}
    b = {"factors": [{"lambda": "2", "n": 2, "p": ["0", "1"]}, {"lambda": "1", "n": 1, "p": ["1"]}]}
    spec = write(tmp_path, "i.json", {"a": a, "b": b})
    code, out = run_cli(capsys, "iso", "--spec", spec)
    assert code == 0 and out["isomorphic"] is True


def test_tensor_map_polynomial(tmp_path, capsys, monkeypatch):
    spec = write(
        tmp_path,
        "t.json",
        {
            "kind": "polynomial",
            "factors": [
                {"lambda": "1", "n": 1, "p": ["1"]},
                {"lambda": "2", "n": 1, "p": ["1"]},
            ],
        },
    )
    code, out = run_cli(capsys, "tensor-map", "--spec", spec, "--depth", "2")
    assert code == 0 and out["passed"] is True
    # a report that does not pass is a verification failure: exit 1
    monkeypatch.setattr(cli, "general_tensor_map", lambda *a, **k: dict(out, passed=False))
    code, failed = run_cli(capsys, "tensor-map", "--spec", spec, "--depth", "2")
    assert code == 1 and failed["passed"] is False


def test_tensor_map_refuses_a_slice_above_the_rank_bound(tmp_path, capsys):
    character = {
        "factors": [{"lambda": "2", "n": 1, "p": ["1"]}],
        "restriction": {"m": 0, "window": {"0": "4"}, "z": "5"},
    }
    spec = write(tmp_path, "t.json", {"kind": "restricted", "character": character})
    # the count stops once its running sum passes the bound, a lower bound
    # on the full count (129,671 at depth 8), so every refusal is prompt
    for depth, budget in (("8", 2.0), ("400", 0.5), (str(10**9), 0.5)):
        start = time.perf_counter()
        code, err = run_invalid(capsys, "tensor-map", "--spec", spec, "--depth", depth)
        assert time.perf_counter() - start < budget, depth
        assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1, depth
        at_least = int(re.search(r"rank at least (\d+);", err).group(1))
        assert MAX_SLICE_RANK < at_least, depth
        if depth == "8":
            assert at_least <= 129671


def test_loops_the_input_sizes_are_bounded(tmp_path, capsys):
    factor = {"lambda": "1", "n": 1, "p": ["1"]}
    vector = {"character": {"factors": [factor]}, "vector": {"terms": [{"s": [1], "c": "1"}]}}
    verma = {
        "restricted": {
            "factors": [{"lambda": "1", "n": 1, "p": ["3"]}],
            "restriction": {"m": 0, "window": {"0": "2"}, "z": "5"},
        }
    }

    def degree(n, lam="2"):
        return {"lambda": lam, "n": n, "p": ["1"]}

    def two_factors(over):
        # two factors whose product has degree MAX_CHARACTER_DEGREE + over
        half = MAX_CHARACTER_DEGREE // 2
        return {"factors": [degree(half), degree(MAX_CHARACTER_DEGREE - half + over, "3")]}

    refused = {
        "huge_range": ("char-validate", {"character": {"factors": [factor]}, "range": [0, 10**11]}, ()),
        "range_of_2002": ("char-validate", {"character": {"factors": [factor]}, "range": [-1000, 1001]}, ()),
        "huge_kac_level": ("simplicity", verma, ("--kac-level", "100000000")),
        "kac_level_10001": ("simplicity", verma, ("--kac-level", "10001")),
        "huge_nmax": ("verify", {}, ("--suite", "repRootPowerComp1", "--nmax", "10")),
        "nmax_7": ("verify", {}, ("--nmax", "7")),
        "huge_exponent": ("act", dict(vector, element={"laurent": {str(10**8): "1"}}), ()),
        "exponent_above_bound": ("act", dict(vector, element={"vir": {"e": {str(-10**5 - 1): "1"}}}), ()),
        "huge_range_bound": ("char-validate", {"character": {"factors": [factor]}, "range": [10**8, 10**8 + 2]}, ()),
        "range_bound_above": ("char-validate", {"character": {"factors": [factor]}, "range": [-10**5 - 1, -10**5]}, ()),
        "multiplicity_3200": ("char-validate", {"character": {"factors": [degree(3200)]}}, ()),
        "degree_above_bound": ("char-validate", {"character": {"factors": [degree(MAX_CHARACTER_DEGREE + 1)]}}, ()),
        "huge_extra": ("char-validate", {"character": {"factors": [factor], "extra": {"10000000": "1", "0": "1"}}}, ()),
        "extra_above_bound": (
            "char-split",
            {"character": dict(verma["restricted"], extra={str(MAX_CHARACTER_DEGREE): "1", "0": "1"})},
            (),
        ),
        "two_factors_of_64": ("tensor-map", {"factors": [degree(64), degree(64, "3")]}, ("--depth", "1")),
        "four_factors_of_100": ("tensor-map", {"factors": [degree(100, lam) for lam in "2357"]}, ("--depth", "1")),
        "factor_product_above_bound": ("iso", {"a": two_factors(1), "b": two_factors(0)}, ()),
    }
    for name, (command, payload, flags) in refused.items():
        spec = write(tmp_path, name + ".json", payload)
        start = time.perf_counter()
        code, err = run_invalid(capsys, command, "--spec", spec, *flags)
        assert time.perf_counter() - start < 1.0, name
        assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1, name
    spec = write(tmp_path, "range.json", {"character": {"factors": [factor]}, "range": [-1000, 1000]})
    code, out = run_cli(capsys, "char-validate", "--spec", spec)
    assert code == 0 and out["valid"] is True
    # the index bound itself is accepted
    bound = cli.MAX_INDEX
    spec = write(tmp_path, "edge.json", {"character": {"factors": [factor]}, "range": [bound - 2, bound]})
    code, out = run_cli(capsys, "char-validate", "--spec", spec)
    assert code == 0 and out["valid"] is True
    spec = write(tmp_path, "edge_act.json", dict(vector, element={"laurent": {str(-bound): "1"}}))
    code, out = run_cli(capsys, "act", "--spec", spec)
    assert code == 0
    code, out = run_cli(capsys, "verify", "--suite", "degreehom", "--nmax", str(cli.MAX_VERIFY_NMAX))
    assert code == 0 and out["failed_total"] == 0
    # the degree bound itself is accepted, on one character and on a product
    at_bound = {"factors": [degree(MAX_CHARACTER_DEGREE - 1)], "extra": {"1": "1", "0": "-3"}}
    spec = write(tmp_path, "degree_edge.json", {"character": at_bound, "range": [0, 2]})
    code, out = run_cli(capsys, "char-validate", "--spec", spec)
    assert code == 0 and out["valid"] is True
    spec = write(tmp_path, "product_edge.json", {"a": two_factors(0), "b": two_factors(0)})
    code, out = run_cli(capsys, "iso", "--spec", spec)
    assert code == 0 and out["isomorphic"] is True


def test_verify_depth_is_bounded(capsys):
    # omega-iso checks every index s_0 <= depth against e_k on s_0 + 2 values
    # of k, and grows about as depth^3; above the cap every suite is refused
    # before any runs, and the cap itself still runs in seconds
    cap = cli.MAX_VERIFY_DEPTH
    for argv in (["--suite", "omega-iso"], []):
        for depth in (cap + 1, 10**9):
            start = time.perf_counter()
            code, err = run_invalid(capsys, "verify", *argv, "--depth", str(depth))
            assert time.perf_counter() - start < 1.0, (argv, depth)
            assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1
            assert f"--depth {depth} is too large" in err
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--suite", "omega-iso", "--depth", str(cap))
    assert time.perf_counter() - start < 10.0
    assert code == 0 and out["failed_total"] == 0 and out["suites"][0]["cases"] > 0


def test_verify_refuses_a_tensor_map_depth_before_any_suite(capsys, monkeypatch):
    # depths 8 to 20 pass the verify cap but not the tensor-map slice bound;
    # the slice counts refuse them before any suite runs
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: ran.append(name))
    start = time.perf_counter()
    code, err = run_invalid(capsys, "verify", "--depth", "8")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1
    assert "the depth-8 slice has rank at least" in err and ran == []


def test_tensor_map_deep_polynomial_slice(tmp_path, capsys):
    # one linear factor has rank depth + 1, and its equivariance check is
    # certified from the root data, not sized by the depth
    spec = write(tmp_path, "t.json", {"factors": [{"lambda": "2", "n": 1, "p": ["1"]}]})
    code, out = run_cli(capsys, "tensor-map", "--spec", spec, "--depth", "20000")
    assert code == 0 and out["passed"] is True and out["rank"] == 20001


def test_readme_names_every_command_option_and_suite():
    readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    words = set(re.findall(r"[\w-]+", readme))
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for p in sub.choices.values()
        for action in p._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    }
    assert set(sub.choices) == set(cli._WITH_SPEC) | {"verify"}
    assert options >= {"--spec", "--kac-level", "--nmax"}
    missing = (set(sub.choices) | options | set(SUITES)) - words
    assert not missing


def test_readme_names_every_max_constant():
    src = Path(cli.__file__).resolve().parent
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    names = {
        name
        for path in src.glob("*.py")
        for name in re.findall(r"^(MAX_\w+)\s*=", path.read_text(encoding="utf-8"), re.M)
    }
    assert {"MAX_SLICE_RANK", "MAX_CHARACTER_DEGREE"} <= names
    assert not names - set(re.findall(r"\w+", readme))


def test_verify_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "faulhaber")
    assert code == 0
    assert out["failed_total"] == 0
    assert out["suites"][0]["suite"] == "faulhaber"


def test_parser_is_reused_without_leaking_flags(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "faulhaber", "--no-such-flag"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out = run_cli(capsys, "verify", "--suite", "faulhaber", "--seed", "5")
    assert code == 0 and out["seed"] == 5
    code, out = run_cli(capsys, "verify", "--suite", "faulhaber")
    assert code == 0 and out["seed"] == 0


def test_import_builds_no_parser():
    # a fresh interpreter: this one has long since built its parser
    script = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from virpoly import cli\n"
        "counts = [len(built)]\n"
        "for seed in ('0', '3'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['verify', '--suite', 'faulhaber', '--seed', seed])\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=cli_env()
    )
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0 and first > 0 and second == first


def run_invalid(capsys, *argv):
    """Exit code and stderr of a request that must be rejected as invalid input."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return code, captured.err


def test_invalid_input_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run_cli(capsys, "bracket", "--spec", str(p))
    assert code == 2
    code, _ = run_cli(capsys, "act", "--spec", str(tmp_path / "missing.json"))
    assert code == 2
    good = {"kind": "vir", "a": {"e": {"1": "1"}}, "b": {"e": {"-1": "1"}}}
    malformed = {
        "zero_denominator": dict(good, a={"e": {"2": "1/0"}}),
        "gaussian_zero_denominator": dict(good, a={"e": {"2": {"re": "1", "im": "1/0"}}}),
        "boolean_gaussian": dict(good, a={"e": {"2": {"re": False, "im": True}}}),
        "float_scalar": dict(good, a={"e": {"2": 1.5}}),
        "list_for_map": dict(good, a={"e": ["1", "2"]}),
        "top_level_array": [good],
        # two spellings of one index must not overwrite each other
        "noncanonical_laurent_key": {"kind": "laurent", "a": {"1": "2", "01": "3"}, "b": {"2": "1"}},
        "noncanonical_vir_key": dict(good, a={"e": {"+1": "1"}}),
        # a scalar is "p/q" only: Fraction's decimals, exponents and spaces are not read
        "exponent_scalar": dict(good, a={"e": {"2": "1e3"}}),
        "decimal_scalar": dict(good, a={"e": {"2": "1.5"}}),
        "spaced_scalar": dict(good, a={"e": {"2": " 1"}}),
        "gaussian_exponent_scalar": dict(good, a={"e": {"2": {"re": "1", "im": "2e1"}}}),
        "int_scalar": dict(good, a={"e": {"2": 1}}),
        # the exponent is refused before 10**(10**7) is built
        "huge_exponent_scalar": dict(good, a={"e": {"2": "1e10000000"}}),
    }
    for name, payload in malformed.items():
        start = time.perf_counter()
        code, err = run_invalid(capsys, "bracket", "--spec", write(tmp_path, name + ".json", payload))
        assert code == 2, name
        assert err.startswith("invalid input") and len(err.splitlines()) == 1, name
        assert time.perf_counter() - start < 1.0, name
    factor = {"lambda": "2", "n": 2, "p": ["1"]}
    restricted = {"factors": [{"lambda": "1", "n": 1, "p": ["9"]}], "restriction": {"m": 0}}
    wrong_type = {
        "list_for_n": ("char-validate", {"character": {"factors": [dict(factor, n=[2])]}}),
        "float_n": ("char-validate", {"character": {"factors": [dict(factor, n=1.7)]}}),
        "string_for_p": ("char-validate", {"character": {"factors": [dict(factor, p="12")]}}),
        "int_for_factors": ("char-decompose", {"character": {"factors": 5}}),
        "int_for_range": ("char-validate", {"character": {"factors": [factor]}, "range": 5}),
        "reversed_range": ("char-validate", {"character": {"factors": [factor]}, "range": [5, 1]}),
        "noncanonical_window_key": (
            "char-split",
            {"character": dict(restricted, restriction={"m": 0, "window": {"00": "4"}})},
        ),
        "list_for_m": (
            "char-split",
            {"character": dict(restricted, restriction={"m": [0], "window": {"0": "4"}})},
        ),
        "int_for_tensor_spec": ("iso", {"a": {"factors": [factor]}, "b": 5}),
        # a tail type outside the four families is not read as Whittaker
        "unknown_tail_type": (
            "simplicity",
            {"factors": [factor], "tail": {"type": "bogus", "m": 1, "psi": {"1": "1"}}},
        ),
        "list_for_tail_type": ("simplicity", {"factors": [factor], "tail": {"type": ["verma"]}}),
        # a field that contradicts the tail's family is not ignored
        "verma_with_m_and_psi": (
            "simplicity",
            {"factors": [factor], "tail": {"type": "verma", "m": 5, "h": "1", "psi": {"7": "3"}}},
        ),
        "mbar_with_m_and_h": (
            "simplicity",
            {"factors": [factor], "tail": {"type": "mbar", "m": 3, "c": "1", "h": "5"}},
        ),
    }
    # a valid source under an unknown kind must not run either check
    tensor_map = {
        "factors": [factor],
        "character": dict(restricted, restriction={"m": 0, "window": {"0": "4"}}),
    }
    for kind in ("bogus", 5):
        wrong_type[f"tensor_map_kind_{kind}"] = ("tensor-map", dict(tensor_map, kind=kind))
    act = {
        "character": {"factors": [factor]},
        "element": {"laurent": {"1": "1"}},
        "vector": {"terms": [{"s": [0, 0], "c": "1"}]},
    }
    wrong_type.update(
        boolean_lambda=("act", dict(act, character={"factors": [dict(factor, **{"lambda": True})]})),
        boolean_poly_coefficient=("act", dict(act, element={"laurent": {"1": True}})),
        boolean_vector_coefficient=("act", dict(act, vector={"terms": [{"s": [0, 0], "c": True}]})),
        int_for_terms=("act", dict(act, vector={"terms": 5})),
    )
    for name, (command, payload) in wrong_type.items():
        code, err = run_invalid(capsys, command, "--spec", write(tmp_path, name + ".json", payload))
        assert code == 2, name
        assert err.startswith("invalid input") and len(err.splitlines()) == 1, name
    # a required field that is absent is named, with what it belongs to
    empty = {
        "bracket": "the spec has no 'a' field",
        "act": "the spec has no 'character' field",
        "char-validate": "the spec has no 'character' field",
        "char-split": "the spec has no 'character' field",
        "char-decompose": "the spec has no 'character' field",
        "reduce": "the spec has no 'character' field",
        "simplicity": "a tensor spec has no 'factors' field",
        "iso": "the spec has no 'a' field",
        "tensor-map": "a tensor spec has no 'factors' field",
    }
    assert set(empty) == set(cli._WITH_SPEC)
    missing = [(command, {}, line) for command, line in empty.items()] + [
        ("act", dict(act, character={}), "a character has no 'factors' field"),
        ("act", dict(act, character={"factors": [{"n": 1}]}), "a character factor has no 'lambda' field"),
        ("act", dict(act, character={"factors": [{"lambda": "2"}]}), "a character factor has no 'n' field"),
        ("act", dict(act, element={}), "the element has no 'laurent' field"),
        ("act", dict(act, vector={"terms": [{"s": [0, 0]}]}), "a module vector term has no 'c' field"),
        ("reduce", {"character": act["character"], "vector": {"terms": [{"c": "1"}]}},
         "a module vector term has no 's' field"),
        ("char-split", {"character": {"factors": [factor]}}, "a restricted character has no 'restriction' field"),
        ("char-split", {"character": dict(restricted, restriction={})}, "a restriction has no 'm' field"),
        ("simplicity", {"factors": [factor], "tail": {}}, "a tail module has no 'type' field"),
        ("iso", {"a": {"factors": [factor]}}, "the spec has no 'b' field"),
    ]
    for command, payload, line in missing:
        code, err = run_invalid(capsys, command, "--spec", write(tmp_path, "missing.json", payload))
        assert code == 2 and err == f"invalid input: {line}\n", (command, payload)


def test_module_indices_are_validated(tmp_path, capsys):
    character = {"factors": [{"lambda": "2", "n": 2, "p": ["1"]}]}
    for s in ([1], [-1, 0], [1, 0, 0], [1.5, 0]):
        vector = {"terms": [{"s": s, "c": "1"}]}
        act = {"character": character, "element": {"laurent": {"1": "1"}}, "vector": vector}
        code, err = run_invalid(capsys, "act", "--spec", write(tmp_path, "a.json", act))
        assert code == 2 and "module index" in err, s
        reduce = {"character": character, "vector": vector}
        code, err = run_invalid(capsys, "reduce", "--spec", write(tmp_path, "r.json", reduce))
        assert code == 2 and "module index" in err, s


def test_deep_request_exits_2(tmp_path, capsys):
    """Straightening recurses once per unit of |s|: s = [900] is within its
    reach, and s = [3000] is beyond it."""
    character = {"factors": [{"lambda": "2", "n": 1, "p": ["1"]}]}
    act = {"character": character, "element": {"laurent": {"1": "1"}}}
    act["vector"] = {"terms": [{"s": [900], "c": "1"}]}
    code, out = run_cli(capsys, "act", "--spec", write(tmp_path, "a.json", act))
    assert code == 0 and out["result"]["terms"]
    act["vector"] = {"terms": [{"s": [3000], "c": "1"}]}
    code, err = run_invalid(capsys, "act", "--spec", write(tmp_path, "a.json", act))
    assert code == 2 and "beyond the engine's reach" in err
    assert len(err.strip().splitlines()) == 1


def test_reduce_work_is_bounded(tmp_path, capsys):
    """reduce refuses a vector whose descent has a work estimate above
    MAX_REDUCE_WORK, at once and with one line (act keeps its reach: see
    test_deep_request_exits_2)."""
    bound = cli.MAX_REDUCE_WORK

    def spec(name, n, s):
        character = {"factors": [{"lambda": "2", "n": n, "p": ["1"] * n}]}
        vector = {"terms": [{"s": x, "c": "1"} for x in s]}
        return write(tmp_path, name, {"character": character, "vector": vector})

    # n = 1, r = 0 at s = [w]: the estimate is (w + 1)(w + 2)^3
    edge = max(w for w in range(200) if cli._reduce_work(1, 0, (w,)) <= bound)
    refused = [
        ("far", 1, [[640]]),
        ("above", 1, [[edge + 1]]),
        # the largest estimate over the terms counts
        ("two", 2, [[0, 1], [0, 40]]),
        # 64 steps, the engine's limit, but far above the bound
        ("steps", 2, [[0, 64]]),
        # one unit in the top direction of a high multiplicity
        ("high", 32, [[0] * 31 + [1]]),
    ]
    for name, n, s in refused:
        start = time.perf_counter()
        code, err = run_invalid(capsys, "reduce", "--spec", spec(name + ".json", n, s))
        assert time.perf_counter() - start < 1.0, name
        assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1, name
        assert f"up to {bound}" in err, name
    code, out = run_cli(capsys, "reduce", "--spec", spec("edge.json", 1, [[edge]]))
    assert code == 0 and out["generator_span"] is True


def test_power_bits_are_bounded(tmp_path, capsys):
    """Requests whose exact powers of lambda exceed MAX_POWER_BITS exit 2 at
    once; the largest admitted ones, at three kinds of root, exit 0, and a
    wide range of small powers stays admitted."""
    digits20 = "77777777777777777777/3333333333333333333"
    digits40 = "7" * 40 + "/" + "3" * 39

    def root(lam):
        return {"re": lam[0], "im": lam[1]} if isinstance(lam, tuple) else lam

    def validate(lam, lo, hi):
        return {"character": {"factors": [{"lambda": root(lam), "n": 1, "p": ["1"]}]}, "range": [lo, hi]}

    def act(lam, j):
        character = {"factors": [{"lambda": root(lam), "n": 1, "p": ["1"]}]}
        vector = {"terms": [{"s": [0], "c": "1"}]}
        return {"character": character, "element": {"laurent": {str(j): "1"}}, "vector": vector}

    gaussian18 = ("123456789123456789/987654321", "4/7")
    reduce = {
        "character": {"factors": [{"lambda": root(gaussian18), "n": 1, "p": ["1"]}]},
        "vector": {"terms": [{"s": [72], "c": "1"}]},
    }
    refused = {
        "validate_3/5": ("char-validate", validate("3/5", 99990, 100000)),
        "validate_77/3": ("char-validate", validate("77/3", 99990, 100000)),
        "validate_admitted_range": ("char-validate", validate("3/5", 98000, 100000)),
        "validate_20_digits": ("char-validate", validate(digits20, 1990, 2000)),
        "validate_20_digits_far": ("char-validate", validate(digits20, 4990, 5000)),
        "act_20_digits": ("act", act(digits20, 10000)),
        "act_40_digits": ("act", act(digits40, 10000)),
        "reduce_18_digits": ("reduce", reduce),
    }
    for name, (command, payload) in refused.items():
        spec = write(tmp_path, "refused.json", payload)
        start = time.perf_counter()
        code, err = run_invalid(capsys, command, "--spec", spec, "--field", "Qi")
        assert time.perf_counter() - start < 1.0, name
        assert code == 2 and err.startswith("invalid input") and len(err.splitlines()) == 1, name
    code, out = run_cli(capsys, "char-validate", "--spec", write(tmp_path, "wide.json", validate("3/5", -1000, 1000)))
    assert code == 0 and out["valid"] is True
    # [m, m] evaluates mu at m and m + 1, so it is admitted while
    # (m^2 + (m + 1)^2) bits^2 <= MAX_POWER_BITS^2, with the power bits of
    # 1/lambda (8 for 3 + 4i) below zero
    bound = cli.MAX_POWER_BITS

    def fits(m, bits):
        return (m * m + (m + 1) ** 2) * bits * bits <= bound * bound

    for lam, bits, sign in (("3/5", 5, 1), (("3", "4"), 8, -1), (digits20, 129, 1)):
        x = Scalar.from_json(root(lam))
        assert (x if sign > 0 else 1 / x).power_bits() == bits
        m = sign * isqrt(bound * bound // (2 * bits * bits))
        while fits(m + sign, bits):
            m += sign
        while not fits(m, bits):
            m -= sign
        for k, want in ((m, 0), (m + sign, 2)):
            spec = write(tmp_path, "edge.json", validate(lam, k, k))
            code = main(["char-validate", "--spec", spec, "--field", "Qi"])
            captured = capsys.readouterr()
            assert code == want, (lam, k)
            assert want == 0 or f"at most {bound}" in captured.err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-string limit")
def test_act_result_beyond_int_str_limit(tmp_path, capsys):
    """t^j on the generator at lambda = 2, p(j) = j: the Taylor coefficients
    2^j and j 2^(j-1) bump s, and mu(f^3) = 2 puts C(j, 3) 2^(j-2) on v."""
    j = 20000
    spec = {
        "character": {"factors": [{"lambda": "2", "n": 2, "p": ["0", "1"]}]},
        "element": {"laurent": {str(j): "1"}},
        "vector": {"terms": [{"s": [0, 0], "c": "1"}]},
    }
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "act", "--spec", write(tmp_path, "a.json", spec))
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    expected = {(1, 0): 2**j, (0, 1): j * 2 ** (j - 1), (0, 0): comb(j, 3) * 2 ** (j - 2)}
    sys.set_int_max_str_digits(0)
    try:
        got = {tuple(t["s"]): int(t["c"]) for t in out["result"]["terms"]}
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


def test_verify_empty_suite_fails(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "repRootPowerComp1", "--nmax", "1")
    assert code == 1
    suite = out["suites"][0]
    assert suite["cases"] == 0 and suite["failed"] == 1
    assert out["failed_total"] == 1


def test_verify_flag_ranges(capsys):
    for argv in (["--nmax", "0"], ["--nmax", "-1"], ["--kac-level", "0"]):
        code, err = run_invalid(capsys, "verify", "--suite", "faulhaber", *argv)
        assert code == 2 and "flag out of range" in err, argv


def test_verify_domain_error_exits_2(capsys):
    code, err = run_invalid(capsys, "verify", "--suite", "tensor-map", "--depth", "0")
    assert code == 2 and "vacuous" in err


def test_field_restriction(tmp_path, capsys):
    spec = write(
        tmp_path,
        "g.json",
        {"kind": "laurent", "a": {"0": {"re": "1", "im": "1"}}, "b": {"1": "1"}},
    )
    code, _ = run_cli(capsys, "bracket", "--spec", spec, "--field", "Q")
    assert code == 2
    code, out = run_cli(capsys, "bracket", "--spec", spec, "--field", "Qi")
    assert code == 0
    assert out["result"]["1"] == {"re": "1", "im": "1"}
    gaussian_root = {"factors": [{"lambda": {"re": "1", "im": "1"}, "n": 2, "p": ["0", "1"]}]}
    gaussian_window = {
        "factors": [{"lambda": "1", "n": 1, "p": ["9"]}],
        "restriction": {"m": 0, "window": {"0": {"re": "4", "im": "1"}}, "z": "7"},
    }
    for command, character in (("char-validate", gaussian_root), ("char-split", gaussian_window)):
        spec = write(tmp_path, command + ".json", {"character": character})
        code, _ = run_invalid(capsys, command, "--spec", spec, "--field", "Q")
        assert code == 2, command
        code, _ = run_cli(capsys, command, "--spec", spec, "--field", "Qi")
        assert code == 0, command


def test_restricted_window_is_checked(tmp_path, capsys):
    """At m = 1 the free values are mu_1 and mu_2; mu_3 is the tail's, 9 over
    Q and i (1 + i)^3 = -2 - 2i over Q(i).  A supplied mu_3 must agree with
    it, and a missing free value is invalid input."""
    cases = {
        "Q": ({"lambda": "1", "n": 1, "p": ["9"]}, "9", "8"),
        "Qi": ({"lambda": {"re": "1", "im": "1"}, "n": 1, "p": [{"re": "0", "im": "1"}]},
               {"re": "-2", "im": "-2"}, {"re": "-2", "im": "2"}),
    }
    for field, (factor, tail3, wrong3) in cases.items():

        def split(window):
            character = {"factors": [factor], "restriction": {"m": 1, "window": window, "z": "7"}}
            return write(tmp_path, "c.json", {"character": character})

        free = {"1": "4", "2": "5"}
        code, out = run_cli(capsys, "char-split", "--field", field, "--spec", split(free))
        assert code == 0, field
        code, same = run_cli(capsys, "char-split", "--field", field, "--spec", split({**free, "3": tail3}))
        assert code == 0 and same == out, field
        for window, line in (
            ({**free, "3": wrong3}, "window value at 3 disagrees with the tail"),
            ({"1": "4", "3": tail3}, "missing free window value at index 2"),
        ):
            code, err = run_invalid(capsys, "char-split", "--field", field, "--spec", split(window))
            assert code == 2 and err == f"invalid input: {line}\n", (field, window)


def test_missing_spec_flag(capsys):
    code, _ = run_cli(capsys, "simplicity")
    assert code == 2


def test_determinism_subprocess():
    cmd = [
        sys.executable,
        "-m",
        "virpoly.cli",
        "verify",
        "--suite",
        "muhat-split",
        "--seed",
        "5",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True, env=cli_env()).stdout
    b = subprocess.run(cmd, capture_output=True, check=True, env=cli_env()).stdout
    assert a == b


# sha256 of the stdout of `virpoly verify` with default flags.  A refactor
# keeps this report byte-identical; a change that means to alter it updates
# the digest and says why in CHANGES.md.
VERIFY_REPORT_SHA256 = "44796a9c4c9d6678f1e83289acd5c869335a861877d12679a962e68676f66f1e"


def test_verify_report_is_pinned(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256
