"""Workload ``cli-session``: a seeded stream of in-process ``cli.main`` calls.

Every round holds 26 requests in a seeded order: the nine spec commands
under ``--field Q`` and under ``--field Qi``, one small ``verify`` suite, and
one request of each malformed-input class.  Characters come from a pool of
four per field and the rounds repeat every ``VARIANTS`` rounds, so engine
caches stay warm across requests; they are reset only when the run starts.
One op is one request, timed from argv to captured stdout.

Each answer is checked against a known answer computed in ``refmath``:

* bracket: [e_a, e_b] from the defining relations, cocycle included;
* act: t^j f^n on the generator is the character value p(j) lambda^j;
* char-validate: a character built from (lambda, n, p) satisfies its recurrence;
* char-split: mu_x(j) = mu_ddot(t^j F) + sum_i a_i hat_{j+i} on [m, 2m+p];
* char-decompose: the components compose back to the input's values;
* reduce: the generator span is reached;
* simplicity: the verdict is fixed by construction (trivial or c = 1 Verma
  tail with h = 1/3 or Gaussian h: simple; h = k^2/4 = h_{1,k+1}(1) or a
  factor of degree n - 3: not simple);
* iso: true for permuted factors, false after perturbing one coefficient;
* tensor-map: ``passed``;
* verify: ``failed_total`` is 0;
* malformed input: exit code 2 and no exception escaping ``main``.

The unbounded ``act`` with exponent 10^6 is left out: it has no time bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import refmath
from common import Op
from refmath import G

VARIANTS = 6
POOL = 4
KAC_LEVEL = "20"
COMMANDS = ("bracket", "act", "char-validate", "char-split", "char-decompose",
            "reduce", "simplicity", "iso", "tensor-map")
MALFORMED = ("bad_json", "missing_file", "gaussian_under_q", "zero_denominator",
             "float_scalar", "list_for_map", "act_index_length")
# Roots of comparable size, so that seeds draw pools of about the same cost.
ROOTS = {
    "Q": ["2", "-2", "3", "-3", "4", "-4", "5"],
    "Qi": [{"re": str(a), "im": str(b)}
           for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1), (2, 1), (1, 2))],
}
VERIFY = (["--suite", "faulhaber"], ["--suite", "codim1"], ["--suite", "muhat-split"],
          ["--suite", "degreehom", "--nmax", "2"], ["--suite", "omega-iso", "--depth", "2"],
          ["--suite", "smalldegree-quotient"])


class _Gen:
    """Seeded draws of scalars, characters and spec files for one field."""

    def __init__(self, rng: random.Random, field: str):
        self.rng = rng
        self.field = field
        roots = rng.sample(ROOTS[field], POOL)
        # n in {1, 2} with deg p = n - 1: nonzero, large degree, reducible.
        self.pool = [self.character(lam, 1 + k % 2) for k, lam in enumerate(roots)]

    def scalar(self, nonzero=False):
        rng = self.rng
        while True:
            re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
            im = Fraction(rng.randint(-2, 2)) if self.field == "Qi" else Fraction(0)
            if not nonzero or re or im:
                return G(re, im).json()

    def character(self, lam, n, deg=None):
        deg = n - 1 if deg is None else deg
        p = [self.scalar() for _ in range(deg)] + [self.scalar(nonzero=True)] if deg >= 0 else []
        return {"lambda": lam, "n": n, "p": p}

    def pick(self, k):
        return [dict(c) for c in self.rng.sample(self.pool, k)]


def _e_part(gen: _Gen, idx):
    return {str(j): gen.scalar(nonzero=True) for j in idx}


def _spec_bracket(gen, v):
    a = gen.rng.sample(range(-4, 5), 2)
    b = [-a[0], gen.rng.choice([j for j in range(-4, 5) if j != -a[0]])]
    spec = {"kind": "vir",
            "a": {"e": _e_part(gen, a), "z": gen.scalar()},
            "b": {"e": _e_part(gen, b), "z": gen.scalar()}}
    e, z = refmath.vir_bracket(_parse_map(spec["a"]["e"]), _parse_map(spec["b"]["e"]))
    return spec, [], {"e": {str(k): c.json() for k, c in e.items()}, "z": z.json()}


def _spec_act(gen, v):
    c = gen.pool[v % POOL]
    lam, n = G.parse(c["lambda"]), c["n"]
    j = gen.rng.randint(-3, 3)
    g = refmath.poly_mul(refmath.linear_power(lam, n), {j: G(1)})
    want = refmath.peval([G.parse(x) for x in c["p"]], j) * lam**j
    spec = {"character": {"factors": [c]},
            "element": {"laurent": {str(e): x.json() for e, x in g.items()}},
            "vector": {"terms": [{"s": [0] * n, "c": "1"}]}}
    terms = [] if want.is_zero() else [{"s": [0] * n, "c": want.json()}]
    return spec, [], {"terms": terms}


def _spec_char_validate(gen, v):
    return {"character": {"factors": [gen.pool[v % POOL]]}, "range": [-8, 8]}, [], {}


def _spec_char_split(gen, v):
    c = gen.pool[v % POOL]
    m = v % 2
    window = {str(j): gen.scalar() for j in range(m, 2 * m + 1)}
    spec = {"character": {"factors": [c],
                          "restriction": {"m": m, "window": window, "z": gen.scalar()}}}
    return spec, [], {}


def _spec_char_decompose(gen, v):
    c1, c2 = gen.pick(2)
    factors = [gen.character(c["lambda"], c["n"], gen.rng.randint(-1, c["n"] - 1))
               for c in (c1, c2)]
    return {"character": {"factors": factors}}, [], {}


def _spec_reduce(gen, v):
    c = gen.pool[v % POOL]
    idx = {1: [[1], [2]], 2: [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]}[c["n"]]
    terms = [{"s": s, "c": gen.scalar(nonzero=True)} for s in gen.rng.sample(idx, 2)]
    return {"character": {"factors": [c]}, "vector": {"terms": terms}}, [], {}


def _spec_simplicity(gen, v):
    factors = gen.pick(2)
    kind = v % 4
    tail = {"type": "trivial"}
    if kind == 1:
        h = "1/3" if gen.field == "Q" else {"re": "1/3", "im": "1"}
        tail = {"type": "verma", "h": h, "c": "1"}
    elif kind == 2:
        k = gen.rng.randint(1, 3)
        tail = {"type": "verma", "h": str(Fraction(k * k, 4)), "c": "1"}
    elif kind == 3:
        lams = {json.dumps(f["lambda"], sort_keys=True) for f in factors}
        lam = next(x for x in ROOTS[gen.field] if json.dumps(x, sort_keys=True) not in lams)
        factors.append(gen.character(lam, 3, 0))
    return {"factors": factors, "tail": tail}, ["--kac-level", KAC_LEVEL], {"simple": kind < 2}


def _spec_iso(gen, v):
    a = gen.pick(3)
    b = [dict(f) for f in a]
    gen.rng.shuffle(b)
    iso = v % 2 == 0
    if not iso:
        f = b[0]
        p = list(f["p"])
        p[0] = (G.parse(p[0]) + 1).json()
        f["p"] = p
    return {"a": {"factors": a}, "b": {"factors": b}}, [], {"isomorphic": iso}


def _spec_tensor_map(gen, v):
    ones = [c for c in gen.pool if c["n"] == 1]
    if v % 2 == 0:
        return {"kind": "polynomial", "factors": ones[:2]}, ["--depth", "2"], {}
    window = {"0": gen.scalar()}
    spec = {"kind": "restricted",
            "character": {"factors": [ones[v % 2]],
                          "restriction": {"m": 0, "window": window, "z": gen.scalar()}}}
    return spec, ["--depth", "2"], {}


SPECS = {
    "bracket": _spec_bracket,
    "act": _spec_act,
    "char-validate": _spec_char_validate,
    "char-split": _spec_char_split,
    "char-decompose": _spec_char_decompose,
    "reduce": _spec_reduce,
    "simplicity": _spec_simplicity,
    "iso": _spec_iso,
    "tensor-map": _spec_tensor_map,
}


def _malformed(gen_q, cls, v):
    """(argv, spec file text or None) for one malformed-input request."""
    good = {"kind": "vir", "a": {"e": {"1": "1"}}, "b": {"e": {"-1": "1"}}}
    if cls == "bad_json":
        return ["bracket"], json.dumps(good)[:-7]
    if cls == "missing_file":
        return ["act"], None
    if cls == "gaussian_under_q":
        spec = dict(good, a={"e": {"2": {"re": "1", "im": str(1 + v % 3)}}})
        return ["bracket", "--field", "Q"], json.dumps(spec)
    if cls == "zero_denominator":
        return ["bracket"], json.dumps(dict(good, a={"e": {"2": f"{1 + v}/0"}}))
    if cls == "float_scalar":
        return ["bracket"], json.dumps(dict(good, a={"e": {"2": 1.5 + v}}))
    if cls == "list_for_map":
        return ["bracket"], json.dumps(dict(good, a={"e": ["1", str(v)]}))
    c = next(c for c in gen_q.pool if c["n"] == 2)
    spec = {"character": {"factors": [c]}, "element": {"laurent": {"1": "1"}},
            "vector": {"terms": [{"s": [1], "c": "1"}]}}
    return ["act"], json.dumps(spec)


def _parse_map(obj) -> dict:
    return {int(k): G.parse(c) for k, c in obj.items()}


def generate(seed: int) -> dict:
    rng = random.Random(f"cli-session:{seed}")
    gens = {field: _Gen(rng, field) for field in ("Q", "Qi")}
    files, requests = {}, {}
    for v in range(VARIANTS):
        for field, gen in gens.items():
            for cmd in COMMANDS:
                spec, extra, expect = SPECS[cmd](gen, v)
                name = f"{cmd}-{field}-{v}.json"
                files[name] = json.dumps(spec, sort_keys=True)
                requests[f"{cmd}/{field}/{v}"] = {
                    "kind": cmd, "malformed": False, "spec": name, "expect": expect,
                    "argv": [cmd, "--spec", "{dir}/" + name, "--field", field, *extra],
                }
        argv = ["verify", *VERIFY[v]]
        if "muhat-split" in argv:
            argv += ["--seed", str(rng.randint(0, 99))]
        requests[f"verify/{v}"] = {"kind": "verify", "malformed": False, "spec": None,
                                   "expect": {}, "argv": argv}
        for cls in MALFORMED:
            head, text = _malformed(gens["Q"], cls, v)
            name = f"malformed-{cls}-{v}.json"
            if text is not None:
                files[name] = text
            requests[f"malformed/{cls}/{v}"] = {
                "kind": cls, "malformed": True, "spec": name, "expect": {},
                "argv": [head[0], "--spec", "{dir}/" + name, *head[1:]],
            }
    rounds = []
    for v in range(VARIANTS):
        ids = [f"{cmd}/{field}/{v}" for cmd in COMMANDS for field in ("Q", "Qi")]
        ids += [f"verify/{v}"] + [f"malformed/{cls}/{v}" for cls in MALFORMED]
        rng.shuffle(ids)
        rounds.append(ids)
    return {"workload": "cli-session", "seed": seed, "files": files,
            "requests": requests, "rounds": rounds}


def prepare(vp, plan, workdir):
    """Write the spec files into ``workdir``, which is the run state; part of set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in plan["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    return workdir


def finish(state):
    return []


def unit(vp, plan, workdir):
    """One group per round of 26 requests, one round per variant; runs repeat them."""
    return [lambda ids=ids: [_op(vp, plan["requests"][i], i, workdir) for i in ids]
            for ids in plan["rounds"]]


def _op(vp, req, rid, workdir):
    argv = [a.replace("{dir}", str(workdir)) for a in req["argv"]]
    spec = json.loads((workdir / req["spec"]).read_text()) if req["kind"] in SPECS else None

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = vp.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    if req["malformed"]:
        check = _check_malformed
        label = f"malformed/{req['kind']}"
    else:
        def check(out, exc):
            return _check_valid(req, spec, out, exc)
        label = f"{req['kind']}/{rid.split('/')[1]}" if req["kind"] in SPECS else "verify"
    return Op(label, run, check, malformed=req["malformed"])


def _check_malformed(out, exc):
    if exc is not None:
        return f"uncaught {type(exc).__name__}"
    code, _stdout, stderr = out
    if code != 2:
        return f"exit {code}"
    if "Traceback" in stderr:
        return "traceback"
    return None


def _check_valid(req, spec, out, exc):
    if exc is not None:
        return f"uncaught {type(exc).__name__}"
    code, stdout, _stderr = out
    if code != 0:
        return f"exit {code}"
    report = json.loads(stdout)
    ok = CHECKS[req["kind"]](spec, req["expect"], report)
    return None if ok else "wrong answer"


def _same_map(a: dict, b: dict) -> bool:
    a = {k: v for k, v in a.items() if not v.is_zero()}
    b = {k: v for k, v in b.items() if not v.is_zero()}
    return a == b


def _ok_bracket(spec, want, got):
    res = got["result"]
    return (_same_map(_parse_map(res["e"]), _parse_map(want["e"]))
            and G.parse(res["z"]) == G.parse(want["z"]))


def _terms(obj):
    return {tuple(t["s"]): G.parse(t["c"]) for t in obj["terms"]}


def _ok_act(spec, want, got):
    return _same_map(_terms(got["result"]), _terms(want))


def _ok_char_split(spec, want, got):
    char = spec["character"]
    (lam, n, p), = refmath.parse_factors(char["factors"])
    r = char["restriction"]
    m = r["m"]
    a = refmath.linear_power(lam, n)
    ddot = refmath.parse_factors(got["mu_ddot"]["factors"])
    hat = _parse_map(got["mu_hat"]["window"])
    for j in range(m, 2 * m + n + 1):
        mu_x = G.parse(r["window"][str(j)]) if j <= 2 * m else refmath.exp_poly_value([(lam, n, p)], j)
        rebuilt = refmath.exp_poly_value(ddot, j)
        for i, ai in a.items():
            rebuilt = rebuilt + ai * hat.get(j + i, G(0))
        if rebuilt != mu_x:
            return False
    return True


def _ok_char_decompose(spec, want, got):
    factors = refmath.parse_factors(spec["character"]["factors"])
    parts = [refmath.parse_factors(c["factors"])[0] for c in got["components"]]
    if sorted(json.dumps(x.json(), sort_keys=True) for x, _, _ in parts) != sorted(
            json.dumps(x.json(), sort_keys=True) for x, _, _ in factors):
        return False
    for j in range(-4, 5):
        total = G(0)
        for lam, n, p in parts:
            others = {0: G(1)}
            for lam2, n2, _ in parts:
                if lam2 != lam:
                    others = refmath.poly_mul(others, refmath.linear_power(lam2, n2))
            for k, c in others.items():
                total = total + c * refmath.peval(p, j + k) * lam ** (j + k)
        if total != refmath.exp_poly_value(factors, j):
            return False
    return True


CHECKS = {
    "bracket": _ok_bracket,
    "act": _ok_act,
    "char-validate": lambda spec, want, got: got["valid"] is True,
    "char-split": _ok_char_split,
    "char-decompose": _ok_char_decompose,
    "reduce": lambda spec, want, got: got["generator_span"] is True,
    "simplicity": lambda spec, want, got: got["simple"] is want["simple"],
    "iso": lambda spec, want, got: got["isomorphic"] is want["isomorphic"],
    "tensor-map": lambda spec, want, got: got["passed"] is True,
    "verify": lambda spec, want, got: got["failed_total"] == 0 and len(got["suites"]) == 1
    and got["suites"][0]["cases"] > 0,
}


# The traced unit: one round of every variant, the first one cold.
TRACE_GROUPS = VARIANTS
