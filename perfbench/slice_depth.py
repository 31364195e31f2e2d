"""Workload ``slice-depth``: ``general_tensor_map`` at growing depth.

One group is a cycle of nine calls on seeded sources: polynomial
products of two linear factors at depths 1..5, and restricted characters
with the m = 0 Verma tail and the m = 1 Whittaker tail at depths 3 and 4.
Each call must report ``passed`` with the rank measured when the benchmark
was written; the rank of a slice depends on the shape of the source, not on
the drawn values, so the known ranks hold for every seed.
"""

from __future__ import annotations

import random

import common
from common import Op

ROOTS = ["1", "2", "3", "-1", "-2", "-3"]
VALUES = (-3, -2, -1, 1, 2, 3)

# Ranks of the depth-d slice, measured on the seed code and fixed here.
KNOWN_RANK = {
    ("restricted", 0, 3): 48,
    ("restricted", 0, 4): 223,
    ("restricted", 1, 3): 42,
    ("restricted", 1, 4): 192,
    ("polynomial", None, 1): 3,
    ("polynomial", None, 2): 6,
    ("polynomial", None, 3): 10,
    ("polynomial", None, 4): 15,
    ("polynomial", None, 5): 21,
}


def generate(seed: int) -> dict:
    rng = random.Random(f"slice-depth:{seed}")
    items = []
    for (kind, m, depth) in KNOWN_RANK:
        if kind == "polynomial":
            factors = [{"lambda": lam, "n": 1, "p": [str(rng.choice(VALUES))]}
                       for lam in rng.sample(ROOTS, 2)]
            items.append({"kind": kind, "depth": depth, "factors": factors})
        else:
            window = {str(j): str(rng.choice(VALUES)) for j in range(m, 2 * m + 2)}
            items.append({"kind": kind, "m": m, "depth": depth, "lambda": rng.choice(ROOTS),
                          "window": window, "z": str(rng.choice(VALUES))})
    return {"workload": "slice-depth", "seed": seed, "items": items}


def prepare(vp, plan, workdir):
    return None


def finish(state):
    return []


def unit(vp, plan, state):
    """One group, the whole cycle, from cold caches; runs repeat it."""
    return [lambda: _cycle(vp, plan["items"])]


def _cycle(vp, items):
    common.reset_caches(vp)
    return [_op(vp, item) for item in items]


def _op(vp, item):
    Scalar = vp.scalars.Scalar
    kind, depth = item["kind"], item["depth"]
    if kind == "polynomial":
        source = [
            vp.characters.single_root_character(
                Scalar.from_json(f["lambda"]), f["n"], [Scalar.from_json(c) for c in f["p"]])
            for f in item["factors"]
        ]
        key = (kind, None, depth)
    else:
        source = vp.characters.RestrictedCharacter.from_window(
            [(Scalar.from_json(item["lambda"]), 1)], item["m"],
            {int(j): Scalar.from_json(v) for j, v in item["window"].items()},
            Scalar.from_json(item["z"]),
        )
        key = (kind, item["m"], depth)
    want = KNOWN_RANK[key]

    def run():
        return vp.tensor.general_tensor_map(source, depth, kind=kind)

    def check(out, exc):
        if exc is not None:
            return f"exception {type(exc).__name__}"
        if not out["passed"]:
            return "not passed"
        if out["rank"] != want or out["expected_rank"] != want:
            return f"rank {out['rank']}/{out['expected_rank']} != {want}"
        return None

    label = f"{kind}/m{item.get('m', '-')}/d{depth}"
    return Op(label, run, check)


# The traced unit: one cycle.
TRACE_GROUPS = 1
