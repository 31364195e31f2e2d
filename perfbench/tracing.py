"""Spans and counters for the traced run, installed from outside ``src/``.

``Tracer.install`` replaces each traced function in every virpoly module
that holds it, so a name bound by ``from .x import y`` (``tensor.poly_divmod``,
``verify.closed_form_bracket``, ...) is traced as well as the defining
module's own, and a call-time import such as ``_act_idx``'s
``from .laurent import f_adic_decompose`` finds the traced one.  Methods
are replaced on their class.  ``Scalar`` arithmetic is counted, never
spanned.  Spans stay in memory, one tuple each with its parent link and the
op it belongs to, until ``write_spans`` is called at the end.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter

from common import MODULES

# Traced names per layer; "Class.method" names are replaced on the class.
SPANS = {
    "laurent": ("f_adic_decompose", "poly_divmod", "divide_exact", "t_inverse_mod",
                "bezout", "lie_bracket"),
    "characters": ("ExpPolyCharacter.value_power", "ExpPolyCharacter.seq",
                   "ExpPolyCharacter.eval", "ExpPolyCharacter.validate", "compose",
                   "decompose", "restrict", "solve_exp_poly",
                   "RestrictedCharacter.split_muhat", "RestrictedCharacter.muhat_closed_forms"),
    "virasoro": ("vir_bracket", "theta", "twist", "central_defect", "codim1_closure_check"),
    "induced": ("InducedModule.act", "InducedModule.act_on_index", "closed_form_bracket",
                "bracket_action_oracle", "reduce_step", "reduce_to_generator",
                "omega_iso_check", "quotient_smalldegree"),
    "tailmod": ("TailModule.act_vir", "kac_phi", "verma_simple_upto", "mbar_simple",
                "whittaker_simple", "tail_simplicity", "ann_bound"),
    "tensor": ("tensor_act", "_rank", "_word_vectors", "_abstract_slice_dim",
               "general_tensor_map", "restricted_to_tensor", "simplicity_verdict",
               "iso_decide", "cyclic_reduce", "annihilating_shift"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__")
OP_SPAN = "bench.op"

# (metric, unit) in report order; see ``Tracer.metrics``.
PER_LAYER = (
    ("scalars.ops", "count"), ("scalars.gaussian_share", "ratio"),
    ("laurent.f_adic_decompose.calls", "count"), ("laurent.f_adic_decompose.self_s", "s"),
    ("laurent.poly_divmod.calls", "count"), ("laurent.divide_exact.calls", "count"),
    ("laurent.t_inverse_mod.calls", "count"), ("laurent.self_s", "s"),
    ("characters.value_power.calls", "count"), ("characters.power_cache_entries", "count"),
    ("characters.self_s", "s"),
    ("induced.act.calls", "count"), ("induced.closed_form.calls", "count"),
    ("induced.oracle.calls", "count"), ("induced.reduce_step.calls", "count"),
    ("induced.self_s", "s"), ("induced.engines", "count"),
    ("induced.act_cache_entries", "count"), ("induced.lmul_cache_entries", "count"),
    ("virasoro.vir_bracket.calls", "count"), ("virasoro.theta.calls", "count"),
    ("virasoro.self_s", "s"),
    ("tailmod.act_vir.calls", "count"), ("tailmod.cache_entries", "count"),
    ("tailmod.kac_phi.calls", "count"), ("tailmod.self_s", "s"),
    ("tensor.tensor_act.calls", "count"), ("tensor.rank.rows", "count"),
    ("tensor.rank.yield", "ratio"), ("tensor.rank.self_s", "s"),
    ("tensor.word_vectors.self_s", "s"), ("tensor.slice_dim.self_s", "s"),
    ("tensor.self_s", "s"),
    ("verify.cases", "count"), ("verify.self_s", "s"),
    ("cli.requests", "count"), ("cli.exit.0", "count"), ("cli.exit.1", "count"),
    ("cli.exit.2", "count"), ("cli.uncaught", "count"), ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, parent_id, op_id, name, start, end)
        self.stack = []  # open frames [span_id, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.scalar = [0, 0]  # Scalar ops, those with a nonzero imaginary part
        self.cases = [0]
        self.rank = [0, 0]  # rows fed to tensor._rank, rank found
        self.exits = Counter()
        self.op_id = None
        self._ids = itertools.count()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, calls, self_s, ids = self.spans, self.stack, self.calls, self.self_s, self._ids

        def traced(*args, **kwargs):
            calls[name] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], parent, self.op_id, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack.append([next(self._ids), 0.0])
        self._op_t0 = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        frame = self.stack.pop()
        self.self_s[OP_SPAN] += (t1 - self._op_t0) - frame[1]
        self.spans.append((frame[0], None, self.op_id, OP_SPAN, self._op_t0, t1))

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, vp) -> None:
        modules = [vp.package] + [getattr(vp, m) for m in MODULES]
        for layer, names in SPANS.items():
            mod = getattr(vp, layer)
            for name in names:
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self._span(full, cls.__dict__[meth]))
                    continue
                orig = getattr(mod, name)
                wrapped = self._span(full, orig)
                if full == "tensor._rank":
                    wrapped = self._count_rank(wrapped)
                elif full == "cli.main":
                    wrapped = self._count_exits(wrapped)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapped)
        Scalar = vp.scalars.Scalar
        for op in SCALAR_OPS:
            self._set(Scalar, op, self._count_scalar(Scalar.__dict__[op], Scalar))
        record = vp.verify._Recorder.__dict__["record"]
        cases = self.cases

        def counted_record(rec, ok, detail):
            cases[0] += 1
            return record(rec, ok, detail)

        self._set(vp.verify._Recorder, "record", counted_record)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_scalar(self, fn, Scalar):
        tally = self.scalar

        def counted(a, b):
            tally[0] += 1
            if a.im or (b.__class__ is Scalar and b.im):
                tally[1] += 1
            return fn(a, b)

        return counted

    def _count_rank(self, fn):
        tally = self.rank

        def rank(vectors):
            rows = list(vectors)
            out = fn(rows)
            tally[0] += len(rows)
            tally[1] += out
            return out

        return rank

    def _count_exits(self, fn):
        exits = self.exits

        def main(argv=None):
            try:
                code = fn(argv)
            except SystemExit as exc:
                exits[exc.code] += 1
                raise
            except Exception:
                exits["uncaught"] += 1
                raise
            exits[code] += 1
            return code

        return main

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self, caches: dict, overhead_ratio: float) -> dict:
        """Every per-layer metric; ``caches`` is ``common.cache_sizes`` read after the run."""
        c, s = self.calls, self.self_s
        ops, gaussian = self.scalar
        rows, rank = self.rank
        values = {
            "scalars.ops": ops,
            "scalars.gaussian_share": gaussian / ops if ops else 0.0,
            "laurent.f_adic_decompose.calls": c["laurent.f_adic_decompose"],
            "laurent.f_adic_decompose.self_s": s["laurent.f_adic_decompose"],
            "laurent.poly_divmod.calls": c["laurent.poly_divmod"],
            "laurent.divide_exact.calls": c["laurent.divide_exact"],
            "laurent.t_inverse_mod.calls": c["laurent.t_inverse_mod"],
            "laurent.self_s": self.layer_self_s("laurent"),
            "characters.value_power.calls": c["characters.ExpPolyCharacter.value_power"],
            "characters.power_cache_entries": caches["characters.power_cache_entries"],
            "characters.self_s": self.layer_self_s("characters"),
            "induced.act.calls": c["induced.InducedModule.act"]
            + c["induced.InducedModule.act_on_index"],
            "induced.closed_form.calls": c["induced.closed_form_bracket"],
            "induced.oracle.calls": c["induced.bracket_action_oracle"],
            "induced.reduce_step.calls": c["induced.reduce_step"],
            "induced.self_s": self.layer_self_s("induced"),
            "induced.engines": caches["induced.engines"],
            "induced.act_cache_entries": caches["induced.act_cache_entries"],
            "induced.lmul_cache_entries": caches["induced.lmul_cache_entries"],
            "virasoro.vir_bracket.calls": c["virasoro.vir_bracket"],
            "virasoro.theta.calls": c["virasoro.theta"],
            "virasoro.self_s": self.layer_self_s("virasoro"),
            "tailmod.act_vir.calls": c["tailmod.TailModule.act_vir"],
            "tailmod.cache_entries": caches["tailmod.cache_entries"],
            "tailmod.kac_phi.calls": c["tailmod.kac_phi"],
            "tailmod.self_s": self.layer_self_s("tailmod"),
            "tensor.tensor_act.calls": c["tensor.tensor_act"],
            "tensor.rank.rows": rows,
            "tensor.rank.yield": rank / rows if rows else 0.0,
            "tensor.rank.self_s": s["tensor._rank"],
            "tensor.word_vectors.self_s": s["tensor._word_vectors"],
            "tensor.slice_dim.self_s": s["tensor._abstract_slice_dim"],
            "tensor.self_s": self.layer_self_s("tensor"),
            "verify.cases": self.cases[0],
            "verify.self_s": self.layer_self_s("verify"),
            "cli.requests": c["cli.main"],
            "cli.exit.0": self.exits[0],
            "cli.exit.1": self.exits[1],
            "cli.exit.2": self.exits[2],
            "cli.uncaught": self.exits["uncaught"],
            "cli.self_s": self.layer_self_s("cli"),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write_spans(self, path) -> None:
        """One JSON line per span: id, parent, op, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")
