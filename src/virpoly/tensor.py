"""Tensor products of single-root induced modules with a tail module.

Basis vectors are tuples of per-factor multi-indices together with a basis
monomial of the tail (the empty monomial for the trivial tail); the Lie
action is the Leibniz sum across the slots.  The central element acts only
through the tail: the induced factors kill z.

The cyclicity engine walks an element down to the span of the joint
generator by the leading-index reduction: annihilate every slot except the
leading one with a Bezout-split power of its linear factor, shifted far
enough up to kill the tail, then strictly decrease the leading index.
"""

from __future__ import annotations

from .characters import ExpPolyCharacter, RestrictedCharacter, compose, decompose
from .densepoly import pdeg
from .errors import DepthTooSmall, HypothesisViolation, SearchExhausted, VirpolyError
from .induced import ell, get_engine
from .laurent import ONE_POLY, LaurentPoly, bezout, poly_divmod
from .scalars import Scalar, json_list, json_map
from .sparse import Echelon, SparseVector, accumulate, bilinear
from .tailmod import TailModuleSpec, ann_bound, get_tail_engine, tail_simplicity
from .virasoro import VirElement, theta, vir_bracket


class TensorSpec:
    """Factors (single-root characters with pairwise distinct roots) plus a tail."""

    __slots__ = ("factors", "tail", "_engines", "_tail_engine")

    def __init__(self, factors, tail: TailModuleSpec = None):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one induced factor")
        seen = set()
        for mu in factors:
            if not mu.is_single_root():
                raise ValueError("tensor factors must be single-root characters")
            lam, _, _ = mu.root_data()
            if lam in seen:
                raise ValueError("factor roots must be pairwise distinct")
            seen.add(lam)
        self.factors = factors
        self.tail = tail if tail is not None else TailModuleSpec.trivial()
        # the engines are looked up once, through the registries, and live
        # as long as the spec even when the registries are emptied
        self._engines = tuple(get_engine(mu) for mu in factors)
        self._tail_engine = None if self.tail.is_trivial() else get_tail_engine(self.tail)

    def engines(self) -> tuple:
        return self._engines

    def column(self, k: int, key):
        """e_k on the induced slots of the basis vector key = (parts, mono).

        The Leibniz sum over the factors: each slot's memo entry, re-keyed by
        tensor keys into a fresh map.  The tail acts in ``tensor_act``.
        """
        parts, mono = key
        out = {}
        for i, eng in enumerate(self._engines):
            head, rest = parts[:i], parts[i + 1 :]
            moved = eng._act_idx(k, parts[i])
            accumulate(out, {(head + (idx,) + rest, mono): c for idx, c in moved.items()})
        return out

    def zero_index(self):
        return tuple(eng.zero_index for eng in self._engines)

    def generator(self) -> "TensorElement":
        return TensorElement({(self.zero_index(), ()): 1})

    def to_json(self):
        return {
            "factors": [mu.to_json()["factors"][0] for mu in self.factors],
            "tail": self.tail.to_json(),
        }

    @staticmethod
    def factors_from_json(obj) -> list:
        """One single-root character per entry of obj["factors"]."""
        return [
            ExpPolyCharacter.from_json({"factors": [f]})
            for f in json_list(obj["factors"], "the factors")
        ]

    @staticmethod
    def from_json(obj) -> "TensorSpec":
        obj = json_map(obj, "a tensor spec")
        tail = TailModuleSpec.from_json(obj.get("tail", {"type": "trivial"}))
        return TensorSpec(TensorSpec.factors_from_json(obj), tail)


class TensorElement(SparseVector):
    """Finite map (parts, tail monomial) -> Scalar."""

    __slots__ = ()

    def leading_concat(self) -> tuple:
        """Lexicographic maximum of the concatenated factor indices."""
        if not self.terms:
            raise HypothesisViolation("zero tensor element has no leading index")
        return max(sum(parts, ()) for parts, _ in self.terms)

    def to_json(self):
        return {
            "terms": [
                {
                    "parts": [list(p) for p in parts],
                    "tail": list(mono),
                    "c": self.terms[(parts, mono)].to_json(),
                }
                for parts, mono in sorted(self.terms)
            ]
        }


def tensor_act(spec: TensorSpec, x: VirElement, v: TensorElement) -> TensorElement:
    """Leibniz action: the e part through the spec's columns on the induced
    slots, then the tail's ``act_vir`` on each term, which also carries z
    (the induced factors kill it, so a trivial tail leaves z nothing)."""
    out = bilinear(spec.column, theta(x).terms, v.terms)
    tail = spec._tail_engine
    if tail is not None:
        for (parts, mono), c in v.terms.items():
            moved = tail.act_vir(x, {mono: c})
            accumulate(out, {(parts, mono2): c2 for mono2, c2 in moved.items()})
    return TensorElement.adopt(out)


def _annihilation_exponents(spec: TensorSpec, v: TensorElement):
    """Safe per-factor exponents N_i with <f_i^{N_i}> killing slot i of v.

    N_i = n_i + r_i + (largest first coordinate appearing in slot i) + 1
    makes both the character values and the brackets vanish.
    """
    out = []
    for i, mu in enumerate(spec.factors):
        _, n, p = mu.root_data()
        s0max = 0
        for (parts, _mono) in v.terms:
            if parts[i]:
                s0max = max(s0max, parts[i][0])
        out.append(n + pdeg(p) + s0max + 1)
    return out


def annihilating_shift(spec: TensorSpec, h: LaurentPoly, L: int, w: TensorElement) -> LaurentPoly:
    """A polynomial supported in degrees >= L acting on w like h.

    Write h = g1 t^L + g2 F with F the product of the per-factor annihilating
    powers; the F part acts by zero on the induced slots, so g1 t^L does the
    job.  Coprimality of t^L and F is automatic for nonzero roots.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    if not h.is_polynomial():
        raise ValueError("h must lie in C[t]")
    exps = _annihilation_exponents(spec, w)
    F = ONE_POLY
    for eng, N in zip(spec.engines(), exps):
        F = F * eng.fpow(N)
    if L == 0:
        return h
    tL = LaurentPoly({L: 1})
    u, _v = bezout(tL, F)
    g1 = poly_divmod(h * u, F)[1]
    return g1 * tL


CYCLIC_MAX_STEPS = 64  # bound on the descent


def cyclic_reduce(spec: TensorSpec, w: TensorElement):
    """Reduce w to an element supported on the joint generator index.

    Implements the leading-index descent: pick the first slot i0 whose
    leading part is nonzero, Bezout-split f_{i0}^m against the other slots'
    annihilators, and shift by j = L, the tail's annihilation bound.  The
    coefficient that lowers the leading index is a nonzero constant times
    lambda^j, so the leading concatenated index strictly drops at any shift
    that kills the tail; the drop is still checked.  Hypotheses: every
    factor degree r_i >= n_i - 2 with a nonzero character (the tail itself
    is untouched, so its simplicity is not needed for the descent).
    """
    for mu in spec.factors:
        _, n, p = mu.root_data()
        if pdeg(p) < n - 2 or mu.is_zero_map():
            raise HypothesisViolation(
                "cyclic reduction needs nonzero factors of degree >= n-2"
            )
    if w.is_zero():
        raise HypothesisViolation("cannot reduce the zero vector")
    engines = spec.engines()
    trace = []
    cur = w
    for _ in range(CYCLIC_MAX_STEPS):
        lead_parts = max(parts for parts, _ in cur.terms)
        if all(not any(p) for p in lead_parts):
            return trace, cur
        i0 = next(i for i, p in enumerate(lead_parts) if any(p))
        mu = spec.factors[i0]
        _, n, p = mu.root_data()
        r = pdeg(p)
        u = lead_parts[i0]
        l = ell(u)
        m = n + r + 1 - l if l > 0 else n + r + u[0]
        exps = _annihilation_exponents(spec, cur)
        F_lead = engines[i0].fpow(max(exps[i0], m + 1))
        F_hat = ONE_POLY
        for i, eng in enumerate(engines):
            if i != i0:
                F_hat = F_hat * eng.fpow(exps[i])
        ubez, vbez = bezout(F_lead, F_hat)
        fm = engines[i0].fpow(m)
        g_hat = poly_divmod(fm * vbez, F_lead)[1]
        L = ann_bound(spec.tail, [mono for _, mono in cur.terms])
        op = (g_hat * F_hat).shift(L)
        w2 = tensor_act(spec, VirElement.from_laurent(op), cur) - cur * mu.value_power(L, m)
        if w2.is_zero() or not w2.leading_concat() < cur.leading_concat():
            raise SearchExhausted(f"the shift j = {L} did not decrease the leading index")
        trace.append({"factor": i0, "j": L, "m": m})
        cur = w2
    raise SearchExhausted(f"reduction did not terminate within {CYCLIC_MAX_STEPS} steps")


def simplicity_verdict(spec: TensorSpec, kac_level: int = 20) -> dict:
    """Combine the per-factor degree criterion with the tail criterion.

    A factor is good when deg p >= n - 2; the linear boundary case n = 1
    with the zero character is flagged separately (its module has the
    obvious proper submodule, so it is counted as not simple).
    """
    factors = []
    all_large = True
    zero_linear = False
    for mu in spec.factors:
        lam, n, p = mu.root_data()
        r = pdeg(p)
        large = r >= n - 2
        flag = n == 1 and r == -1
        zero_linear = zero_linear or flag
        all_large = all_large and large
        factors.append(
            {
                "lambda": lam.to_json(),
                "n": n,
                "degree": r,
                "large_degree": large,
                "zero_linear_factor": flag,
            }
        )
    tail = tail_simplicity(spec.tail, kac_level)
    verdict = all_large and tail["simple"] and not zero_linear
    report = {
        "factors": factors,
        "large_degree": all_large,
        "tail": {
            "kind": tail["kind"],
            "simple": tail["simple"],
        },
        "simple": verdict,
    }
    if tail["kind"] == "verma":
        report["tail"]["kac_level"] = kac_level
        report["tail"]["degenerate"] = tail["detail"]["degenerate"]
    return report


def restricted_to_tensor(rc: RestrictedCharacter):
    """Tensor realization of a b_m^F-induced module.

    Splits the character into its full-subalgebra part and the hat part, then
    decomposes the former into single-root factors; the hat part becomes the
    b_m tail, whose family follows m (the quotient for m = -1, Verma for
    m = 0, Whittaker for m >= 1).  Returns the spec together with the
    closed-form hat values.
    """
    ddot, hat = rc.split_muhat()
    window = hat["window"]
    spec = TensorSpec(decompose(ddot), TailModuleSpec(rc.m, window, hat["z"]))
    report = {
        "m": rc.m,
        "hat_window": {str(j): window[j].to_json() for j in sorted(window)},
        "closed_forms": {k: v.to_json() for k, v in rc.muhat_closed_forms().items()},
    }
    return spec, report


def iso_decide(a: TensorSpec, b: TensorSpec) -> dict:
    """Isomorphism of two tensor products, decided on parameter data.

    Isomorphic iff the factor multisets match exactly (root, multiplicity,
    polynomial) after a permutation and the tails agree within the built-in
    families (equal parameters).  Both specs are assumed to carry simple
    tails; cross-family tails are reported as non-isomorphic.
    """
    if len(a.factors) != len(b.factors):
        return {"isomorphic": False, "reason": "different factor counts"}
    remaining = list(range(len(b.factors)))
    perm = []
    for mu in a.factors:
        found = None
        for idx in remaining:
            if b.factors[idx] == mu:
                found = idx
                break
        if found is None:
            return {"isomorphic": False, "reason": "factor data differ"}
        remaining.remove(found)
        perm.append(found)
    if a.tail != b.tail:
        return {"isomorphic": False, "reason": "tail parameters differ"}
    return {"isomorphic": True, "permutation": perm}


# -- slice verification of the induction isomorphisms ----------------------------


def _rank(labels) -> int:
    """Rank of the span of an ``Echelon``: its number of labels.

    The rows are in reduced form with distinct labels, so they are already
    independent and nothing is eliminated again.  Any sized iterable of the
    labels will do.
    """
    return len(labels)


def _word_vectors(spec: TensorSpec, letters, depth: int):
    """The ``Echelon`` whose pivot rows span the images word . v0 of the
    words of length <= depth.

    The span grows by layers, W_d = W_(d-1) + sum_g g W_(d-1), and each image
    is reduced into the rows as it arrives.  Let N_d be the rows of the labels
    that layer d added, read after the layer's call.  While the layer runs, a
    new row is r = w - sum_j c_j p_j for its image w and the rows p_j so far,
    and its insertion subtracts multiples of r from earlier rows: a row of an
    earlier layer stays in W_(d-1) + span of the layer's rows, and a row of
    the layer changes triangularly, which keeps the span of the layer's rows.
    By induction along the layer, W_(d-1) + span of the layer's rows is
    W_(d-1) + span of its images so far; at the end of the call that is W_d.
    So W_d = W_(d-1) + span N_d, and since g W_(d-1) lies in W_d,
    W_(d+1) = W_d + sum_g g span N_d: only the new rows are acted on again,
    as they stand after their layer's call.  ``Echelon`` replaces a row
    instead of changing it, so the layer being acted on stays fixed while
    the next layer's rows arrive.  A row, already reduced, tends to be
    shorter than its image, so the next layer acts on fewer terms.
    """
    letters = [VirElement.from_laurent(g) for g in letters]
    rows = Echelon((spec.generator().terms,))
    size = 0
    for _ in range(depth):
        layer = [TensorElement.adopt(row) for row in list(rows.pivots.values())[size:]]
        size = len(rows)
        rows.extend(tensor_act(spec, g, v).terms for v in layer for g in letters)
    return rows


def _quotient_reducer(F: LaurentPoly, m: int):
    """Coordinates of theta(x) in C[t^+-]/span{t^j F : j >= m}.

    Exponents below m survive untouched; the part above reduces modulo F
    inside t^m C[t].  The polynomial kind passes m = 0: its letters
    t^0 .. t^(deg F - 1) bracket inside C[t], and C[t] meets the ideal
    F C[t^+-] in F C[t], so there this is the quotient by the ideal.
    """

    def reduce(x: VirElement) -> dict:
        g = theta(x)
        out = {}
        high = {}
        for e, c in g.terms.items():
            if e < m:
                out[("e", e)] = c
            else:
                high[e - m] = c
        if high:
            residue = poly_divmod(LaurentPoly(high), F)[1]
            for e, c in residue.terms.items():
                out[("w", e)] = c
        return out

    return reduce


def _abstract_slice_dim(letters, reduce, depth: int) -> int:
    """Dimension of the depth-d slice of the induced module, by PBW counting.

    The words of length <= d over the letters, pushed into the induced module,
    span a space whose associated graded is spanned by the products of images
    of iterated letter brackets with total bracket length <= d (PBW: the
    associated graded of the induced module is S(Vir/Vir^F)).  The images live
    in the quotient of the algebra by the inducing subalgebra, where z dies,
    so the dimension is pure linear algebra, independent of any action engine.

    Let V_k be the span of the images of the brackets of length <= k and
    n_k = dim V_k - dim V_(k-1).  A basis of V_d adapted to this filtration
    turns the span of products into the span of its monomials of weight <= d,
    which are independent in the symmetric algebra; so the dimension is the
    number of multisets of total weight <= d with n_k kinds of weight k, the
    sum of the coefficients of prod_k (1 - x^k)^(-n_k) up to x^d.

    Since [span B, L] = span [B, L], each length is bracketed from a basis of
    the span of the previous length's brackets (modulo z, which is central).
    """
    letter_elems = [VirElement.from_laurent(g) for g in letters]
    layer = letter_elems
    images = Echelon()
    counts = []
    for k in range(1, depth + 1):
        if k > 1:
            layer = [vir_bracket(b, l) for b in layer for l in letter_elems]
        span = Echelon(x.e_part.terms for x in layer)
        layer = [VirElement(row) for row in span.pivots.values()]
        size = len(images)
        images.extend(map(reduce, layer))
        counts.append(len(images) - size)
    series = [1] + [0] * depth
    for k, n in enumerate(counts, 1):
        for _ in range(n):
            for j in range(k, depth + 1):
                series[j] += series[j - k]
    return sum(series)


# The largest slice rank the word span is built for: just above 30,232, the
# largest depth-7 rank of one linear factor (m = -1), which the indexed
# elimination checks cold in about 5-8 s and 82 MB; depth 8 counts 109,486
# and more, and takes 29-48 s and 279-463 MB, too near half a gigabyte.
MAX_SLICE_RANK = 30300


def general_tensor_map(source, depth: int, kind: str = "polynomial") -> dict:
    """Slice verification of the induced-module tensor factorizations.

    kind "polynomial": ``source`` is a list of single-root characters; the
    claim is that the module induced from the product subalgebra matches the
    tensor of the single-root modules.  kind "restricted": ``source`` is a
    RestrictedCharacter; the claim matches the module induced from b_m^F
    with the tensor of the full-subalgebra module and the hat tail.

    Two checks at the given depth:
      * generator equivariance: every subalgebra basis element within the
        depth window acts on the joint generator by the composed character
        value (and z by its value);
      * injectivity: the rank of all word images over a letter alphabet in
        the tensor realization equals the abstract slice dimension counted
        from PBW filtration dimensions alone.

    The count comes first and is cheap; a slice whose counted rank exceeds
    ``MAX_SLICE_RANK`` raises VirpolyError before any word is formed.
    """
    if depth < 1:
        raise DepthTooSmall("slice comparison is vacuous below depth 1")
    if kind == "polynomial":
        parts = list(source)
        spec = TensorSpec(parts, TailModuleSpec.trivial())
        composite = compose(parts)
        F = composite.ambient
        window = range(-depth, depth + 1)
        value = composite.seq
        z_value = Scalar(0)
        letters = [LaurentPoly({i: 1}) for i in range(F.degree())]
        m = 0
    elif kind == "restricted":
        rc = source
        spec, _report = restricted_to_tensor(rc)
        F = rc.ambient()
        window = range(rc.m, rc.m + 2 * depth + 1)
        value = rc.mu_x
        z_value = rc.z_value
        m = rc.m
        letters = [LaurentPoly({i: 1}) for i in range(m - depth, m + F.degree())]
    else:
        raise ValueError(f"unknown verification kind {kind!r}")
    expected = _abstract_slice_dim(letters, _quotient_reducer(F, m), depth)
    if expected > MAX_SLICE_RANK:
        raise VirpolyError(
            f"the depth-{depth} slice has rank {expected}; slices are checked up to rank {MAX_SLICE_RANK}"
        )
    gen = spec.generator()
    equiv = all(
        tensor_act(spec, VirElement.from_laurent(F.shift(j)), gen) == gen * value(j)
        for j in window
    ) and tensor_act(spec, VirElement.z(), gen) == gen * z_value
    rank = _rank(_word_vectors(spec, letters, depth))
    return {
        "kind": kind,
        "depth": depth,
        "equivariance": equiv,
        "rank": rank,
        "expected_rank": expected,
        "injective": rank == expected,
        "passed": equiv and rank == expected,
    }
