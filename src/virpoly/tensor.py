"""Tensor products of single-root induced modules with a tail module.

A basis vector is one flat tuple (s_1, ..., s_k, mono): a multi-index per
factor, and in the last slot a basis monomial of the tail (the empty
monomial for the trivial tail).  The Lie action is the Leibniz sum across
the slots, the tail's among them.  The central element acts only through
the tail: the induced factors kill z.

The cyclicity engine walks an element down to the span of the joint
generator by the single-root descent of ``induced.descent_power``, one slot
at a time, in the induced module's loop ``induced.descend``: the step's
power of the leading slot's linear factor is lifted (``_lift``) to a
multiple of the other slots' annihilators and shifted far enough up to kill
the tail, so it lowers the leading slot's part to the descent's target and
touches nothing else.
"""

from __future__ import annotations

from itertools import islice

from .characters import ExpPolyCharacter, RestrictedCharacter, check_degree, compose, decompose
from .densepoly import pdeg
from .errors import DepthTooSmall, SearchExhausted, VirpolyError
from .induced import descend, descent_power, get_engine
from .laurent import ONE_POLY, LaurentPoly, bezout, poly_divmod
from .scalars import Scalar, json_field, json_list, json_map
from .sparse import Echelon, SparseVector, accumulate, add_term, scales
from .tailmod import TailModuleSpec, ann_bound, get_tail_engine, tail_simplicity
from .virasoro import VirElement, theta, vir_bracket


class TensorSpec:
    """Factors (single-root characters with pairwise distinct roots) plus a tail."""

    __slots__ = ("factors", "tail", "engines", "_tail_engine", "_columns")

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
        self.engines = tuple(get_engine(mu) for mu in factors)
        self._tail_engine = None if self.tail.is_trivial() else get_tail_engine(self.tail)
        # (slot, column) for each slot the Lie algebra moves: the factors,
        # then the tail; the trivial tail's slot stays ()
        columns = [eng._act_idx for eng in self.engines]
        if self._tail_engine is not None:
            columns.append(self._tail_engine._act_e)
        self._columns = tuple(enumerate(columns))

    def zero_index(self):
        return tuple(eng.zero_index for eng in self.engines)

    def generator(self) -> "TensorElement":
        return TensorElement({self.zero_index() + ((),): 1})

    def to_json(self):
        return {
            "factors": [mu.to_json()["factors"][0] for mu in self.factors],
            "tail": self.tail.to_json(),
        }

    @staticmethod
    def factors_from_json(obj) -> list:
        """One single-root character per entry of obj["factors"], the degree of
        their product at most ``MAX_CHARACTER_DEGREE``."""
        factors = [
            ExpPolyCharacter.from_json({"factors": [f]})
            for f in json_list(json_field(obj, "factors", "a tensor spec"), "the factors")
        ]
        check_degree(sum(mu.ambient.degree() for mu in factors), "the product of the factors")
        return factors

    @staticmethod
    def from_json(obj) -> "TensorSpec":
        obj = json_map(obj, "a tensor spec")
        tail = TailModuleSpec.from_json(obj.get("tail", {"type": "trivial"}))
        return TensorSpec(TensorSpec.factors_from_json(obj), tail)


class TensorElement(SparseVector):
    """Finite map (s_1, ..., s_k, tail monomial) -> Scalar."""

    __slots__ = ()

    def to_json(self):
        return {
            "terms": [
                {"parts": [list(s) for s in key[:-1]], "tail": list(key[-1]), "c": c.to_json()}
                for key, c in sorted(self.terms.items())
            ]
        }


def _leibniz(columns, g: dict, v: dict, drop) -> dict:
    """The Leibniz sum of the letter terms g {k: a} on the vector terms v
    {key: c}, as a fresh map with no term at a key in ``drop``.

    For each term of v and each e_k of g, every slot's column entry, the
    factor memo ``_act_idx(k, s_i)`` or the tail's ``_act_e(k, mono)``, is
    added in at the key with that slot replaced, scaled by a c unless that
    is one (``scales``).  ``add_term`` drops a zero sum: the slots meet at
    the term's own key, and the terms of v may meet anywhere.
    """
    out = {}
    for key, c in v.items():
        scaled = scales(g, c)
        parts = list(key)
        for i, column in columns:
            s = parts[i]
            for k, f in scaled:
                for idx, d in column(k, s).items():
                    parts[i] = idx
                    key2 = tuple(parts)
                    if key2 in drop:
                        continue
                    if f is not None:
                        d = d * f
                    if key2 in out:
                        add_term(out, key2, d)
                    else:
                        out[key2] = d
            parts[i] = s
    return out


def tensor_act(spec: TensorSpec, x: VirElement, v: TensorElement) -> TensorElement:
    """Leibniz action of x on v: ``_leibniz`` on theta(x), plus z.

    z is central and acts through the tail's ``act_vir``, which only scales
    the map it is given (the induced factors kill z, so a trivial tail
    leaves z nothing).
    """
    out = _leibniz(spec._columns, theta(x).terms, v.terms, ())
    tail = spec._tail_engine
    if tail is not None and not x.z_part.is_zero():
        accumulate(out, tail.act_vir(VirElement.z(x.z_part), v.terms))
    return TensorElement.adopt(out)


def _annihilation_exponents(spec: TensorSpec, v: TensorElement):
    """Safe per-factor exponents N_i with <f_i^{N_i}> killing slot i of v.

    N_i = n_i + r_i + (largest first coordinate appearing in slot i) + 1
    makes both the character values and the brackets vanish.
    """
    out = []
    for i, mu in enumerate(spec.factors):
        _, n, p = mu.root_data()
        s0max = max((key[i][0] for key in v.terms), default=0)
        out.append(n + pdeg(p) + s0max + 1)
    return out


def _lift(a: LaurentPoly, A: LaurentPoly, B: LaurentPoly) -> LaurentPoly:
    """The multiple of B congruent to a modulo A, for coprime A and B in C[t].

    With u A + v B = 1 it is (a v mod A) B, the one whose cofactor has degree
    below deg A.
    """
    _u, v = bezout(A, B)
    return poly_divmod(a * v, A)[1] * B


def annihilating_shift(spec: TensorSpec, h: LaurentPoly, L: int, w: TensorElement) -> LaurentPoly:
    """A polynomial supported in degrees >= L acting on w like h.

    The multiple of t^L congruent to h modulo F, the product of the
    per-factor annihilating powers: F acts by zero on the induced slots.
    Coprimality of t^L and F is automatic for nonzero roots.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    if not h.is_polynomial():
        raise ValueError("h must lie in C[t]")
    if L == 0:
        return h
    F = ONE_POLY
    for eng, N in zip(spec.engines, _annihilation_exponents(spec, w)):
        F = F * eng.fpow(N)
    return _lift(h, F, LaurentPoly({L: 1}))


def cyclic_reduce(spec: TensorSpec, w: TensorElement):
    """Reduce w to an element supported on the joint generator index.

    Each step is the single-root descent on the first slot i0 whose leading
    part u is nonzero: ``descent_power`` gives (m, target) and checks that
    factor (a nonzero character of degree r >= n-2).  f^m is lifted to the
    multiple of the other slots' annihilators congruent to it modulo a power
    of f_{i0} above m, and shifted by j = L, the tail's annihilation bound.
    That operator is zero on every other slot and on the tail, and acts on
    slot i0 as t^L f^m, so the new leading parts are the old ones with u
    replaced by the target; that is checked, else SearchExhausted.  The tail
    is untouched, so its simplicity is not needed for the descent.  The
    steps run in ``induced.descend``, the loop ``reduce_to_generator`` runs.
    """
    engines = spec.engines

    def step(cur):
        lead_parts = max(cur.terms)[:-1]
        i0 = next(i for i, p in enumerate(lead_parts) if any(p))
        mu = spec.factors[i0]
        m, target = descent_power(mu, lead_parts[i0])
        exps = _annihilation_exponents(spec, cur)
        F_lead = engines[i0].fpow(max(exps[i0], m + 1))
        F_hat = ONE_POLY
        for i, eng in enumerate(engines):
            if i != i0:
                F_hat = F_hat * eng.fpow(exps[i])
        L = ann_bound(spec.tail, [key[-1] for key in cur.terms])
        op = _lift(engines[i0].fpow(m), F_lead, F_hat).shift(L)
        w2 = tensor_act(spec, VirElement(op), cur) - cur * mu.value_power(L, m)
        want = lead_parts[:i0] + (target,) + lead_parts[i0 + 1 :]
        if w2.is_zero() or max(w2.terms)[:-1] != want:
            raise SearchExhausted(f"the step at j = {L} did not lower slot {i0} to {list(target)}")
        return {"factor": i0, "j": L, "m": m}, w2

    return descend(w, step, lambda cur: not any(map(any, max(cur.terms)[:-1])))


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
    labels will do.  The function stays, rather than ``len`` at its caller,
    because the benchmark traces it by name (``perfbench/tracing.py``,
    ``SPANS``).
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

    Each row is acted on by the letters in descending exponent.  A label is
    the least key of its row, and a row holds no key below its own label, so
    a new label below every earlier one is held by no earlier row and costs
    no replacement; in this order most new labels arrive below the one
    before (ascending, most arrive above it, and the rows holding them are
    rebuilt).  The reduced form of a span is unique, so the order changes
    only the work, not the rows.  Each row and each letter's terms go to
    ``_leibniz`` as they are, and no term is formed at a unit label of the
    ``Echelon`` (``drop``): the reduction would delete it.
    """
    letters = [g.terms for g in reversed(letters)]
    columns = spec._columns
    rows = Echelon((spec.generator().terms,))
    units = rows.units
    size = 0
    for _ in range(depth):
        # the rows of the labels the last layer added, in insertion order
        new = list(islice(reversed(rows.pivots.values()), len(rows) - size))
        size = len(rows)
        rows.extend(_leibniz(columns, g, row, units) for row in reversed(new) for g in letters)
    return rows


def _quotient_coords(x: VirElement, F: LaurentPoly, m: int) -> dict:
    """Coordinates of theta(x) in C[t^+-]/span{t^j F : j >= m}.

    Exponents below m survive untouched; the part above reduces modulo F
    inside t^m C[t].  The polynomial kind passes m = 0: its letters
    t^0 .. t^(deg F - 1) bracket inside C[t], and C[t] meets the ideal
    F C[t^+-] in F C[t], so there this is the quotient by the ideal.
    """
    out = {}
    high = {}
    for e, c in theta(x).terms.items():
        if e < m:
            out[("e", e)] = c
        else:
            high[e - m] = c
    if high:
        residue = poly_divmod(LaurentPoly(high), F)[1]
        for e, c in residue.terms.items():
            out[("w", e)] = c
    return out


def _abstract_slice_dim(letters, F: LaurentPoly, m: int, depth: int, bound=None) -> int:
    """Dimension of the depth-d slice of the induced module, by PBW counting.

    The words of length <= d over the letters, pushed into the induced module,
    span a space whose associated graded is spanned by the products of images
    of iterated letter brackets with total bracket length <= d (PBW: the
    associated graded of the induced module is S(Vir/Vir^F)).  The images live
    in the quotient of the algebra by the inducing subalgebra, where z dies
    (``_quotient_coords`` with F and the cutoff m), so the dimension is pure
    linear algebra, independent of any action engine.

    Let V_k be the span of the images of the brackets of length <= k and
    n_k = dim V_k - dim V_(k-1).  A basis of V_d adapted to this filtration
    turns the span of products into the span of its monomials of weight <= d,
    which are independent in the symmetric algebra; so the dimension is the
    number of multisets of total weight <= d with n_k kinds of weight k, the
    sum of the coefficients of prod_k (1 - x^k)^(-n_k) up to x^d.

    Since [span B, L] = span [B, L], each length is bracketed from a basis of
    the span of the previous length's brackets (modulo z, which is central).

    The series is multiplied out one generator at a time, as each length is
    counted, so its running sum counts the monomials in the generators so
    far: a lower bound on the dimension, since later ones only add to it.
    With a ``bound``, the count stops as soon as that sum exceeds it and
    returns the sum, so a refused slice costs no more brackets than it takes
    to see that; a dimension within the bound is exact either way.
    """
    letter_elems = [VirElement(g) for g in letters]
    layer = letter_elems
    images = Echelon()
    series = [1] + [0] * depth
    for k in range(1, depth + 1):
        if k > 1:
            layer = [vir_bracket(b, l) for b in layer for l in letter_elems]
        span = Echelon(x.e_part.terms for x in layer)
        layer = [VirElement(LaurentPoly.adopt(row)) for row in span.pivots.values()]
        size = len(images)
        images.extend(_quotient_coords(x, F, m) for x in layer)
        for _ in range(len(images) - size):
            for j in range(k, depth + 1):
                series[j] += series[j - k]
            if bound is not None and sum(series) > bound:
                return sum(series)
    return sum(series)


# The largest slice rank the word span is built for: just above 30,232, the
# largest depth-7 rank of one linear factor (m = -1), which is checked cold
# in about 1.9-2.1 s and 78 MB (m = 0: 1.2-1.4 s, 65 MB; m = 1: 1.2-1.3 s,
# 56 MB); depth 8 counts 109,486 and more, and takes 7.8-8.7 s and 269 MB
# at m = 1 (shared 2-core host, Python 3.11.7), with the tail memo the
# largest structure.  The count stops once it passes the bound, so a
# refusal is prompt at any depth.
MAX_SLICE_RANK = 30300


def _over_bound(depth: int, at_least: int) -> VirpolyError:
    return VirpolyError(
        f"the depth-{depth} slice has rank at least {at_least}; slices are checked up to rank {MAX_SLICE_RANK}"
    )


def counted_slice(source, depth: int, kind: str = "polynomial", composite=None):
    """(F, letters, counted rank) of a depth-d slice check of the given kind.

    The count is cheap and stops as soon as it passes ``MAX_SLICE_RANK``;
    such a slice raises VirpolyError before any word is formed, and so does
    a depth of ``MAX_SLICE_RANK`` or more, before any counting.  A caller
    that has already composed a polynomial source passes it as ``composite``.
    """
    if depth < 1:
        raise DepthTooSmall("slice comparison is vacuous below depth 1")
    if depth >= MAX_SLICE_RANK:
        # v0 and the powers g^j v0 (j <= depth) of a letter g outside the
        # subalgebra are independent, so the rank is at least depth + 1:
        # refused before an alphabet of depth letters is formed
        raise _over_bound(depth, depth + 1)
    if kind == "polynomial":
        F, m, low = (compose(source) if composite is None else composite).ambient, 0, 0
    elif kind == "restricted":
        F, m, low = source.ambient(), source.m, source.m - depth
    else:
        raise ValueError(f"unknown verification kind {kind!r}")
    letters = [LaurentPoly({i: 1}) for i in range(low, m + F.degree())]
    expected = _abstract_slice_dim(letters, F, m, depth, MAX_SLICE_RANK)
    if expected > MAX_SLICE_RANK:
        raise _over_bound(depth, expected)
    return F, letters, expected


def general_tensor_map(source, depth: int, kind: str = "polynomial") -> dict:
    """Slice verification of the induced-module tensor factorizations.

    kind "polynomial": ``source`` is a list of single-root characters; the
    claim is that the module induced from the product subalgebra matches the
    tensor of the single-root modules.  kind "restricted": ``source`` is a
    RestrictedCharacter; the claim matches the module induced from b_m^F
    with the tensor of the full-subalgebra module and the hat tail.

    Two checks:
      * generator equivariance, for every j: t^j F acts on the joint
        generator by the character value, and z by its value.  Slot i reads
        the Taylor data of t^j F at lambda_i to order n_i + r_i, so each
        coefficient of either side is sum_i q_i(j) lambda_i^j over the
        factors, with deg q_i <= n_i + r_i (the value's is r_i).  Such a
        sequence obeys a recurrence of order N = sum_i (n_i + r_i + 1) that
        runs both ways (the roots are nonzero), so it is zero for all j once
        it is zero at N consecutive j.  N is the degree of the generator's
        annihilator prod_i f_i^(N_i), the recurrence's characteristic
        polynomial: ``_annihilation_exponents`` gives N_i = n_i + r_i + 1 on
        the zero slots, from the root data alone.  The polynomial kind checks j in
        [0, N).  The restricted kind checks the tail's window [m, 2m] point
        by point and [2m + 1, 2m + N] above it, where psi is zero and the
        value is the tail character's, of order at most sum_i n_i.
      * injectivity at the given depth: the rank of all word images over a
        letter alphabet in the tensor realization equals the abstract slice
        dimension counted from PBW filtration dimensions alone.

    The count comes first (``counted_slice``), so a slice above
    ``MAX_SLICE_RANK`` is refused before any word is formed.
    """
    if kind == "polynomial":
        composite = compose(source)
        F, letters, expected = counted_slice(source, depth, kind, composite)
        spec = TensorSpec(source, TailModuleSpec.trivial())
        value = composite.seq
        z_value = Scalar(0)
    else:
        F, letters, expected = counted_slice(source, depth, kind)
        spec, _report = restricted_to_tensor(source)
        value = source.mu_x
        z_value = source.z_value
    gen = spec.generator()
    N = sum(_annihilation_exponents(spec, gen))
    window = range(N) if kind == "polynomial" else range(source.m, 2 * source.m + N + 1)
    equiv = all(
        tensor_act(spec, VirElement(F.shift(j)), gen) == gen * value(j)
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
