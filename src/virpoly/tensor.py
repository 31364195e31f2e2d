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

from .characters import ExpPolyCharacter, RestrictedCharacter, check_degree, compose, decompose
from .errors import DepthTooSmall, SearchExhausted, VirpolyError
from .induced import descend, descent_power, descent_steps, get_engine
from .laurent import ONE_POLY, LaurentPoly, bezout, poly_divmod
from .scalars import ONE, Scalar, json_field, json_list, json_map
from .sparse import Echelon, SparseVector, accumulate, add_term
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
        return TensorElement({self.zero_index() + ((),): ONE})

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


def _leibniz(columns, rows, letters, drop):
    """Yield the Leibniz image of each letter on each row, the letters inner,
    each image a fresh map with no term at a key in ``drop``.

    A row is a map {key: c}, or the label alone of a unit row {label: ONE};
    a letter is a map {k: a} of e_k terms.  For each term of the row and
    each e_k of the letter, every slot's column entry, the factor memo
    ``_act_idx(k, s_i)`` or the tail's ``_act_e(k, mono)``, is added in at
    the key with that slot replaced, scaled by a c, and ``ONE`` is never
    multiplied in.  A row's keys are split into their slots once, for all
    the letters.  ``add_term`` drops a zero sum: the slots meet at the
    term's own key, and the terms of a row, or of a letter, may meet
    anywhere.  ``tensor_act`` and the equivariance check pass one row and
    one letter; ``_word_vectors`` passes a layer's new rows and every
    letter, and reduces each image as it is yielded.
    """
    for row in rows:
        if row.__class__ is tuple:
            terms = ((list(row), ONE),)
        else:
            terms = list(zip(map(list, row), row.values()))
        for g in letters:
            out = {}
            for parts, c in terms:
                for k, a in g.items():
                    f = a if c is ONE else c if a is ONE else a * c
                    for i, column in columns:
                        s = parts[i]
                        for idx, d in column(k, s).items():
                            parts[i] = idx
                            key = tuple(parts)
                            if key in drop:
                                continue
                            if f is not ONE:
                                d = d * f
                            if key in out:
                                add_term(out, key, d)
                            else:
                                out[key] = d
                        parts[i] = s
            yield out


def tensor_act(spec: TensorSpec, x: VirElement, v: TensorElement) -> TensorElement:
    """Leibniz action of x on v: ``_leibniz`` of the letter theta(x) on the
    row v, plus z.

    z is central and acts through the tail's ``act_vir``, which only scales
    the map it is given (the induced factors kill z, so a trivial tail
    leaves z nothing).
    """
    (out,) = _leibniz(spec._columns, (v.terms,), (theta(x).terms,), ())
    tail = spec._tail_engine
    if tail is not None and not x.z_part.is_zero():
        accumulate(out, tail.act_vir(VirElement.z(x.z_part), v.terms))
    return TensorElement.adopt(out)


def _annihilation_exponents(spec: TensorSpec, v: TensorElement):
    """Safe per-factor exponents N_i with <f_i^{N_i}> killing slot i of v.

    N_i = n_i + r_i + (largest first coordinate appearing in slot i) + 1,
    with n_i + r_i the engine's ``top``, makes both the character values and
    the brackets vanish.
    """
    return [
        eng.top + max((key[i][0] for key in v.terms), default=0) + 1 for i, eng in enumerate(spec.engines)
    ]


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
        m, target = descent_power(engines[i0], lead_parts[i0])
        exps = _annihilation_exponents(spec, cur)
        F_lead = engines[i0].fpow(max(exps[i0], m + 1))
        F_hat = ONE_POLY
        for i, eng in enumerate(engines):
            if i != i0:
                F_hat = F_hat * eng.fpow(exps[i])
        L = ann_bound(spec.tail, [key[-1] for key in cur.terms])
        op = _lift(engines[i0].fpow(m), F_lead, F_hat).shift(L)
        w2 = tensor_act(spec, VirElement(op), cur) - cur * spec.factors[i0].value_power(L, m)
        want = lead_parts[:i0] + (target,) + lead_parts[i0 + 1 :]
        if w2.is_zero() or max(w2.terms)[:-1] != want:
            raise SearchExhausted(f"the step at j = {L} did not lower slot {i0} to {list(target)}")
        return {"factor": i0, "j": L, "m": m}, w2

    return descend(w, step, lambda lead: sum(map(descent_steps, lead[:-1])))


def simplicity_verdict(spec: TensorSpec, kac_level: int = 20) -> dict:
    """Combine the per-factor degree criterion with the tail criterion.

    A factor is good when deg p >= n - 2; the linear boundary case n = 1
    with the zero character is flagged separately (its module has the
    obvious proper submodule, so it is counted as not simple).
    """
    factors = []
    all_large = True
    zero_linear = False
    for eng in spec.engines:
        n, r = eng.n, eng.r
        large = r >= n - 2
        flag = n == 1 and r == -1
        zero_linear = zero_linear or flag
        all_large = all_large and large
        factors.append(
            {
                "lambda": eng.lam.to_json(),
                "n": n,
                "degree": r,
                "large_degree": large,
                "zero_linear_factor": flag,
            }
        )
    tail = tail_simplicity(spec.tail, kac_level)
    return {
        "factors": factors,
        "large_degree": all_large,
        "tail": tail,
        "simple": all_large and tail["simple"] and not zero_linear,
    }


def restricted_spec(rc: RestrictedCharacter) -> TensorSpec:
    """Tensor realization of a b_m^F-induced module.

    Splits the character into its full-subalgebra part and the hat part, then
    decomposes the former into single-root factors; the hat part becomes the
    b_m tail, whose family follows m (the quotient for m = -1, Verma for
    m = 0, Whittaker for m >= 1).
    """
    ddot, hat = rc.split_muhat()
    return TensorSpec(decompose(ddot), TailModuleSpec(rc.m, hat["window"], hat["z"]))


def restricted_to_tensor(rc: RestrictedCharacter):
    """``restricted_spec`` together with the hat window and the closed-form hat values."""
    spec = restricted_spec(rc)
    report = {
        "m": rc.m,
        "hat_window": {str(j): spec.tail.psi(j).to_json() for j in range(rc.m, 2 * rc.m + 1)},
        "closed_forms": {k: v.to_json() for k, v in rc.muhat_closed_forms().items()},
    }
    return spec, report


def _failed_hypotheses(report: dict) -> str:
    """What keeps a ``simplicity_verdict`` report from "simple"."""
    failed = []
    for i, f in enumerate(report["factors"]):
        if not f["large_degree"]:
            failed.append(f"factor {i} has degree {f['degree']} below n - 2 = {f['n'] - 2}")
        if f["zero_linear_factor"]:
            failed.append(f"factor {i} is linear with the zero character")
    if not report["tail"]["simple"]:
        failed.append(f"the {report['tail']['kind']} tail is not simple")
    return ", ".join(failed)


def iso_decide(a: TensorSpec, b: TensorSpec, kac_level: int = 20) -> dict:
    """Isomorphism of two tensor products, decided on parameter data.

    The classification holds for simple modules, so both sides first get a
    ``simplicity_verdict``.  A side whose tail the scan up to ``kac_level``
    (a Verma tail with Gaussian c or h, criterion "level-scan") found
    simple has no exact verdict, so "isomorphic" is None and the reason
    names that side; a degenerate label the scan found is exact.  If
    exactly one side is simple they are not
    isomorphic ("simplicity differs"); if neither is, "isomorphic" is None
    and the reason names the failed hypotheses of each side.  Two simple
    sides are isomorphic iff the factor multisets match exactly (root,
    multiplicity, polynomial) after a permutation and the tails agree within
    the built-in families (equal parameters); cross-family tails are
    reported as non-isomorphic.  The reported "permutation" maps a to b:
    its entry i is the index in b of a's factor i.
    """
    simple = [simplicity_verdict(spec, kac_level) for spec in (a, b)]
    scanned = [
        side for side, rep in zip("ab", simple)
        if rep["tail"].get("criterion") == "level-scan" and rep["tail"]["simple"]
    ]
    if scanned:
        tails = "tails of sides a and b are" if len(scanned) == 2 else f"tail of side {scanned[0]} is"
        return {
            "isomorphic": None,
            "reason": f"the Verma {tails} only scanned up to level {kac_level} (Gaussian c or h)",
        }
    if not (simple[0]["simple"] or simple[1]["simple"]):
        failed = "; ".join(f"{side}: {_failed_hypotheses(rep)}" for side, rep in zip("ab", simple))
        return {"isomorphic": None, "reason": f"neither side is simple ({failed})"}
    if simple[0]["simple"] != simple[1]["simple"]:
        return {"isomorphic": False, "reason": "simplicity differs"}
    if len(a.factors) != len(b.factors):
        return {"isomorphic": False, "reason": "different factor counts"}
    # the roots of a spec are pairwise distinct, so are its factors, and
    # equal sets of as many factors match one to one
    if set(a.factors) != set(b.factors):
        return {"isomorphic": False, "reason": "factor data differ"}
    if a.tail != b.tail:
        return {"isomorphic": False, "reason": "tail parameters differ"}
    return {"isomorphic": True, "permutation": [b.factors.index(mu) for mu in a.factors]}


# -- slice verification of the induction isomorphisms ----------------------------


def _rank(labels) -> int:
    """Rank of the span of an ``Echelon``, whose reduced rows have distinct
    labels: the number of labels.  It stays a function, not ``len`` at its
    caller, because the benchmark traces it by name (``perfbench/tracing.py``).
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
    as they stand after their layer's call.  The layer's labels are
    ``labels`` past its length before the call; each is read once, before
    the next layer's rows arrive, as its row dict, which ``Echelon``
    replaces instead of changing, or as the label alone of a unit row,
    which no later row replaces.  A row, already reduced, is shorter than
    its image, most often a unit row.

    Each row is acted on by the letters in descending exponent.  A label is
    the least key of its row, and a row holds no key below its own label, so
    a new label below every earlier one is held by no earlier row and costs
    no replacement; in this order most new labels arrive below the one
    before (ascending, most arrive above it, and the rows holding them are
    rebuilt).  The reduced form of a span is unique, so the order changes
    only the work, not the rows.  One ``_leibniz`` pass per layer yields the
    images in that order, with the unit labels as ``drop``: the reduction
    would delete a term there.
    """
    letters = [g.terms for g in reversed(letters)]
    span = Echelon((spec.generator().terms,))
    labels, rows = span.labels, span.rows
    size = 0
    for _ in range(depth):
        new = [rows.get(label, label) for label in labels[size:]]
        size = len(labels)
        span.extend(_leibniz(spec._columns, new, letters, span.units))
    return span


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

    The letters are monomials t^b, and [t^a, t^b] = (b - a) t^(a+b) modulo
    z, so a layer is a set of exponents: the a + b with a of length k - 1,
    b a letter's and a != b.  One seen at a shorter length is dropped, as its
    image and those of its brackets are counted a length earlier.  Each new
    exponent takes one ``vir_bracket``, of the element that reached a with
    the letter, a nonzero multiple of t^(a+b) modulo z; its image is reduced
    into the quotient.

    The series is multiplied out one generator at a time, as each length is
    counted, so its running sum counts the monomials in the generators so
    far: a lower bound on the dimension, since later ones only add to it.
    With a ``bound``, the count stops as soon as that sum exceeds it and
    returns the sum, so a refused slice costs no more brackets than it takes
    to see that; a dimension within the bound is exact either way.
    """
    exps = [g.valuation() for g in letters]
    layer = letter = {b: VirElement(g) for b, g in zip(exps, letters)}
    seen = set(layer)
    images = Echelon()
    series = [1] + [0] * depth
    for k in range(1, depth + 1):
        if k > 1:
            pairs = {a + b: (a, b) for a in layer for b in exps if a != b and a + b not in seen}
            seen.update(pairs)
            layer = {e: vir_bracket(layer[a], letter[b]) for e, (a, b) in pairs.items()}
        # an exponent below m is a key of the quotient no other image holds
        size = len(images) - sum(e < m for e in layer)
        images.extend(_quotient_coords(x, F, m) for e, x in layer.items() if e >= m)
        for _ in range(len(images) - size):
            for j in range(k, depth + 1):
                series[j] += series[j - k]
            if bound is not None and sum(series) > bound:
                return sum(series)
    return sum(series)


# The largest slice rank the word span is built for: just above 30,232, the
# largest depth-7 rank of one linear factor (m = -1), which is checked cold
# in about 0.8-1.1 s and 69 MB (m = 0: 0.6 s, 57 MB; m = 1: 0.5-0.6 s,
# 49 MB); depth 8 counts 109,486 and more, and takes 3.8-3.9 s and 237 MB
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
    letters = [LaurentPoly.adopt({i: ONE}) for i in range(low, m + F.degree())]
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
        generator by the character value (``_leibniz`` on the generator's
        map against the value at its key), and z by its value.  Slot i reads
        the Taylor data of t^j F at lambda_i to order n_i + r_i, so each
        coefficient of either side is sum_i q_i(j) lambda_i^j over the
        factors, with deg q_i <= n_i + r_i (the value's is r_i).  Such a
        sequence obeys a recurrence of order N = sum_i (n_i + r_i + 1) that
        runs both ways (the roots are nonzero), so it is zero for all j once
        it is zero at N consecutive j.  N is the degree of the generator's
        annihilator prod_i f_i^(N_i), the recurrence's characteristic
        polynomial: ``_annihilation_exponents`` gives N_i = n_i + r_i + 1 on
        the zero slots, from the engines' ``top`` alone.  The polynomial
        kind checks j in [0, N).  The restricted kind checks the tail's
        window [m, 2m] point by point and [2m + 1, 2m + N] above it, where
        psi is zero and the value is the tail character's, of order at most
        sum_i n_i.
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
        spec = restricted_spec(source)
        value = source.mu_x
        z_value = source.z_value
    gen = spec.generator()
    (key,) = gen.terms
    N = sum(_annihilation_exponents(spec, gen))
    window = range(N) if kind == "polynomial" else range(source.m, 2 * source.m + N + 1)
    equiv = all(
        next(_leibniz(spec._columns, (gen.terms,), ({e + j: a for e, a in F.terms.items()},), ()))
        == ({} if (c := value(j)).is_zero() else {key: c})
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
