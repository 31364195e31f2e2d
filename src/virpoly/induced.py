"""Induced modules over single-root polynomial subalgebras.

For f = t - lambda and a character mu of Vir^{f^n}, the induced module has
PBW basis f^s v = (f^0)^[s_0] (f^1)^[s_1] ... (f^{n-1})^[s_{n-1}] v indexed
by tuples s of nonnegative integers.  The action of a Laurent polynomial g
is computed monomial by monomial, by one straightening recursion for
t^k f^a f^s v whose one rule is the Witt bracket t (g h' - h g') with
t = f + lambda:

  [t^k f^a, f^l] = (l - a - k) t^k f^(a+l) + (l - a) lambda t^k f^(a+l-1).

  * on f^s v with s nonzero, split off the lowest occupied direction l,
    f^s v = f^l f^d v, and use t^k f^a f^l = f^l t^k f^a + [t^k f^a, f^l];
    f^l on an index of t^k f^a f^d v is a bump when nothing there lies
    below l, and the k = 0 case of the recursion otherwise;
  * on the generator, take the Taylor coefficients c_i of t^k at lambda:
    c_0 .. c_{n-1} bump basis directions and mu eats sum_j c_{n+j} f^{n+j};
    for a > 0, t^k f^a = t^(k+1) f^(a-1) - lambda t^k f^(a-1).

Termination: every call made for (k, a, s) is on an index lower in
(|s|, ell(s)) taken lexicographically, or on the generator with a lower a:
d has weight |s| - 1, and f^l acts through the recursion on an index of
t^k f^a f^d v, of weight at most |s|, only when its ell is below l.  A
product in PBW order (k = 0 and a <= l; on the generator every a) is
answered directly, and t^k f^a f^s v is zero once a > n + r + |s|: each
bracket lowers |s| by one and a by at most one, and mu kills t^j f^(n+r+1).
``act_fpow``, the descent's f^m, is the k = 0 case.  The memo is keyed
(k, a, s), with the k = 0 entries in ``_lmul_cache``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .characters import ExpPolyCharacter, single_root_character
from .densepoly import index_poly, pdeg, pshift
from .errors import HypothesisViolation, SearchExhausted, ZeroLambda, ZeroVector
from .faulhaber import faulhaber
from .laurent import LaurentPoly, taylor
from .scalars import ONE, Scalar, json_field, json_list, json_map, sc
from .sparse import SparseVector, accumulate, add_term, bilinear
from .virasoro import VirElement, theta

# -- multi-indices -----------------------------------------------------------


def ell(s) -> int:
    """Position of the lowest nonzero entry."""
    for i, v in enumerate(s):
        if v > 0:
            return i
    raise ZeroVector("ell is undefined on the zero index")


def dstep(s) -> tuple:
    """Zero out everything below ell and decrement there."""
    l = ell(s)
    return (0,) * l + (s[l] - 1,) + tuple(s[l + 1 :])


def dpow(s, j: int) -> tuple:
    l = ell(s)
    if not 1 <= j <= s[l]:
        raise ValueError("dpow steps must stay within the lowest entry")
    return (0,) * l + (s[l] - j,) + tuple(s[l + 1 :])


def dtilde(s) -> tuple:
    """Zero the first coordinate, keep the rest."""
    return (0,) + tuple(s[1:])


# -- elements ----------------------------------------------------------------


class ModuleElement(SparseVector):
    """Sparse vector in the PBW basis: finite map multi-index -> Scalar."""

    __slots__ = ()

    @staticmethod
    def basis(s) -> "ModuleElement":
        return ModuleElement.adopt({tuple(s): ONE})

    def leading_index(self) -> tuple:
        """Lexicographically maximal index with nonzero coefficient."""
        if not self.terms:
            raise ZeroVector("the zero vector has no leading index")
        return max(self.terms)

    def to_json(self):
        return {
            "terms": [
                {"s": list(s), "c": self.terms[s].to_json()} for s in sorted(self.terms)
            ]
        }

    @staticmethod
    def from_json(obj) -> "ModuleElement":
        terms = {}
        for t in json_list(json_map(obj, "a module vector").get("terms", []), "the terms"):
            s = json_field(t, "s", "a module vector term")
            if not isinstance(s, list) or not all(type(x) is int for x in s):
                raise ValueError(f"a module index must be a list of integers, not {s!r}")
            accumulate(terms, {tuple(s): Scalar.from_json(json_field(t, "c", "a module vector term"))})
        return ModuleElement(terms)


# -- the straightening engine -------------------------------------------------


class InducedModule:
    """Action engine for the induced module of a single-root character."""

    def __init__(self, mu: ExpPolyCharacter):
        lam, n, p = mu.root_data()
        self.mu = mu
        self.lam = lam
        self.n = n
        self.p = p
        self.r = pdeg(p)
        self.top = n + self.r  # mu kills t^j f^(top+1)
        self._fpow = {}
        # mu(f^(n+k)) for k <= r, the terms t^i of f^k against mu(t^i f^n);
        # mu kills t^j f^(n+r+1), so the generator needs no higher k
        self._mu_fpow = []
        for k in range(self.r + 1):
            terms = (c * mu.value_power(i, n) for i, c in self.fpow(k).terms.items())
            self._mu_fpow.append(sum(terms, Scalar(0)))
        self._act_cache = {}
        self._lmul_cache = {}
        self.zero_index = (0,) * n

    def fpow(self, k: int) -> LaurentPoly:
        """f^k = sum_i C(k, i) (-lambda)^(k-i) t^i, written out and kept per k."""
        hit = self._fpow.get(k)
        if hit is None:
            terms = {i: comb(k, i) * (-self.lam) ** (k - i) for i in range(k + 1)}
            hit = self._fpow[k] = LaurentPoly.adopt(terms)
        return hit

    def basis(self, s) -> ModuleElement:
        return self.check(ModuleElement.basis(s))

    def check(self, v: ModuleElement) -> ModuleElement:
        """v itself once every index is a PBW index here: n nonnegative entries."""
        for s in v.terms:
            if len(s) != self.n or min(s) < 0:
                raise ValueError(f"module index {list(s)} must have {self.n} nonnegative entries")
        return v

    def generator(self) -> ModuleElement:
        return ModuleElement.basis(self.zero_index)

    # core recursion; returns cached dicts that must not be mutated

    def _act_idx(self, k: int, s: tuple, a: int = 0) -> dict:
        """t^k f^a f^s v, by the one rule of the module docstring."""
        cache = self._act_cache if k else self._lmul_cache
        key = (k, a, s)
        hit = cache.get(key)
        if hit is not None:
            return hit
        w = sum(s)
        if a > self.top + w:
            return {}
        l = a  # ell(s), and a on the zero index
        if w:
            for l, x in enumerate(s):
                if x:
                    break
        n = self.n
        if k == 0 and a <= l:
            if a < n:
                return {s[:a] + (s[a] + 1,) + s[a + 1 :]: ONE}
            val = self._mu_fpow[a - n]
            return {} if val.is_zero() else {s: val}
        out = {}
        if not w:
            if a:
                # t^k f^a = t^(k+1) f^(a-1) - lambda t^k f^(a-1); a memo entry is clean
                out = dict(self._act_idx(k + 1, s, a - 1))
                accumulate(out, self._act_idx(k, s, a - 1), -self.lam)
            else:
                c = taylor(LaurentPoly.adopt({k: ONE}), self.lam, self.top + 1)
                for i, x in enumerate(c[:n]):
                    if not x.is_zero():
                        out[s[:i] + (1,) + s[i + 1 :]] = x
                val = sum((x * mu_f for x, mu_f in zip(c[n:], self._mu_fpow)), Scalar(0))
                # the window bumps never land on the zero index s itself
                if not val.is_zero():
                    out[s] = val
        else:
            head = s[:l]  # all zero, below the lowest occupied direction
            d = head + (s[l] - 1,) + s[l + 1 :]
            later = []
            for idx, c in self._act_idx(k, d, a).items():
                if idx[:l] == head:
                    # f^l f^idx v is already in PBW order: bump idx at l, a
                    # key no other idx bumps to, so it is written, not added
                    out[head + (idx[l] + 1,) + idx[l + 1 :]] = c
                else:
                    later.append((idx, c))
            for idx, c in later:
                accumulate(out, self._act_idx(0, idx, l), c)
            if l - a - k:
                accumulate(out, self._act_idx(k, d, a + l), Scalar(l - a - k))
            if l - a:
                accumulate(out, self._act_idx(k, d, a + l - 1), Scalar(l - a) * self.lam)
        cache[key] = out
        return out

    # public action entry points

    def act_on_index(self, g: LaurentPoly, s: tuple) -> dict:
        """Monomial-split action on one basis index; shares the recursion cache.

        No code in this package calls it any more (``tensor_act`` reads
        ``_act_idx`` directly).  It stays because the benchmark traces it by
        name (``perfbench/tracing.py``, ``SPANS``), and the tests' Leibniz
        oracle calls it.
        """
        return bilinear(self._act_idx, g.terms, {s: ONE})

    def act(self, g: LaurentPoly, v: ModuleElement) -> ModuleElement:
        return ModuleElement.adopt(bilinear(self._act_idx, g.terms, v.terms))

    def act_fpow(self, a: int, v: ModuleElement) -> ModuleElement:
        """The action of f^a: ``_act_idx`` at k = 0 on each term."""
        out = {}
        for s, c in v.terms.items():
            accumulate(out, self._act_idx(0, s, a), c)
        return ModuleElement.adopt(out)

    def act_vir(self, x: VirElement, v: ModuleElement) -> ModuleElement:
        """z acts by zero; the e part acts through theta."""
        return self.act(theta(x), v)


_engines = {}


def get_engine(mu: ExpPolyCharacter) -> InducedModule:
    eng = _engines.get(mu)
    if eng is None:
        eng = InducedModule(mu)
        _engines[mu] = eng
    return eng


# -- closed-form bracket values ------------------------------------------------


def closed_form_bracket(
    mu: ExpPolyCharacter, j: int, m: int, s, literal_denominator: bool = False
) -> ModuleElement:
    """Closed form of [t^j f^m, f^s] v for the high-power regimes.

    Cases, with l = ell(s) and r the character degree:

      l >= 1, m >= max(n, n+r+1-l):
          zero when the inequality is strict; for m = n+r+1-l and l > 1 a
          single term (l-m) s_l mu(t^{j+1} f^{n+r}) f^{D(s)} v; for l = 1
          (so m = n+r) the binomial sum over q of
          (1-m)^q C(s_1, q) mu(t^{j+q} f^m) f^{D^q(s)} v.

      l = 0, m >= n+r+s_0:
          zero when strict; at equality
          (-1)^{s_0} (n+r+s_0)!/(n+r)! ( mu(t^{j+s_0} f^{n+r}) f^{Dt(s)} v
                                         + [t^{j+s_0} f^{n+r}, f^{Dt(s)}] v )
          with Dt zeroing the first coordinate; the inner bracket lands back
          in the l >= 1 cases.

    The factorial denominator (n+r)! is the reading confirmed by the
    straightening oracle; ``literal_denominator`` substitutes (n+s_0)!, the
    rejected reading of the ambiguous index, as a negative control.
    """
    lam, n, p = mu.root_data()
    r = pdeg(p)
    s = tuple(int(x) for x in s)
    if len(s) != n:
        raise ValueError(f"index length must be {n}")
    if not any(s):
        raise HypothesisViolation("the closed forms require a nonzero index")
    l = ell(s)
    if l >= 1:
        if m < n or m < n + r + 1 - l:
            raise HypothesisViolation("need m >= n and m >= n+r+1-ell")
        if m > n + r + 1 - l:
            return ModuleElement()
        if l > 1:
            coeff = sc(l - m) * sc(s[l]) * mu.value_power(j + 1, n + r)
            return ModuleElement({dstep(s): coeff})
        out = {}
        for q in range(1, s[1] + 1):
            out[dpow(s, q)] = sc(1 - m) ** q * sc(comb(s[1], q)) * mu.value_power(j + q, m)
        return ModuleElement(out)
    # l == 0
    if m < n + r + s[0]:
        raise HypothesisViolation("need m >= n+r+s_0 when the first entry is occupied")
    if m > n + r + s[0]:
        return ModuleElement()
    if r < 0:
        raise HypothesisViolation("the equality case needs a nonzero character")
    denom = n + s[0] if literal_denominator else n + r
    coeff = sc((-1) ** s[0]) * sc(Fraction(factorial(n + r + s[0]), factorial(denom)))
    dt = dtilde(s)
    out = ModuleElement({dt: mu.value_power(j + s[0], n + r)})
    if any(dt):
        out = out + closed_form_bracket(mu, j + s[0], n + r, dt)
    return out * coeff


def bracket_action_oracle(mu: ExpPolyCharacter, j: int, m: int, s) -> ModuleElement:
    """[t^j f^m, f^s] v computed by straightening: act minus the scalar part.

    Valid whenever m >= n, where t^j f^m acts on the generator by the
    character value.
    """
    _, n, _ = mu.root_data()
    if m < n:
        raise HypothesisViolation("oracle requires m >= n")
    eng = get_engine(mu)
    s = tuple(s)
    out = eng.act(eng.fpow(m).shift(j), eng.basis(s))
    # act returns a fresh map, so the scalar part comes off in place
    val = mu.value_power(j, m)
    if not val.is_zero():
        add_term(out.terms, s, -val)
    return out


# -- leading-index reduction -----------------------------------------------------

REDUCE_MAX_STEPS = 64  # bound on the descent; each step lowers the leading index


def descent_power(eng: InducedModule, s) -> tuple:
    """(m, target) of one descent step from the nonzero index s of the engine's module.

    With l = ell(s): m = n+r+1-l and target D(s) when l > 0, and m = n+r+s_0
    and target Dt(s) when l = 0.  Raises HypothesisViolation unless the
    character is nonzero of degree r >= n-2, that is r >= max(n-2, 0): the
    zero character is the one of degree -1.

    Why the shift j = 0 lowers the leading index to the target: by the
    closed forms (``closed_form_bracket``) the target's coefficient in
    [t^j f^m, f^s] v is (l-m) s_l mu(t^{j+1} f^{n+r}) when l > 1,
    (1-m) s_1 mu(t^{j+1} f^{n+r}) when l = 1, and
    +-(n+r+s_0)!/(n+r)! mu(t^{j+s_0} f^{n+r}) when l = 0, and every other
    index it reaches lies below the target.  mu(t^j f^{n+r}) is a nonzero
    constant times lambda^j, since each derived power lowers the degree of
    p by exactly one.  r >= n-2 makes l - m = 2l - n - r - 1 <= -1 (l <= n-1),
    and 1 - m = 1 - n - r <= -1 (n >= 2 and r >= 0 when l = 1).  So no
    coefficient vanishes, at any j.
    """
    n, r = eng.n, eng.r
    if r < max(n - 2, 0):
        raise HypothesisViolation("the descent needs a nonzero character of degree >= n-2")
    l = ell(s)
    if l > 0:
        return n + r + 1 - l, dstep(s)
    return n + r + s[0], dtilde(s)


def reduce_step(mu: ExpPolyCharacter, v: ModuleElement):
    """One strict decrease of the leading index, by f^m at the shift j = 0.

    Requires a vector outside the span of the generator; ``descent_power``
    gives m and the target and checks the character.  Returns ((0, m), w)
    with w = (f^m - mu(f^m)) v, whose leading index must be the target (see
    ``descent_power`` for why), else SearchExhausted.  f^m acts through
    ``act_fpow``, by the two-term bracket, not as its m + 1 monomials t^i,
    and mu(f^m) is the engine's ``_mu_fpow`` entry (m >= n), zero past
    n + r, taken off ``act_fpow``'s fresh map in place.
    """
    lead = v.leading_index()
    if not any(lead):
        raise HypothesisViolation("vector is already in the span of the generator")
    eng = get_engine(mu)
    m, target = descent_power(eng, lead)
    w = eng.act_fpow(m, v)
    if m <= eng.top:
        accumulate(w.terms, v.terms, -eng._mu_fpow[m - eng.n])
    if w.is_zero() or w.leading_index() != target:
        raise SearchExhausted(f"f^{m} did not lower the leading index to {list(target)}")
    return (0, m), w


def descent_steps(s) -> int:
    """Steps from the leading index s: Dt zeroes s_0, and D lowers s_ell by one."""
    return (s[0] > 0) + sum(s[1:])


def descend(v, step, steps):
    """The one descent loop: apply ``step`` to v until no step is left.

    ``step(cur)`` returns (op, next) and lowers the leading index to its
    target; ``steps(lead)`` counts the steps left from the leading key, zero
    at the generator.  A descent of more than ``REDUCE_MAX_STEPS`` steps is
    refused before its first step; the limit is read at call time.  Returns
    (the list of ops, the final vector).
    """
    if v.is_zero():
        raise ZeroVector("the zero vector has no leading index")
    total = steps(max(v.terms))
    if total > REDUCE_MAX_STEPS:
        raise SearchExhausted(f"the descent needs {total} steps; it is limited to {REDUCE_MAX_STEPS}")
    trace = []
    cur = v
    while steps(max(cur.terms)):
        op, cur = step(cur)
        trace.append(op)
    return trace, cur


def reduce_to_generator(mu: ExpPolyCharacter, v: ModuleElement, j_window: int = 16):
    """``descend`` by ``reduce_step`` until the span of the generator is reached.

    ``j_window`` is unused: no shift is searched.  It stays only because the
    benchmark's ``perfbench/oracle_grid.py`` passes its ``J_WINDOW`` by
    position.
    """
    return descend(v, lambda cur: reduce_step(mu, cur), descent_steps)


# -- the polynomial-realization module -------------------------------------------


class OmegaSpec:
    """Parameters of the polynomial realization on C[d]: e_k d^i = lam^k (d + k(b-1))(d - k)^i."""

    __slots__ = ("lam", "b")

    def __init__(self, lam, b):
        self.lam = sc(lam)
        self.b = sc(b)
        if self.lam.is_zero():
            raise ZeroLambda("lambda must be nonzero")


def omega_action(spec: OmegaSpec, k: int, poly) -> LaurentPoly:
    """Action of e_k on a polynomial in the formal variable d; z acts by 0."""
    # (d + k(b-1)) and (d - k)
    front = LaurentPoly({1: 1, 0: sc(k) * (spec.b - ONE)})
    base = LaurentPoly({1: 1, 0: -k})
    out = {}
    for i, c in index_poly(poly).terms.items():
        accumulate(out, (front * base**i).terms, c)
    return LaurentPoly(out) * spec.lam**k


def omega_iso_check(spec: OmegaSpec, depth: int) -> bool:
    """Equivariance of index (s_0) -> d^{s_0} between the two realizations.

    The matching character sends t^k f to lam^{k+1} (b - 1), i.e. the
    constant polynomial lam (b - 1) at the root lam.  Every e_k is checked,
    on the indices s_0 <= depth (see ``_omega_equivariant``).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    mu = single_root_character(spec.lam, 1, [spec.lam * (spec.b - sc(1))])
    return _omega_equivariant(spec, mu, depth)


def _omega_equivariant(spec: OmegaSpec, mu: ExpPolyCharacter, depth: int) -> bool:
    """e_k on the index (s_0) against e_k d^{s_0}, for every k and each s_0 <= depth.

    mu is linear with deg p <= 0, so t^k is sum_i C(k, i) lam^(k-i) f^i
    modulo f^(s_0+2), which kills (s_0): both sides are lam^k times a
    polynomial in k of degree at most s_0 + 1, the right one
    (d + k(b-1))(d - k)^{s_0}.  Such a sequence is zero for all k once it is
    zero at s_0 + 2 consecutive k (lam != 0), so k in [0, s_0 + 1] covers Z.
    """
    eng = get_engine(mu)
    for s0 in range(depth + 1):
        for k in range(s0 + 2):
            left = eng.act(LaurentPoly({k: 1}), eng.basis((s0,)))
            lp = LaurentPoly({s[0]: c for s, c in left.terms.items()})
            if lp != omega_action(spec, k, LaurentPoly({s0: 1})):
                return False
    return True


# -- the small-degree quotient ------------------------------------------------------

QUOTIENT_J_RANGE = range(-4, 5)  # the shifts j at which the eigen relations are checked


def quotient_smalldegree(mu: ExpPolyCharacter):
    """Submodule verification and quotient character for small-degree mu.

    For n >= 2 and r <= n-3 the vector f^{n-1} v generates a proper
    submodule (the indices with last coordinate >= 1) and the quotient is the
    induced module of a character mu' on <f^{n-1}> whose polynomial is a
    partial-sum transform of p, computed here through the power-sum
    polynomials; deg mu' = r + 1 (zero map stays zero).

    In the linear case n = 1 the invariant slice exists exactly for the zero
    character, and the check below is the action oracle that rejects the
    nonzero reading.
    """
    lam, n, p = mu.root_data()
    r = pdeg(p)
    eng = get_engine(mu)
    if n == 1:
        scan = range(1, 5)
        for k in QUOTIENT_J_RANGE:
            for s0 in scan:
                moved = eng.act(LaurentPoly({k: 1}), eng.basis((s0,)))
                if any(idx[0] < 1 for idx in moved.terms):
                    raise HypothesisViolation(
                        "linear-case slice is not invariant; only the zero "
                        "character admits the quotient"
                    )
        report = {
            "invariance_scan": {
                "j": [min(QUOTIENT_J_RANGE), max(QUOTIENT_J_RANGE)],
                "s0": [scan.start, scan.stop - 1],
            },
            "submodule": "indices with s_0 >= 1",
            "quotient": "one-dimensional trivial module",
        }
        return report, None
    if r > n - 3:
        raise HypothesisViolation("quotient construction needs r <= n-3")
    gen = eng.basis((0,) * (n - 1) + (1,))
    # both sides are lam^j times a polynomial in j of degree at most n + r + 1
    # (the Taylor data to order n + r, and one bracket for the index s_{n-1}),
    # so n + r + 2 consecutive j certify the relation for every j
    low = QUOTIENT_J_RANGE.start
    eigen = range(low, max(QUOTIENT_J_RANGE.stop, low + n + r + 2))
    for j in eigen:
        g = eng.fpow(n).shift(j)
        got = eng.act(g, gen)
        want = gen * mu.value_power(j, n)
        if got != want:
            raise HypothesisViolation(f"eigen relation failed at j = {j}")
    q = LaurentPoly({1: p[0]})
    for k in range(1, r + 1):
        q = q + pshift(faulhaber(k), -1) * p[k]
    mu_prime = single_root_character(lam, n - 1, q * (ONE / lam))
    report = {
        "eigen_range": [eigen.start, eigen.stop - 1],
        "eigen_ok": True,
        "submodule": f"indices with s_{n-1} >= 1",
        "quotient_degree": pdeg(q),
    }
    return report, mu_prime
