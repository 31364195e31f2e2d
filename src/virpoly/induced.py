"""Induced modules over single-root polynomial subalgebras.

For f = t - lambda and a character mu of Vir^{f^n}, the induced module has
PBW basis f^s v = (f^0)^[s_0] (f^1)^[s_1] ... (f^{n-1})^[s_{n-1}] v indexed
by tuples s of nonnegative integers.  The action of a Laurent polynomial g
is computed by straightening:

  * on the generator, take the Taylor coefficients a_i of g at lambda:
    a_0 .. a_{n-1} bump basis directions and mu eats sum_k a_{n+k} f^{n+k};
  * on f^s v with s nonzero, split off the lowest occupied direction l and
    use t^k . f^l = f^l . t^k + [t^k, f^l], where the Witt bracket
    [t^k, t^i] = (i - k) t^(k+i) expands [t^k, f^l] into monomials read off
    the coefficients of f^l; the recursion strictly decreases |s| in every
    bracket branch, which is the termination argument.

Left multiplication by a generator f^l against an index occupied below l is
straightened the same way through [f^l, f^l'] = (l' - l) t f^{l+l'-1}.  A
Laurent polynomial acts monomial by monomial, so both memos are keyed on
integers: (k, s) for t^k f^s v and (l, s) for f^l f^s v.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .characters import ExpPolyCharacter, single_root_character
from .densepoly import index_poly, pdeg, pshift
from .errors import HypothesisViolation, SearchExhausted, ZeroLambda, ZeroVector
from .faulhaber import faulhaber
from .laurent import LaurentPoly, linear_factor, taylor
from .scalars import ONE, Scalar, json_list, json_map, sc
from .sparse import SparseVector, accumulate, bilinear
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


def _bump(s, i: int) -> tuple:
    return tuple(v + 1 if k == i else v for k, v in enumerate(s))


# -- elements ----------------------------------------------------------------


class ModuleElement(SparseVector):
    """Sparse vector in the PBW basis: finite map multi-index -> Scalar."""

    __slots__ = ()

    @staticmethod
    def basis(s) -> "ModuleElement":
        return ModuleElement({tuple(s): 1})

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
            s = json_map(t, "a module vector term")["s"]
            if not isinstance(s, list) or not all(type(x) is int for x in s):
                raise ValueError(f"a module index must be a list of integers, not {s!r}")
            accumulate(terms, {tuple(s): Scalar.from_json(t["c"])})
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
        self.f = linear_factor(lam)
        self._fpow = {0: LaurentPoly({0: 1}), 1: self.f}
        # mu(f^(n+k)) for k <= r, through f^k = sum_i C(k, i) (-lam)^(k-i) t^i;
        # mu kills t^j f^(n+r+1), so the generator needs no higher k
        self._mu_fpow = []
        for k in range(self.r + 1):
            terms = (comb(k, i) * (-lam) ** (k - i) * mu.value_power(i, n) for i in range(k + 1))
            self._mu_fpow.append(sum(terms, Scalar(0)))
        self._act_cache = {}
        self._lmul_cache = {}
        self.zero_index = (0,) * n

    def fpow(self, k: int) -> LaurentPoly:
        if k not in self._fpow:
            self._fpow[k] = self.f**k
        return self._fpow[k]

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

    def _act_idx(self, k: int, s: tuple) -> dict:
        key = (k, s)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        if not any(s):
            a = taylor(LaurentPoly({k: 1}), self.lam, self.n + self.r + 1)
            out = {}
            for i, c in enumerate(a[: self.n]):
                if not c.is_zero():
                    out[_bump(s, i)] = c
            val = sum((c * mu_f for c, mu_f in zip(a[self.n :], self._mu_fpow)), Scalar(0))
            # the window bumps never land on the zero index s itself
            if not val.is_zero():
                out[s] = val
        else:
            l = ell(s)
            d = dstep(s)
            out = {}
            for idx, c in self._act_idx(k, d).items():
                accumulate(out, self._lmul_idx(l, idx), c)
            # [t^k, f^l] = sum_i f^l[i] (i - k) t^(k+i)
            for i, c in self.fpow(l).terms.items():
                if i != k:
                    accumulate(out, self._act_idx(k + i, d), c * sc(i - k))
        self._act_cache[key] = out
        return out

    def _lmul_idx(self, l: int, s: tuple) -> dict:
        if not any(s) or ell(s) >= l:
            return {_bump(s, l): Scalar(1)}
        key = (l, s)
        hit = self._lmul_cache.get(key)
        if hit is not None:
            return hit
        l2 = ell(s)
        d = dstep(s)
        out = {}
        for idx, c in self._lmul_idx(l, d).items():
            accumulate(out, self._lmul_idx(l2, idx), c)
        # [f^l, f^l2] = (l2 - l) sum_i f^(l+l2-1)[i] t^(i+1)
        for i, c in self.fpow(l + l2 - 1).terms.items():
            accumulate(out, self._act_idx(i + 1, d), c * sc(l2 - l))
        self._lmul_cache[key] = out
        return out

    # public action entry points

    def act_on_index(self, g: LaurentPoly, s: tuple) -> dict:
        """Monomial-split action on one basis index; shares the recursion cache.

        No code in this package calls it any more (the tensor columns read
        ``_act_idx`` directly).  It stays as the entry point of the Leibniz
        oracle in the tests and of the traced benchmark's spans.
        """
        return bilinear(self._act_idx, g.terms, {s: ONE})

    def act(self, g: LaurentPoly, v: ModuleElement) -> ModuleElement:
        return ModuleElement.adopt(bilinear(self._act_idx, g.terms, v.terms))

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
    lam, n, _ = mu.root_data()
    if m < n:
        raise HypothesisViolation("oracle requires m >= n")
    eng = get_engine(mu)
    g = LaurentPoly({j: 1}) * eng.fpow(m)
    v = eng.basis(s)
    return eng.act(g, v) - v * mu.value_power(j, m)


# -- leading-index reduction -----------------------------------------------------

REDUCE_MAX_STEPS = 64  # bound on the descent; each step lowers the leading index


def _expanding(window: int):
    yield 0
    for a in range(1, window + 1):
        yield a
        yield -a


def reduce_step(mu: ExpPolyCharacter, v: ModuleElement, j_window: int = 16):
    """One strict decrease of the leading index.

    Requires a nonzero character of degree r > n-3 and a vector outside the
    span of the generator.  Chooses m = n+r+1-ell (or n+r+s_0 when the first
    coordinate leads) and searches j until (t^j f^m - mu(t^j f^m)) v is
    nonzero with leading index exactly D (resp. Dt) of the old one; all but
    finitely many j work, so the default window is generous.
    """
    lam, n, p = mu.root_data()
    r = pdeg(p)
    if r <= n - 3 or mu.is_zero_map():
        raise HypothesisViolation("reduction needs a nonzero character of degree > n-3")
    lead = v.leading_index()
    if not any(lead):
        raise HypothesisViolation("vector is already in the span of the generator")
    l = ell(lead)
    m = n + r + 1 - l if l > 0 else n + r + lead[0]
    target = dstep(lead) if l > 0 else dtilde(lead)
    eng = get_engine(mu)
    g_base = eng.fpow(m)
    for j in _expanding(j_window):
        g = g_base.shift(j)
        w = eng.act(g, v) - v * mu.value_power(j, m)
        if not w.is_zero() and w.leading_index() == target:
            return (j, m), w
    raise SearchExhausted(f"no j in [-{j_window}, {j_window}] realized the reduction")


def reduce_to_generator(mu: ExpPolyCharacter, v: ModuleElement, j_window: int = 16):
    """Iterate reduce_step until the span of the generator is reached."""
    trace = []
    cur = v
    for _ in range(REDUCE_MAX_STEPS):
        if set(cur.terms) == {get_engine(mu).zero_index}:
            return trace, cur
        op, cur = reduce_step(mu, cur, j_window)
        trace.append(op)
    raise SearchExhausted("reduction did not reach the generator span")


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
    constant polynomial lam (b - 1) at the root lam.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    mu = single_root_character(spec.lam, 1, [spec.lam * (spec.b - sc(1))])
    return _omega_equivariant(spec, mu, depth)


def _omega_equivariant(spec: OmegaSpec, mu: ExpPolyCharacter, depth: int) -> bool:
    eng = get_engine(mu)
    for s0 in range(depth + 1):
        for k in range(-depth, depth + 1):
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
        for k in QUOTIENT_J_RANGE:
            for s0 in range(1, 5):
                moved = eng.act(LaurentPoly({k: 1}), eng.basis((s0,)))
                if any(idx[0] < 1 for idx in moved.terms):
                    raise HypothesisViolation(
                        "linear-case slice is not invariant; only the zero "
                        "character admits the quotient"
                    )
        report = {
            "eigen_range": [min(QUOTIENT_J_RANGE), max(QUOTIENT_J_RANGE)],
            "submodule": "indices with s_0 >= 1",
            "quotient": "one-dimensional trivial module",
        }
        return report, None
    if r > n - 3:
        raise HypothesisViolation("quotient construction needs r <= n-3")
    gen = eng.basis((0,) * (n - 1) + (1,))
    for j in QUOTIENT_J_RANGE:
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
        "eigen_range": [min(QUOTIENT_J_RANGE), max(QUOTIENT_J_RANGE)],
        "eigen_ok": True,
        "submodule": f"indices with s_{n-1} >= 1",
        "quotient_degree": pdeg(q),
    }
    return report, mu_prime
