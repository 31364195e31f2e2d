"""One-dimensional characters of polynomial and restricted subalgebras.

A character of Vir^f is determined by the sequence mu_j = mu(t^j f), which
satisfies the linear recurrence with characteristic polynomial f and hence
has the closed form mu_j = sum_i p_i(j) lambda_i^j over the roots of f, with
deg p_i below the multiplicity n_i.  The central element is always sent to
zero on a full polynomial subalgebra.  Characters of the restricted
subalgebras b_m^f keep a free window of values mu_m .. mu_{2m+p} (p the
degree of f), a free z value, and an exponential-polynomial tail governing
all higher indices.
"""

from __future__ import annotations

from .densepoly import index_poly, p_from_json, p_to_json, pdeg, pshift
from .errors import (
    IndexOutOfSubalgebra,
    NotDivisible,
    NotInIdeal,
    RootCollision,
    SingularSystem,
)
from .laurent import ONE_POLY, LaurentPoly, divide_exact, linear_factor
from .scalars import (
    ONE,
    ZERO,
    Scalar,
    json_field,
    json_index,
    json_int,
    json_list,
    json_map,
    order_keys,
    sc,
)
from .sparse import Echelon, accumulate


# The largest degree of the ambient polynomial F, sum n_i + deg extra, of a
# character read from a request (for a tensor spec, of the product of its
# factors).  No other bound sees it, and the work climbs steeply with it:
# at degree 64 `tensor-map --depth 1` takes 1.0-1.5 s on one, two or four
# factors, `reduce` about 0.3 s and every other command 0.1-0.3 s; at 80
# `tensor-map --depth 1` takes up to 4.5 s (2-core host, Python 3.11).
MAX_CHARACTER_DEGREE = 64


def check_degree(degree: int, what: str) -> None:
    if degree > MAX_CHARACTER_DEGREE:
        raise ValueError(
            f"{what} has degree {degree}; characters are read up to degree {MAX_CHARACTER_DEGREE}"
        )


class ExpPolyCharacter:
    """Character data in exponential-polynomial form.

    factors is a tuple of (lambda, n, p) with distinct nonzero lambda and p
    an index polynomial (a ``LaurentPoly`` with support >= 0) of degree below
    n; the defining ideal is generated by
    ambient = extra * prod (t - lambda_i)^{n_i}, where extra is a monic
    polynomial multiplier with extra(0) != 0 that vanishes at none of the
    lambda_i (the identity multiplier except for restriction images).
    Evaluation: mu(t^j ambient) = sum_i p_i(j) lambda_i^j.

    The factors are ordered by (re, im) of their roots.  A character is
    immutable apart from ``_power_cache``, so it keeps what every request
    would recompute: its hash, made on first use, and ``_root``, the one
    factor of a single-root character (None otherwise).
    """

    __slots__ = ("factors", "extra", "ambient", "_power_cache", "_hash", "_root")

    def __init__(self, factors, extra: LaurentPoly = ONE_POLY):
        norm = []
        seen = set()
        for lam, n, p in factors:
            lam = sc(lam)
            p = index_poly(p)
            if lam.is_zero():
                raise ValueError("character roots must be nonzero")
            if lam in seen:
                raise ValueError("character roots must be distinct")
            seen.add(lam)
            if n < 1:
                raise ValueError("root multiplicities must be positive")
            if pdeg(p) >= n or not p.is_polynomial():
                raise ValueError("p must be a polynomial of degree below the root multiplicity")
            norm.append((lam, int(n), p))
        keys = order_keys([lam for lam, _, _ in norm])
        self.factors = tuple([norm[i] for i in sorted(range(len(norm)), key=keys.__getitem__)])
        if not (extra == ONE_POLY):
            if not extra.is_monic_nonzero_const():
                raise ValueError("extra multiplier must be monic with nonzero constant term")
            for lam, _, _ in self.factors:
                if extra.evaluate(lam).is_zero():
                    raise RootCollision("extra multiplier vanishes at a character root")
        self.extra = extra
        amb = extra
        for lam, n, _ in self.factors:
            amb = amb * linear_factor(lam) ** n
        self.ambient = amb
        self._power_cache = {}
        self._hash = None
        single = len(self.factors) == 1 and extra == ONE_POLY
        self._root = self.factors[0] if single else None

    # -- evaluation -----------------------------------------------------

    def seq(self, j: int) -> Scalar:
        """mu_j = mu(t^j ambient)."""
        out = Scalar(0)
        for lam, _, p in self.factors:
            if not p.is_zero():
                out = out + p.evaluate(j) * lam**j
        return out

    def eval(self, g: LaurentPoly) -> Scalar:
        """Linear extension to the ideal generated by the ambient polynomial."""
        try:
            q = divide_exact(g, self.ambient)
        except NotDivisible as exc:
            raise NotInIdeal(str(exc)) from exc
        out = Scalar(0)
        for j, c in q.terms.items():
            out = out + c * self.seq(j)
        return out

    def validate(self, index_range) -> bool:
        """Recurrence oracle: sum_i a_i mu_{m+i} = 0 with a = ambient coefficients."""
        coefs = self.ambient.terms
        for m in index_range:
            acc = Scalar(0)
            for i, a in coefs.items():
                acc = acc + a * self.seq(m + i)
            if not acc.is_zero():
                return False
        return True

    # -- degree data ------------------------------------------------------

    def is_zero_map(self) -> bool:
        return all(p.is_zero() for _, _, p in self.factors)

    # -- single-root helpers ----------------------------------------------

    def is_single_root(self) -> bool:
        return self._root is not None

    def root_data(self):
        """(lambda, n, p) of a single-root character; ValueError for any other."""
        if self._root is None:
            raise ValueError("operation requires a single-root character")
        return self._root

    def power_poly(self, m: int):
        """p_m with mu(t^j f^m) = p_m(j) lambda^j, for m >= n (single root)."""
        lam, n, p = self.root_data()
        if m < n:
            raise NotInIdeal(f"t^j f^{m} is outside the ideal of f^{n}")
        cache = self._power_cache
        if n not in cache:
            cache[n] = p
        if m not in cache:
            start = max(k for k in cache if k <= m)
            cur = cache[start]
            for k in range(start + 1, m + 1):
                cur = derived_power_recurrence(lam, cur)
                cache[k] = cur
        return cache[m]

    def value_power(self, j: int, m: int) -> Scalar:
        """mu(t^j f^m) = p_m(j) lambda^j, for m >= n (single root)."""
        pm = self.power_poly(m)
        if pm.is_zero():
            return Scalar(0)
        return pm.evaluate(j) * self._root[0] ** j

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExpPolyCharacter):
            return NotImplemented
        return self.factors == other.factors and self.extra == other.extra

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.factors, self.extra))
        return self._hash

    def __repr__(self):
        fs = ", ".join(f"(lam={lam}, n={n}, p={p_to_json(p)})" for lam, n, p in self.factors)
        return f"ExpPolyCharacter([{fs}])"

    def to_json(self):
        out = {
            "factors": [
                {"lambda": lam.to_json(), "n": n, "p": p_to_json(p)}
                for lam, n, p in self.factors
            ]
        }
        if not (self.extra == ONE_POLY):
            out["extra"] = self.extra.to_json()
        return out

    @staticmethod
    def from_json(obj) -> "ExpPolyCharacter":
        obj = json_map(obj, "a character")
        factors = []
        for f in json_list(json_field(obj, "factors", "a character"), "the character factors"):
            n = json_int(json_field(f, "n", "a character factor"), "a root multiplicity n")
            p = p_from_json(json_list(f.get("p", []), "a character polynomial p"))
            factors.append((Scalar.from_json(json_field(f, "lambda", "a character factor")), n, p))
        extra = LaurentPoly.from_json(obj["extra"]) if "extra" in obj else ONE_POLY
        check_degree(sum(n for _, n, _ in factors) + max(extra.terms, default=0), "the character")
        return ExpPolyCharacter(factors, extra)


def single_root_character(lam, n: int, p) -> ExpPolyCharacter:
    return ExpPolyCharacter([(sc(lam), n, p)])


def derived_power_recurrence(lam, p: LaurentPoly) -> LaurentPoly:
    """One step p -> lambda * (p(x+1) - p(x)).

    For a character on <f^n> with f = t - lambda and associated polynomial p,
    iterating from m = n gives the polynomials p_m of mu(t^j f^m); each step
    drops the degree by exactly one until the zero polynomial is reached.
    """
    return _restrict_poly(p, linear_factor(lam), sc(lam))


def _cofactor(roots, i: int) -> LaurentPoly:
    """prod over j != i of (t - lambda_j)^{n_j}, for roots a list of (lambda_j, n_j)."""
    g = ONE_POLY
    for j, (lam, n) in enumerate(roots):
        if j != i:
            g = g * linear_factor(lam) ** n
    return g


def _restrict_poly(p: LaurentPoly, g: LaurentPoly, lam: Scalar) -> LaurentPoly:
    """q(x) = sum_i c_i lam^i p(x + i) for g = sum_i c_i t^i."""
    out = {}
    for i, c in g.terms.items():
        accumulate(out, pshift(p, i).terms, c * lam**i)
    return LaurentPoly(out)


def restrict(mu: ExpPolyCharacter, g: LaurentPoly) -> ExpPolyCharacter:
    """Restriction of a single-factor character to the ideal of g * ambient.

    Requires g in C[t] with nonzero constant term and g(lambda) != 0.  The
    resulting polynomial has the same degree as p (its leading coefficient
    picks up the nonzero factor g(lambda)).
    """
    if len(mu.factors) != 1:
        raise ValueError("restrict operates on single-factor characters")
    lam, n, p = mu.factors[0]
    if g.is_zero() or not g.is_polynomial():
        raise ValueError("multiplier must be a nonzero element of C[t]")
    if g[0].is_zero():
        raise ValueError("multiplier must have nonzero constant term")
    if g.evaluate(lam).is_zero():
        raise RootCollision("multiplier vanishes at the character root")
    lc = g.leading_coeff()
    q = _restrict_poly(p, g, lam) * (ONE / lc)
    ghat = g * (ONE / lc)
    extra = mu.extra * ghat if not (ghat == ONE_POLY) else mu.extra
    return ExpPolyCharacter([(lam, n, q)], extra)


def compose(parts) -> ExpPolyCharacter:
    """The sum character on Vir^f, f = prod (t - lambda_i)^{n_i}.

    Each single-root part restricts through the complementary product; the
    result stores the composite factor data (lambda_i, n_i, q_i) with
    deg q_i = deg p_i.
    """
    parts = list(parts)
    for mu in parts:
        if not mu.is_single_root():
            raise ValueError("compose needs single-root characters")
    roots = [(lam, n) for lam, n, _ in (mu.factors[0] for mu in parts)]
    factors = []
    for i, mu in enumerate(parts):
        lam, n, p = mu.factors[0]
        factors.append((lam, n, _restrict_poly(p, _cofactor(roots, i), lam)))
    return ExpPolyCharacter(factors)


def decompose(mu: ExpPolyCharacter):
    """Split a character on Vir^f into single-root characters summing to it.

    Uses the basis characters gamma_{i,d}(t^j f_i^{n_i}) = j^d lambda_i^j:
    their restrictions to Vir^f have degree exactly d, so sum_d b_d gamma_d = q
    is a triangular system, singular only if some gamma_d lost degree.
    """
    if not (mu.extra == ONE_POLY):
        raise ValueError("decompose needs a fully factored ambient polynomial")
    if len(mu.factors) == 1:
        # the cofactor is 1, so the system is the identity
        return [mu]
    roots = [(lam, n) for lam, n, _ in mu.factors]
    out = []
    for i, (lam, n, q) in enumerate(mu.factors):
        g = _cofactor(roots, i)
        size = pdeg(q) + 1
        basis = [_restrict_poly(LaurentPoly({d: 1}), g, lam) for d in range(size)]
        rows = [[gd[k] for gd in basis] for k in range(size)]
        out.append(ExpPolyCharacter([(lam, n, _solve_linear(rows, [q[k] for k in range(size)]))]))
    return out


def _solve_linear(rows, rhs):
    """Exact solution of a square system; raises SingularSystem unless it is unique.

    The right-hand side sits at label n, above every column, so it is a pivot
    only for a row whose coefficients vanished.  With a pivot at every column,
    each reduced pivot row is zero at every other unknown, so x_label is the
    row's entry at n.
    """
    n = len(rows)
    ech = Echelon({**dict(enumerate(r)), n: b} for r, b in zip(rows, rhs))
    if set(ech) != set(range(n)):
        raise SingularSystem("no pivot available")
    return [ech.row(label).get(n, ZERO) for label in range(n)]


def solve_exp_poly(values, roots, j0: int) -> ExpPolyCharacter:
    """Fit mu_j = sum_i q_i(j) lambda_i^j through p consecutive values.

    values are mu_{j0} .. mu_{j0+p-1} with p = sum of the multiplicities; the
    confluent Vandermonde system is solved exactly.
    """
    roots = [(sc(lam), int(n)) for lam, n in roots]
    p = sum(n for _, n in roots)
    if len(values) != p:
        raise ValueError("need exactly sum(n_i) consecutive values")
    cols = []
    for lam, n in roots:
        for d in range(n):
            cols.append((lam, d))
    rows = []
    for k in range(p):
        j = j0 + k
        rows.append([sc(j) ** d * lam**j for lam, d in cols])
    sol = _solve_linear(rows, [sc(v) for v in values])
    factors = []
    pos = 0
    for lam, n in roots:
        factors.append((lam, n, sol[pos : pos + n]))
        pos += n
    return ExpPolyCharacter(factors)


class RestrictedCharacter:
    """A character of the restricted subalgebra b_m^F, F = prod (t-lam_i)^{n_i}.

    Stores the free window mu_j for m <= j <= 2m, the free central value,
    and the exponential-polynomial tail that gives mu_j for every j > 2m;
    the tail's values on [2m+1, 2m+p] (p = deg F) are free too, and fix it.
    """

    __slots__ = ("m", "tail", "window", "z_value")

    def __init__(self, m: int, tail: ExpPolyCharacter, window, z_value=0):
        if m < -1:
            raise ValueError("m must be >= -1")
        if not (tail.extra == ONE_POLY):
            raise ValueError("restricted characters need a fully factored F")
        self.m = m
        self.tail = tail
        for j in range(m, 2 * m + 1):
            if j not in window:
                raise ValueError(f"missing free window value at index {j}")
        for j in range(2 * m + 1, 2 * m + tail.ambient.degree() + 1):
            if j in window and sc(window[j]) != tail.seq(j):
                raise ValueError(f"window value at {j} disagrees with the tail")
        self.window = {j: sc(window[j]) for j in range(m, 2 * m + 1)}
        self.z_value = sc(z_value)

    @staticmethod
    def from_window(roots, m: int, window, z_value=0) -> "RestrictedCharacter":
        """Build from explicit values mu_j on the whole window [m, 2m+p]."""
        p = sum(n for _, n in roots)
        j0 = 2 * m + 1
        values = []
        for j in range(j0, j0 + p):
            if j not in window:
                raise ValueError(f"missing window value at index {j}")
            values.append(window[j])
        tail = solve_exp_poly(values, roots, j0)
        return RestrictedCharacter(m, tail, window, z_value)

    def ambient(self) -> LaurentPoly:
        return self.tail.ambient

    def mu_x(self, j: int) -> Scalar:
        """mu(x_j^F) for j >= m."""
        if j < self.m:
            raise IndexOutOfSubalgebra(f"x_{j} is outside b_{self.m}^F")
        if j <= 2 * self.m:
            return self.window[j]
        return self.tail.seq(j)

    def split_muhat(self):
        """Split mu = mu_ddot + mu_hat.

        mu_ddot is the tail extended to a character of the full Vir^F (with
        z -> 0); mu_hat is supported on e_m .. e_{2m} plus z, solved by back
        substitution from sum_i a_i hat_{j+i} = mu_j - ddot_j, where a_i are
        the coefficients of F (a_0 != 0 sits on the diagonal).
        """
        F = self.tail.ambient
        a = F.terms
        a0 = a[0]
        hat = {}
        for j in range(2 * self.m, self.m - 1, -1):
            acc = self.mu_x(j) - self.tail.seq(j)
            for i in sorted(a):
                if i == 0:
                    continue
                idx = j + i
                if idx in hat:
                    acc = acc - a[i] * hat[idx]
            hat[j] = acc / a0
        return self.tail, {"window": hat, "z": self.z_value}

    def muhat_closed_forms(self):
        """The corollary values of the hat character, straight from the window.

        For m = 0:   hat_0      = a_0^-2 sum_i a_i mu_i.
        For m >= 1:  hat_{2m}   = a_0^-2 sum_i a_i mu_{2m+i}
                     display    = a_0 sum_i a_i mu_{2m+i-1} - 2 a_1 sum_i a_i mu_{2m+i}
                     hat_{2m-1} = display / a_0^3.
        """
        F = self.tail.ambient
        a = F.terms
        a0 = a[0]
        out = {}
        if self.m == 0:
            s = Scalar(0)
            for i, ai in a.items():
                s = s + ai * self.mu_x(i)
            out["hat_0"] = s / (a0 * a0)
        elif self.m >= 1:
            s2 = Scalar(0)
            s1 = Scalar(0)
            for i, ai in a.items():
                s2 = s2 + ai * self.mu_x(2 * self.m + i)
                s1 = s1 + ai * self.mu_x(2 * self.m + i - 1)
            a1 = a.get(1, Scalar(0))
            display = a0 * s1 - 2 * a1 * s2
            out["hat_2m"] = s2 / (a0 * a0)
            out["hat_2m_minus_1"] = display / (a0**3)
            out["hat_2m_minus_1_display"] = display
        return out

    def to_json(self):
        base = self.tail.to_json()
        base["restriction"] = {
            "m": self.m,
            "window": {str(j): v.to_json() for j, v in self.window.items()},
            "z": self.z_value.to_json(),
        }
        return base

    @staticmethod
    def from_json(obj) -> "RestrictedCharacter":
        tail = ExpPolyCharacter.from_json(obj)
        r = json_map(json_field(obj, "restriction", "a restricted character"), "a restriction")
        window = json_map(r.get("window", {}), "a window")
        window = {json_index(j, "a window index"): Scalar.from_json(v) for j, v in window.items()}
        z = Scalar.from_json(r.get("z", "0"))
        m = json_int(json_field(r, "m", "a restriction"), "the restriction index m")
        return RestrictedCharacter(m, tail, window, z)

    def __repr__(self):
        return f"RestrictedCharacter(m={self.m}, F={self.tail.ambient!r})"
