"""Modules induced from the upper subalgebras b_m = span{z, e_j : j >= m}.

One engine covers the three classical families: Verma modules (m = 0 with
e_0 -> h, z -> c), the quotient realization induced from b_{-1} (character
identically zero on the e_j, z -> c), and Whittaker modules (m >= 1 with a
free window on e_m .. e_{2m}).  The PBW basis consists of weakly increasing
words in the generators e_j with j < m applied to the cyclic vector; left
multiplication is straightened with the defining bracket, the cocycle
feeding the central value c.  Products already in PBW order are written
without straightening: e_i on a word it does not exceed, and, inside a
straightening, e_i and e_(i+j0) on the rest of the word when they do not
exceed its first letter.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import VirpolyError
from .scalars import ONE, ZERO, Scalar, json_field, json_index, json_int, json_map, sc
from .sparse import accumulate, add_term, bilinear, clean
from .virasoro import VirElement, _cocycle

_FAMILIES = {-1: "mbar", 0: "verma"}  # every m >= 1 is Whittaker
# the JSON fields each family reads besides "type"; another family's field is a contradiction
_FIELDS = {"trivial": (), "verma": ("m", "c", "h"), "mbar": ("m", "c"), "whittaker": ("m", "c", "psi")}


class TailModuleSpec:
    """Parameters of a b_m-induced module, or of the trivial module (m None).

    The family is a function of m: the quotient family at m = -1, Verma at
    m = 0 and Whittaker for m >= 1.  The character is free on the window
    [m, 2m] and zero above it, so the window is empty at m = -1 and {e_0} (the
    weight h) for Verma.  The z value c is free in every family; the trivial
    module ignores all of it.
    """

    __slots__ = ("m", "window", "c")

    def __init__(self, m=None, window=None, c=0):
        window = clean(window)
        if m is not None and (m < -1 or not all(m <= j <= 2 * m for j in window)):
            raise ValueError(f"a b_m character needs m >= -1 and support in [m, 2m], not m = {m}")
        self.m = m
        self.window = window
        self.c = sc(c)

    @staticmethod
    def trivial() -> "TailModuleSpec":
        return TailModuleSpec()

    @staticmethod
    def verma(h, c) -> "TailModuleSpec":
        return TailModuleSpec(0, {0: h}, c)

    @staticmethod
    def mbar(c) -> "TailModuleSpec":
        return TailModuleSpec(-1, {}, c)

    @staticmethod
    def whittaker(m, psi, c) -> "TailModuleSpec":
        if m < 1:
            raise ValueError("a Whittaker spec needs m >= 1")
        return TailModuleSpec(m, psi, c)

    @property
    def kind(self) -> str:
        return "trivial" if self.m is None else _FAMILIES.get(self.m, "whittaker")

    def is_trivial(self) -> bool:
        return self.m is None

    def psi(self, j: int) -> Scalar:
        """Character value on e_j, defined for j >= m; zero beyond 2m."""
        if self.m is None:
            return ZERO
        if j < self.m:
            raise ValueError(f"e_{j} is not in b_{self.m}")
        return self.window.get(j, ZERO)

    def to_json(self):
        out = {"type": self.kind}
        if self.kind == "trivial":
            return out
        out["m"] = self.m
        out["c"] = self.c.to_json()
        if self.kind == "verma":
            out["h"] = self.psi(0).to_json()
        elif self.kind == "whittaker":
            out["psi"] = {str(j): v.to_json() for j, v in sorted(self.window.items())}
        return out

    @staticmethod
    def from_json(obj) -> "TailModuleSpec":
        kind = json_field(obj, "type", "a tail module")
        if not isinstance(kind, str) or kind not in _FIELDS:
            raise ValueError(f"unknown tail module type {kind!r}")
        stray = [name for name in ("m", "c", "h", "psi") if name in obj and name not in _FIELDS[kind]]
        if stray:
            raise ValueError(f"a {kind} tail takes no {', '.join(stray)}")
        if kind == "trivial":
            return TailModuleSpec.trivial()
        m = json_int(obj["m"], "the tail index m") if "m" in obj else None
        c = Scalar.from_json(obj.get("c", "0"))
        if kind == "verma":
            spec = TailModuleSpec.verma(Scalar.from_json(obj.get("h", "0")), c)
        elif kind == "mbar":
            spec = TailModuleSpec.mbar(c)
        else:
            if m is None:
                raise ValueError("a whittaker tail needs its m")
            psi = json_map(obj.get("psi", {}), "psi")
            psi = {json_index(j, "a psi index"): Scalar.from_json(v) for j, v in psi.items()}
            spec = TailModuleSpec.whittaker(m, psi, c)
        if m is not None and m != spec.m:
            raise ValueError(f"a {kind} tail has m = {spec.m}, not {m}")
        return spec

    def params(self):
        return (self.m, tuple(sorted(self.window.items())), self.c)

    def __eq__(self, other):
        if not isinstance(other, TailModuleSpec):
            return NotImplemented
        return self.params() == other.params()

    def __hash__(self):
        return hash(self.params())

    def __repr__(self):
        return f"TailModuleSpec({self.kind}, m={self.m})"


# -- straightening action -------------------------------------------------------

# A basis monomial is a weakly increasing tuple of integers, all below m,
# applied left-to-right to the cyclic vector.


class TailModule:
    """Action engine for a b_m-induced module."""

    def __init__(self, spec: TailModuleSpec):
        if spec.is_trivial():
            raise ValueError("the trivial module needs no engine")
        self.spec = spec
        self._cache = {}

    def _act_e(self, i: int, mono: tuple) -> dict:
        """e_i on the basis monomial mono; the map must not be mutated.

        Only real straightening, i above the first entry j0 of mono, is
        memoized in ``_cache``: the cyclic vector and a product already in
        PBW order are answered directly.  With rest = mono[1:],
        e_i e_j0 rest = e_j0 (e_i rest) + (j0 - i) e_(i+j0) rest, plus the
        cocycle times c on rest when j0 = -i.  A monomial of e_i rest that
        e_j0 meets in PBW order (it is empty, since j0 < m, or starts at j0
        or above) takes e_j0 in front, written in place.  So are (j0, i) + rest
        and (i + j0,) + rest when i or i + j0 is at most ``top``, rest's first
        entry (m - 1 on the cyclic vector), which puts e_x rest in PBW order.
        """
        if not mono:
            if i < self.spec.m:
                return {(i,): ONE}
            val = self.spec.psi(i)
            return {(): val} if not val.is_zero() else {}
        j0 = mono[0]
        if i <= j0:
            return {(i,) + mono: ONE}
        key = (i, mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        rest = mono[1:]
        top = rest[0] if rest else self.spec.m - 1
        if i <= top:
            out = {(j0, i) + rest: ONE}
        else:
            out = {}
            for mono2, c in self._act_e(i, rest).items():
                if mono2 and mono2[0] < j0:
                    accumulate(out, self._act_e(j0, mono2), c)
                else:
                    add_term(out, (j0,) + mono2, c)
        if i + j0 <= top:
            add_term(out, (i + j0,) + rest, Scalar(j0 - i))
        else:
            accumulate(out, self._act_e(i + j0, rest), Scalar(j0 - i))
        if j0 == -i:
            zc = _cocycle(i) * self.spec.c
            if not zc.is_zero():
                add_term(out, rest, zc)
        self._cache[key] = out
        return out

    def act_vir(self, x: VirElement, v: dict) -> dict:
        """x v for v a map monomial -> Scalar; z scales v by c whatever its keys."""
        out = bilinear(self._act_e, x.e_part.terms, v)
        if x.z_part.is_zero():
            return out
        return accumulate(out, v, x.z_part * self.spec.c)


_tail_engines = {}


def get_tail_engine(spec: TailModuleSpec) -> TailModule:
    eng = _tail_engines.get(spec)
    if eng is None:
        eng = TailModule(spec)
        _tail_engines[spec] = eng
    return eng


def b_act(spec: TailModuleSpec, x: VirElement, v: dict) -> dict:
    """Left action of a Virasoro element on a combination of basis monomials."""
    return get_tail_engine(spec).act_vir(x, v)


def ann_bound(spec: TailModuleSpec, v) -> int:
    """An L with e_j v = 0 for all j >= L, for v supported on the monomials
    that iterating v gives (the keys of a dict, or a list of them).

    Conservative: starting from the window end of the character, a migrating
    generator e_j loses at most the total negative mass N of the monomial
    entries before it reaches the cyclic vector, and the central cocycle can
    only fire when the migrating index drops to the negation of an entry;
    shifting by 2N clears both hazards, for every central charge.
    """
    if spec.is_trivial():
        return 0
    base = max(2 * spec.m + 1, 0)  # past the window end 2m; 2m + 1 >= m as m >= -1
    worst = 0
    for mono in v:
        neg = sum(-j for j in mono if j < 0)
        worst = max(worst, neg)
    return base + 2 * worst


# -- simplicity criteria ----------------------------------------------------------


def kac_h(r: int, s: int, c) -> dict:
    """Conjugate-product data of the degenerate weights h_{r,s}(c), h_{s,r}(c).

    The square root enters the two weights with opposite signs, so their sum
    and product are rational in c:

        sum     = A / 24,              A = (13-c)(r^2+s^2) - 24 r s - 2 + 2c
        product = (A^2 - B^2 (c-1)(c-25)) / 48^2,   B = r^2 - s^2

    and Phi_{r,s}(c, h) = h^2 - sum h + product vanishes exactly at the two
    degenerate weights.
    """
    if r < 1 or s < 1:
        raise ValueError("Kac labels must be positive")
    c = sc(c)
    A = (sc(13) - c) * sc(r * r + s * s) - sc(24 * r * s) - sc(2) + sc(2) * c
    B = sc(r * r - s * s)
    total = A / sc(24)
    prod = (A * A - B * B * (c - sc(1)) * (c - sc(25))) / sc(48 * 48)
    return {"sum": total, "product": prod}


def kac_phi(r: int, s: int, c, h) -> Scalar:
    data = kac_h(r, s, c)
    h = sc(h)
    return h * h - data["sum"] * h + data["product"]


# The scan visits about level * ln(level) pairs: 1.9 s at level 10,000 (2-core host).
MAX_KAC_LEVEL = 10000


def verma_simple_upto(h, c, level: int) -> dict:
    """Degeneracy scan over all (r, s) with r s <= level.

    Returns the first degenerate pair if one exists; otherwise the module is
    simple as far as the level-``level`` Kac determinant sees.
    """
    if not 1 <= level <= MAX_KAC_LEVEL:
        raise ValueError(f"level bound must be from 1 to {MAX_KAC_LEVEL}, not {level}")
    h = sc(h)
    c = sc(c)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            if kac_phi(r, s, c, h).is_zero():
                return {"simple": False, "degenerate": (r, s), "level": level}
    return {"simple": True, "degenerate": None, "level": level}


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _integer_sqrt(x: Fraction):
    """The integer T >= 0 with T^2 = x, or None."""
    root = _rational_sqrt(x)
    return root.numerator if root is not None and root.denominator == 1 else None


def _rational_tau(c: Fraction):
    """A rational root of 6 tau^2 - (13 - c) tau + 6 = 0, or None.

    The roots are tau and 1/tau, and c = 13 - 6 (tau + 1/tau).
    """
    k = 13 - c
    root = _rational_sqrt(k * k - 144)
    return None if root is None else (k + root) / 12


def _least_labels(p: int, q: int, e: int) -> list:
    """The solutions (r, s), r, s >= 1, of p r - q s = e at which r s can be
    least, for coprime p and q >= 1.

    r runs through one residue class mod q, and s = (p r - e) / q >= 1 bounds
    r below when p > 0, where r s grows with r, and above when p < 0, where
    r s is concave in r: the least r s is at the least r, or at either end.
    """
    r0 = e * pow(p, -1, q) % q
    if p > 0:
        lo = max(1, -(-(e + q) // p))
        ends = {lo + (r0 - lo) % q}
    else:
        hi = (e + q) // p
        ends = {r for r in (1 + (r0 - 1) % q, hi - (hi - r0) % q) if 1 <= r <= hi}
    return [(r, (p * r - e) // q) for r in ends]


def verma_degenerate(h, c):
    """The Kac label (r, s) of least level r s (then least r) with
    Phi_{r,s}(c, h) = 0, or None when the Verma module M(c, h) is simple;
    exact for rational c and h.

    With c = 13 - 6 (tau + 1/tau), M(c, h) is reducible iff
    (r tau - s)^2 = 4 tau h + (tau - 1)^2 for some r, s >= 1 (Kac 1979;
    Feigin-Fuchs 1984); the root 1/tau swaps r and s, as Phi_{r,s} = Phi_{s,r}
    does.  For rational tau = p/q in lowest terms this is
    (p r - q s)^2 = 4 p q h + (p - q)^2, so the right side is the square of an
    integer T and the labels solve p r - q s = +-T.  For irrational tau,
    comparing the parts in {1, tau} after tau^2 = ((13 - c)/6) tau - 1 leaves
    s^2 = r^2 and r^2 = 1 + 24 h / (1 - c): one candidate (r, r).
    """
    h, c = sc(h), sc(c)
    if not (h.is_rational() and c.is_rational()):
        raise ValueError("the exact Verma criterion needs rational c and h")
    h, c = h.re, c.re
    tau = _rational_tau(c)
    if tau is None:
        r = _integer_sqrt(1 + 24 * h / (1 - c))
        return (r, r) if r else None
    p, q = tau.numerator, tau.denominator
    t = _integer_sqrt(4 * p * q * h + (p - q) ** 2)
    if t is None:
        return None
    labels = [pair for e in {t, -t} for r, s in _least_labels(p, q, e) for pair in ((r, s), (s, r))]
    return min(labels, key=lambda rs: (rs[0] * rs[1], rs[0]), default=None)


def mbar_simple(c) -> bool:
    """Simplicity of the b_{-1}-induced module at central charge c.

    The excluded charges are c = 1 - 6 (p-q)^2 / (p q) over coprime integers
    p, q >= 2, that is c = 13 - 6 (x + 1/x) at x = p/q: the decision reduces
    to whether 6 x^2 - (13 - c) x + 6 = 0 has a rational root whose reduced
    numerator and denominator are both at least 2 (the other root is 1/x).
    A central charge with nonzero imaginary part is never excluded.
    """
    c = sc(c)
    if not c.is_rational():
        return True
    x = _rational_tau(c.re)
    return x is None or not (x > 0 and x.numerator >= 2 and x.denominator >= 2)


def whittaker_simple(spec: TailModuleSpec) -> bool:
    """Simple iff the character is nonzero at e_{2m} or at e_{2m-1}."""
    if spec.kind != "whittaker":
        raise VirpolyError("whittaker_simple expects a Whittaker spec")
    if not spec.window:
        raise VirpolyError("the Whittaker character must be nonzero")
    m = spec.m
    return not (spec.psi(2 * m).is_zero() and spec.psi(2 * m - 1).is_zero())


def tail_simplicity(spec: TailModuleSpec, kac_level: int = 20) -> dict:
    """Uniform simplicity verdict for a tail module.

    A Verma tail with rational c and h is decided exactly by
    ``verma_degenerate`` (criterion "kac-determinant"); any other Verma tail
    by the scan up to ``kac_level`` (criterion "level-scan").
    """
    if spec.is_trivial():
        return {"kind": "trivial", "simple": True}
    if spec.kind == "verma":
        h, c = spec.psi(0), spec.c
        if h.is_rational() and c.is_rational():
            pair = verma_degenerate(h, c)
            return {"kind": "verma", "simple": pair is None, "degenerate": pair,
                    "criterion": "kac-determinant"}
        v = verma_simple_upto(h, c, kac_level)
        return {"kind": "verma", "simple": v["simple"], "degenerate": v["degenerate"],
                "criterion": "level-scan", "kac_level": kac_level}
    if spec.kind == "mbar":
        return {"kind": "mbar", "simple": mbar_simple(spec.c)}
    if not spec.window:
        return {"kind": "whittaker", "simple": False, "note": "zero character"}
    return {"kind": "whittaker", "simple": whittaker_simple(spec)}
