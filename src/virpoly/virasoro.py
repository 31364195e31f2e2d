"""The Virasoro algebra: elements, bracket, the projection to C[t^+-],
polynomial subalgebra descriptors, twists, and codimension-1 span checks.

Basis {z, e_j : j in Z} with

    [e_j, e_k] = (k - j) e_{j+k} + delta_{k,-j} (j^3 - j)/12 z,   [z, e_j] = 0.

The surjection theta sends e_j to t^j and z to 0 and intertwines the bracket
with the Witt bracket on Laurent polynomials.
"""

from __future__ import annotations

from .errors import IndexOutOfSubalgebra, ZeroLambda
from .laurent import LaurentPoly
from .scalars import ZERO, Scalar, json_map, sc
from .sparse import accumulate


class VirElement:
    """A Laurent polynomial e-part (e_j stored as t^j) plus a central z coefficient."""

    __slots__ = ("e_part", "z_part")

    def __init__(self, e_part=None, z_part=0):
        self.e_part = e_part if isinstance(e_part, LaurentPoly) else LaurentPoly(e_part)
        self.z_part = sc(z_part)

    @staticmethod
    def e(j: int) -> "VirElement":
        return VirElement({j: 1})

    @staticmethod
    def z(coeff=1) -> "VirElement":
        return VirElement({}, coeff)

    def is_zero(self) -> bool:
        return self.e_part.is_zero() and self.z_part.is_zero()

    def __add__(self, other: "VirElement") -> "VirElement":
        return VirElement(self.e_part + other.e_part, self.z_part + other.z_part)

    def __sub__(self, other: "VirElement") -> "VirElement":
        return self + (-other)

    def __neg__(self) -> "VirElement":
        return VirElement(-self.e_part, -self.z_part)

    def __mul__(self, other) -> "VirElement":
        c = sc(other)
        return VirElement(self.e_part * c, self.z_part * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VirElement):
            return NotImplemented
        return self.e_part == other.e_part and self.z_part == other.z_part

    def __hash__(self):
        return hash((self.e_part, self.z_part))

    def __repr__(self):
        parts = [f"({c})e_{j}" for j, c in sorted(self.e_part.terms.items())]
        if not self.z_part.is_zero():
            parts.append(f"({self.z_part})z")
        return "VirElement(" + (" + ".join(parts) if parts else "0") + ")"

    def to_json(self):
        return {"e": self.e_part.to_json(), "z": self.z_part.to_json()}

    @staticmethod
    def from_json(obj) -> "VirElement":
        obj = json_map(obj, "a Virasoro element")
        return VirElement(LaurentPoly.from_json(obj.get("e", {})), Scalar.from_json(obj.get("z", "0")))


def _cocycle(j: int) -> Scalar:
    return Scalar(j**3 - j) / 12


def vir_bracket(x: VirElement, y: VirElement) -> VirElement:
    """Bilinear extension of the defining relations; z is central.

    Each e_j of x scales the terms b (k - j) e_{j+k} of y's part into the
    map through ``accumulate``, so the result is clean and is adopted.
    """
    ys = y.e_part.terms
    out = {}
    zc = ZERO
    for j, a in x.e_part.terms.items():
        accumulate(out, {j + k: b * (k - j) for k, b in ys.items() if k != j}, a)
        if -j in ys:
            zc = zc + a * ys[-j] * _cocycle(j)
    return VirElement(LaurentPoly.adopt(out), zc)


def theta(x: VirElement) -> LaurentPoly:
    """Projection e_j -> t^j, z -> 0; a surjective Lie homomorphism."""
    return x.e_part


def twist(x: VirElement, lam) -> VirElement:
    """The automorphism tau_lambda: e_k -> lambda^k e_k, z -> z."""
    lam = sc(lam)
    if lam.is_zero():
        raise ZeroLambda("twist parameter must be nonzero")
    return VirElement({k: c * lam**k for k, c in x.e_part.terms.items()}, x.z_part)


class SubalgebraSpec:
    """Descriptor of Vir^{f^n} or of its restricted version b_m^{f^n}.

    f is monic in C[t] with nonzero constant term; the subalgebra basis is
    {z} plus x_j = sum_i a_i e_{j+i} where sum_i a_i t^i = f^n.  Under a b_m
    restriction only the x_j with j >= m (and z) belong.
    """

    __slots__ = ("f", "n", "restriction", "fn")

    def __init__(self, f: LaurentPoly, n: int = 1, restriction=None):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if not f.is_monic_nonzero_const():
            raise ValueError("f must be monic in C[t] with nonzero constant term")
        if restriction is not None and restriction < -1:
            raise ValueError("restriction cutoff m must be >= -1")
        self.f = f
        self.n = n
        self.restriction = restriction  # None for full, else the integer m
        self.fn = f**n

    def x_basis(self, j: int) -> VirElement:
        if self.restriction is not None and j < self.restriction:
            raise IndexOutOfSubalgebra(
                f"x_{j} is outside b_{self.restriction}^f"
            )
        return VirElement(self.fn.shift(j))


def central_defect(spec: SubalgebraSpec, j: int, k: int) -> Scalar:
    """The z coefficient c_{j,k} in [x_j, x_k] = (k-j) sum_i a_i x_{j+k+i} + c_{j,k} z.

    Computed honestly from vir_bracket: the e-free difference must vanish, and
    whatever multiple of z remains is returned.
    """
    b = vir_bracket(spec.x_basis(j), spec.x_basis(k))
    predicted = VirElement()
    ambient = SubalgebraSpec(spec.f, spec.n)  # ignore restriction for the identity
    for i, a in spec.fn.terms.items():
        predicted = predicted + ambient.x_basis(j + k + i) * (a * (k - j))
    diff = b - predicted
    if not diff.e_part.is_zero():
        raise AssertionError("bracket defect is not central; internal inconsistency")
    return diff.z_part


def span_member(w: VirElement, c: Scalar, step: int = 1) -> bool:
    """Membership of w in span{z} + span{e_j + c e_{j+step} : j in Z}.

    Greedy elimination from the lowest index; the z component is free.
    """
    rem = dict(w.e_part.terms)
    if not rem:
        return True
    top = max(rem)
    while rem:
        j = min(rem)
        if j >= top:  # only a tail above the last eliminable index remains
            return False
        d = rem.pop(j)
        accumulate(rem, {j + step: c}, -d)
    return True


def codim1_closure_check(c, index_range, step: int = 1, span_step=None) -> bool:
    """Bracket-closure of {e_j + c e_{j+step}} into span{z, e_i + c e_{i+span_step}}.

    With both steps 1 (the default) this verifies the codimension-1
    subalgebra shape, closed for any nonzero c.  Supplying a mismatched
    span_step is the negative control: the brackets then leave the span and
    the check returns false.
    """
    c = sc(c)
    if c.is_zero():
        raise ZeroLambda("c must be nonzero")
    if span_step is None:
        span_step = step
    idx = list(index_range)
    for j in idx:
        yj = VirElement({j: 1, j + step: c})
        for k in idx:
            yk = VirElement({k: 1, k + step: c})
            if not span_member(vir_bracket(yj, yk), c, span_step):
                return False
    return True
