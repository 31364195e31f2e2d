"""The sparse exact kernel: finite maps key -> Scalar with no stored zeros.

Laurent polynomials, PBW vectors and tensor vectors are such maps and share
the accumulate loop, the bilinear action loop and the container base below;
the Laurent polynomials include the characters' index polynomials and the
power sums P_k, which have support >= 0.  A Virasoro element holds
a Laurent polynomial as its e-part and its central coefficient z beside it,
which the base's operations would drop.  Slice ranks and linear solves share
one exact elimination, ``Echelon``: reduced row echelon form kept beside a
column index, so a new pivot visits only the rows that hold its label.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, sc


def clean(terms) -> dict:
    """A fresh map of terms with Scalar values and the zeros dropped; keys are kept as given."""
    out = {}
    if terms:
        for k, c in terms.items():
            if c.__class__ is not Scalar:
                c = sc(c)
            if not c.is_zero():
                out[k] = c
    return out


def accumulate(target: dict, src: dict, coeff=None) -> dict:
    """target += coeff * src in place, dropping zeros; coeff None adds src unmultiplied."""
    if coeff is not None and coeff.is_zero():
        return target
    for k, c in src.items():
        if coeff is not None:
            c = c * coeff
        v = target.get(k)
        if v is not None:
            c = v + c
        if c.is_zero():
            target.pop(k, None)
        else:
            target[k] = c
    return target


def bilinear(column, g: dict, v: dict) -> dict:
    """The fresh map sum of g[k] v[key] column(k, key) over k in g and key in v.

    This is every module action: column(k, key) is e_k on one basis vector,
    often a memo entry, so it is only read.
    """
    out = {}
    for key, c in v.items():
        for k, a in g.items():
            accumulate(out, column(k, key), a * c)
    return out


class SparseVector:
    """A map key -> Scalar in ``terms``; a subclass gives the keys their meaning."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = clean(terms)

    @classmethod
    def adopt(cls, terms: dict):
        """Wrap a map that is already clean, without copying or re-checking it.

        The map must hold ``Scalar`` values and no zeros, and nobody may
        mutate it afterwards: an ``accumulate`` or ``bilinear`` result the
        caller drops, or a pivot row of an ``Echelon``, which a later pivot
        may replace in the map but never mutates.
        """
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return type(self)(accumulate(dict(self.terms), other.terms))

    def __sub__(self, other):
        return type(self)(accumulate(dict(self.terms), (-other).terms))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __mul__(self, c):
        return type(self)(accumulate({}, self.terms, sc(c)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        parts = [f"({c}){k}" for k, c in sorted(self.terms.items())]
        return f"{name}(" + " + ".join(parts) + ")"


class Echelon:
    """Exact reduced row echelon form of sparse rows, grown row by row.

    ``pivots`` maps each label to its pivot row, in insertion order.  Every
    pivot row is 1 at its own label and 0 at every other label, and its
    label is its least key.  A row is reduced by one pass over its own keys,
    subtracting the pivot of each key that is a label; a reduced pivot holds
    no other label, so nothing new needs reducing.  A nonzero remainder
    becomes a pivot normalised to 1 at its least key, and that label is then
    removed from every earlier pivot row that holds it; its other keys lie
    above the new label, which lies above the earlier row's own.  The least
    label, not the first in dict order, keeps the pivots independent of
    insertion order and makes a label above all others (a right-hand side) a
    pivot only when nothing else is left of its row.  An earlier row is
    replaced by a fresh dict, never changed in place, so a caller may keep
    the rows it was handed; a row is new exactly when the map grows.

    ``holders`` is the column index of sparse direct solvers: each key maps
    to the set of labels whose rows hold it, leaving out a row's own label,
    and a key no row holds has no entry.  A new pivot replaces exactly the
    rows its label's set names, instead of scanning every row.  Iterating
    gives the labels and ``len`` the rank.
    """

    __slots__ = ("pivots", "holders")

    def __init__(self, rows=()):
        self.pivots = {}
        self.holders = {}
        self.extend(rows)

    def __len__(self) -> int:
        return len(self.pivots)

    def __iter__(self):
        return iter(self.pivots)

    def extend(self, rows) -> "Echelon":
        """Reduce each row into the form in turn; returns self.

        Replacing a row p by p - c r, with r the new pivot row, can change
        only whether p holds a key of r, so the index is updated by the
        difference of the old and new key sets over those keys alone.  A key
        p loses that way is still held by r, so no set is ever left empty.
        """
        pivots, holders = self.pivots, self.holders
        for vec in rows:
            row = {k: c for k, c in vec.items() if not c.is_zero()}
            for k, c in [(k, c) for k, c in row.items() if k in pivots]:
                accumulate(row, pivots[k], -c)
            if not row:
                continue
            label = min(row)
            lead = row[label]
            if lead != ONE:
                row = accumulate({}, row, ONE / lead)
            keys = [k for k in row if k != label]
            for k in keys:
                holders.setdefault(k, set()).add(label)
            for other in holders.pop(label, ()):
                prow = pivots[other]
                new = accumulate(dict(prow), row, -prow[label])
                for k in keys:
                    if k in new:
                        if k not in prow:
                            holders[k].add(other)
                    elif k in prow:
                        holders[k].discard(other)
                pivots[other] = new
            pivots[label] = row
        return self
