"""The sparse exact kernel: finite maps key -> Scalar with no stored zeros.

Laurent polynomials, PBW vectors and tensor vectors are such maps and share
the accumulate loop, which works on the integer triples of ``scalars``, and
the container base below; the induced and tail engines act through the
bilinear loop.  A Virasoro element holds a Laurent polynomial as its e-part
and its central coefficient z beside it, which the base's operations would
drop.  Slice ranks and linear solves share one exact elimination,
``Echelon``: reduced row echelon form kept beside a column index.
"""

from __future__ import annotations

from .scalars import ONE, Scalar, _new, _reduced, sc


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
    """target += coeff * src in place, dropping zeros; coeff None or one adds src unmultiplied.

    Each term is old + c * coeff worked out on the integer triples (a, b, d)
    of ``scalars``, with the zero test on the integers, so a term allocates
    one Scalar, or none when the sum is zero.  A triple over 1 is already
    canonical and is written into the new Scalar here, as ``_make`` would,
    without the call; any other goes through ``_reduced``, which divides it
    by its full gcd (the unreduced product c * coeff has a positive
    denominator), so the value stored is the canonical form the Scalar
    operators would give.
    """
    get = target.get
    if coeff is not None:
        p, q, g = coeff._a, coeff._b, coeff._d
        if not (p or q):
            return target
        if p == 1 and g == 1 and not q:
            coeff = None
    for k, c in src.items():
        x, y, e = c._a, c._b, c._d
        if coeff is not None:
            if q == 0:
                x, y = x * p, y * p
            elif y == 0:
                x, y = x * p, x * q
            else:
                x, y = x * p - y * q, x * q + y * p
            e *= g
        old = get(k)
        if old is None:
            if not (x or y):
                continue
            if coeff is None:
                target[k] = c
            elif e == 1:
                target[k] = new = _new(Scalar)
                new._a, new._b, new._d = x, y, 1
            else:
                target[k] = _reduced(x, y, e)
            continue
        d = old._d
        if d == e:
            x += old._a
            y += old._b
        else:
            x = old._a * e + x * d
            y = old._b * e + y * d
            e *= d
        if not (x or y):
            del target[k]
        elif e == 1:
            target[k] = new = _new(Scalar)
            new._a, new._b, new._d = x, y, 1
        else:
            target[k] = _reduced(x, y, e)
    return target


def add_term(target: dict, key, c) -> None:
    """target[key] += c in place for a nonzero c, dropping a zero sum."""
    old = target.get(key)
    if old is not None:
        c = old + c
        if not (c._a or c._b):
            del target[key]
            return
    target[key] = c


def bilinear(column, g: dict, v: dict) -> dict:
    """The fresh map sum of g[k] v[key] column(k, key) over k in g and key in v.

    This is the action of the induced and tail engines: column(k, key) is
    e_k on one basis vector, often a memo entry, so it is only read.  A
    unit factor, told by its integer triple, is not multiplied in.
    """
    out = {}
    for key, c in v.items():
        unit = c._a == 1 and c._d == 1 and not c._b
        for k, a in g.items():
            if a._a == 1 and a._d == 1 and not a._b:
                a = None if unit else c
            elif not unit:
                a = a * c
            accumulate(out, column(k, key), a)
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
    no other label, so nothing new needs reducing.  A pivot row of length 1
    is exactly {label: 1}, so that subtraction is the deletion of the key:
    the keys in ``units`` are dropped, with the zeros, while the row is
    copied, and it is then reduced against the longer pivots alone.  A
    nonzero remainder becomes a pivot normalised to 1 at its least key, and
    that label is then removed from every earlier pivot row that holds it;
    its other keys lie above the new label, which lies above the earlier
    row's own.  A remainder of one key, or an earlier row left with its
    label alone, is {label: ONE} outright, and removing its label from an
    earlier row is a deletion.  The least label, not the first in dict
    order, keeps the pivots independent of insertion order and makes a
    label above all others (a right-hand side) a pivot only when nothing
    else is left of its row.  An earlier row is replaced by a fresh dict,
    never changed in place, so a caller may keep the rows it was handed; a
    row is new exactly when the map grows.

    ``holders`` is the column index of sparse direct solvers: each key maps
    to the set of labels whose rows hold it, leaving out a row's own label,
    and a key no row holds has no entry.  A new pivot replaces exactly the
    rows its label's set names, instead of scanning every row.  ``units`` is
    the set of labels whose row is {label: 1}.  It only grows: a unit row
    holds no other key, so no later pivot replaces it.  A caller may skip
    forming terms at its keys, which a row would only lose.  ``replaced``
    counts the rows replaced so far, the work the arrival of new labels
    cost.  Iterating gives the labels and ``len`` the rank.
    """

    __slots__ = ("pivots", "holders", "units", "replaced")

    def __init__(self, rows=()):
        self.pivots = {}
        self.holders = {}
        self.units = set()
        self.replaced = 0
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
        pivots, holders, units = self.pivots, self.holders, self.units
        for vec in rows:
            if not vec:
                continue
            row = {}
            longer = []
            for k, c in vec.items():
                if not (c._a or c._b) or k in units:
                    continue
                prow = pivots.get(k)
                if prow is not None:
                    longer.append((prow, c))
                row[k] = c
            for prow, c in longer:
                accumulate(row, prow, -c)
            if not row:
                continue
            label = min(row)
            if len(row) == 1:
                row = {label: ONE}
                units.add(label)
                keys = ()
            else:
                lead = row[label]
                if lead._a != 1 or lead._b or lead._d != 1:
                    row = accumulate({}, row, ONE / lead)
                keys = [k for k in row if k != label]
                for k in keys:
                    holders.setdefault(k, set()).add(label)
            others = holders.pop(label, ())
            self.replaced += len(others)
            for other in others:
                prow = pivots[other]
                new = dict(prow)
                if keys:
                    accumulate(new, row, -prow[label])
                    for k in keys:
                        if k in new:
                            if k not in prow:
                                holders[k].add(other)
                        elif k in prow:
                            holders[k].discard(other)
                else:
                    del new[label]
                if len(new) == 1:
                    new = {other: ONE}
                    units.add(other)
                pivots[other] = new
            pivots[label] = row
        return self
