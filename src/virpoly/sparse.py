"""The sparse exact kernel: finite maps key -> Scalar with no stored zeros.

Laurent polynomials, PBW vectors and tensor vectors are such maps and share
the accumulate loop, which works on the integer triples of ``scalars``, and
the container base below; the induced and tail engines act through the
bilinear loop.  A Virasoro element holds a Laurent polynomial as its e-part
and its central coefficient z beside it, which the base's operations would
drop.  Slice ranks and linear solves share one exact elimination,
``Echelon``: reduced row echelon form with unit rows kept as labels.
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

    ``labels`` lists the labels in arrival order.  Every pivot row is 1 at
    its own label and 0 at every other label, and its label is its least
    key.  A pivot row of one key, a unit row, is exactly {label: 1} and is
    kept as its label alone, in the set ``units``; ``rows`` maps each other
    label to its pivot row, a dict of two or more keys.  A row is reduced by
    one pass over its own keys, subtracting the pivot of each key that is a
    label; a reduced pivot holds no other label, so nothing new needs
    reducing.  Against a unit row that subtraction is the deletion of the
    key: the keys in ``units`` are dropped, with the zeros, while the row is
    copied, and it is then reduced against ``rows`` alone.  A nonzero
    remainder becomes a pivot at its least key, a unit if that is its only
    key, else a row normalised to ``ONE`` there; that label is then removed
    from every earlier row that holds it.  Its other keys lie above the new
    label, which lies above the earlier row's own, so an earlier row left
    with its label alone leaves ``rows`` for ``units``.  The least label,
    not the first in dict order, keeps the pivots independent of insertion
    order and makes a label above all others (a right-hand side) a pivot
    only when nothing else is left of its row.  An earlier row is replaced
    by a fresh dict, never changed in place, so a caller may keep the rows
    it was handed; the labels a call added are ``labels`` past its length
    before the call.

    No column index is kept: the rows holding a new label are found by one
    pass over ``rows`` before the new row joins it.  A unit row holds no
    other key, so no pivot replaces it, ``units`` only grows, and a caller
    may skip forming terms at its keys.  The open rows, in ``rows``, are
    few: slice spans end with none and hold at most 82 at once (F = t - 2,
    m = -1, depth 7).  ``replaced`` counts the rows replaced; iterating
    gives the labels, ``len`` the rank and ``row`` a unit as {label: ONE}.
    """

    __slots__ = ("labels", "rows", "units", "replaced")

    def __init__(self, vectors=()):
        self.labels = []
        self.rows = {}
        self.units = set()
        self.replaced = 0
        self.extend(vectors)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def row(self, label) -> dict:
        """The pivot row of a label; a unit row as a fresh {label: ONE}."""
        row = self.rows.get(label)
        return {label: ONE} if row is None else row

    def extend(self, vectors) -> "Echelon":
        """Reduce each vector into the form in turn; returns self."""
        labels, rows, units = self.labels, self.rows, self.units
        for vec in vectors:
            row = {}
            longer = []
            for k, c in vec.items():
                if not (c._a or c._b) or k in units:
                    continue
                prow = rows.get(k)
                if prow is not None:
                    longer.append((prow, c))
                row[k] = c
            for prow, c in longer:
                accumulate(row, prow, -c)
            if not row:
                continue
            label = min(row)
            labels.append(label)
            held = list(rows.items())
            if len(row) == 1:
                units.add(label)
            else:
                lead = row[label]
                if lead._a != 1 or lead._b or lead._d != 1:
                    row = accumulate({}, row, ONE / lead)
                row[label] = ONE
                rows[label] = row
            for other, prow in held:
                if label not in prow:
                    continue
                self.replaced += 1
                new = dict(prow)
                if label in units:
                    del new[label]
                else:
                    accumulate(new, row, -new[label])
                if len(new) == 1:
                    del rows[other]
                    units.add(other)
                else:
                    rows[other] = new
        return self
