import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd

import pytest

from conftest import dense_rank, pivots_of, rand_scalar
from virpoly.characters import _solve_linear
from virpoly.errors import SingularSystem
from virpoly.induced import ModuleElement
from virpoly.laurent import LaurentPoly
from virpoly import sparse
from virpoly.scalars import ONE, Scalar, _make, sc
from virpoly.sparse import Echelon, accumulate, add_term, bilinear, clean
from virpoly.tensor import TensorElement
from virpoly.virasoro import VirElement


def unit_labels(pivots):
    """The labels whose row is {label: 1}, read from the rows themselves."""
    return {label for label, row in pivots.items() if len(row) == 1}


def canonical(c) -> bool:
    """A stored value is a Scalar triple (a, b, d) in canonical form: d > 0 and gcd(a, b, d) == 1."""
    return type(c) is Scalar and c._d > 0 and gcd(c._a, c._b, c._d) == 1


def reference_accumulate(target: dict, src: dict, coeff) -> dict:
    """target + coeff * src written with the Scalar operators alone, zeros dropped."""
    out = dict(target)
    for k, c in src.items():
        if coeff is not None:
            c = c * coeff
        out[k] = out.get(k, Scalar(0)) + c
    return {k: c for k, c in out.items() if not c.is_zero()}


class TestAccumulate:
    def test_seeded_sweep_matches_the_scalar_operators(self):
        rng = random.Random(20)
        dens = (1, 2, 3, 4, 6, 9)

        def value(gaussian):
            re = Fraction(rng.randint(-6, 6), rng.choice(dens))
            im = Fraction(rng.randint(-6, 6), rng.choice(dens)) if gaussian else 0
            return Scalar(re, im)

        cancelled = zeros = 0
        for trial in range(600):
            gaussian = trial % 2 == 1
            target = clean({k: value(gaussian) for k in rng.sample(range(8), rng.randint(0, 6))})
            src = {k: value(gaussian) for k in rng.sample(range(8), rng.randint(0, 6))}
            coeff = rng.choice([None, ONE, sc(-1), sc(0), sc("1/2"), value(gaussian), value(gaussian)])
            # some terms cancel a target term exactly, so their key must go
            if coeff is not None and not coeff.is_zero():
                for k in rng.sample(sorted(target), min(2, len(target))):
                    src[k] = -target[k] / coeff
            want = reference_accumulate(target, src, coeff)
            got = accumulate(dict(target), src, coeff)
            assert got == want, (target, src, coeff)
            assert all(canonical(c) and hash(c) == hash(want[k]) for k, c in got.items())
            cancelled += len(set(target) - set(got))
            zeros += coeff is not None and coeff.is_zero()
            # the one-term form agrees too, a zero sum dropped
            for k, c in src.items():
                if not c.is_zero():
                    add_term(got, k, c)
                    want = reference_accumulate(want, {k: c}, None)
            assert got == want and all(canonical(c) for c in got.values())
        assert cancelled > 100 and zeros > 50

    def test_canonical_sums_and_the_negative_control(self, monkeypatch):
        half = {"a": sc("1/2")}
        got = accumulate(dict(half), half)["a"]
        assert got == Scalar(1) and hash(got) == hash(Scalar(1)) and canonical(got)
        got = accumulate({"a": sc("1/3")}, {"a": sc("1/6")}, sc(4))["a"]
        assert (got._a, got._b, got._d) == (1, 0, 1)
        got = accumulate({}, {"a": Scalar("1/2", "1/2")}, Scalar(1, -1))["a"]
        assert got == Scalar(1) and canonical(got)
        # a triple that skips the reduction is caught by the same check
        monkeypatch.setattr(sparse, "_reduced", _make)
        got = accumulate(dict(half), half)["a"]
        assert (got._a, got._b, got._d) == (2, 0, 2) and not canonical(got)

    def test_scaled_add_drops_zeros(self):
        target = {"a": sc(2), "b": sc(1)}
        out = accumulate(target, {"a": sc(1), "c": sc(3)}, sc(-2))
        assert out is target
        assert target == {"b": sc(1), "c": sc(-6)}

    def test_add_term_adds_inserts_and_drops_a_zero_sum(self):
        target = {"a": sc(2), "b": sc(1)}
        add_term(target, "a", sc(3))
        add_term(target, "b", sc(-1))
        add_term(target, "c", sc("1/2"))
        assert target == {"a": sc(5), "c": sc("1/2")}

    def test_zero_coefficient_leaves_target(self):
        target = {"a": sc(2)}
        accumulate(target, {"a": sc(1), "b": sc(1)}, sc(0))
        assert target == {"a": sc(2)}

    def test_unit_case_adds_without_multiplying(self, monkeypatch):
        def no_mul(a, b):
            raise AssertionError("the unit case must not multiply")

        monkeypatch.setattr(Scalar, "__mul__", no_mul)
        target = {(1, 0): sc("1/2"), (0, 1): sc(1)}
        accumulate(target, {(1, 0): sc("-1/2"), (2, 0): sc(3)})
        assert target == {(0, 1): sc(1), (2, 0): sc(3)}

    def test_unit_coefficient_adds_without_multiplying(self, monkeypatch):
        def no_mul(a, b):
            raise AssertionError("a coefficient of one must not multiply")

        monkeypatch.setattr(Scalar, "__mul__", no_mul)
        target = {"a": sc(2), "b": sc("1/3")}
        out = accumulate(target, {"a": sc(-2), "c": sc(5)}, sc(1))
        assert out is target and target == {"b": sc("1/3"), "c": sc(5)}
        # bilinear passes the unit on: a unit letter on a unit row multiplies nothing
        assert bilinear(lambda k, key: {key + k: sc(3)}, {1: sc(1)}, {0: sc(1)}) == {1: sc(3)}

    def test_bilinear_matches_a_direct_double_sum(self):
        rng = random.Random(17)
        memo = {}

        def column(k, key):
            # e_0 kills everything, and some images cancel to zero coefficients
            if (k, key) not in memo:
                memo[(k, key)] = {} if k == 0 else {key + k: rand_scalar(rng), key - k: sc(k)}
            return memo[(k, key)]

        for _ in range(30):
            g = {k: rand_scalar(rng) for k in rng.sample(range(-2, 3), rng.randint(0, 4))}
            v = {key: rand_scalar(rng) for key in rng.sample(range(-3, 4), rng.randint(0, 4))}
            if g and v:
                g[next(iter(g))] = sc(0)
            want = {}
            for k, a in g.items():
                for key, c in v.items():
                    for j, b in column(k, key).items():
                        want[j] = want.get(j, Scalar(0)) + a * c * b
            frozen = {kk: dict(col) for kk, col in memo.items()}
            out = bilinear(column, g, v)
            assert out == {j: c for j, c in want.items() if not c.is_zero()}
            assert all(type(c) is Scalar and not c.is_zero() for c in out.values())
            # the columns are only read
            assert memo == frozen and all(out is not col for col in memo.values())

    def test_clean_coerces_values_and_drops_zeros(self):
        terms = {1: 2, 2: 0, -3: "1/2", 4: sc(0), 5: Scalar(1, 1)}
        out = clean(terms)
        assert out == {1: sc(2), -3: sc("1/2"), 5: Scalar(1, 1)} and out is not terms
        assert all(type(c) is Scalar for c in out.values())
        # the keys are kept as given, not rebuilt
        assert clean({"1": 1}) == {"1": sc(1)}
        assert clean(None) == {} and clean({}) == {}


class TestContainers:
    def test_module_and_tensor_elements_share_the_base(self):
        rng = random.Random(7)
        for cls, keys in (
            (LaurentPoly, [-2, 0, 3]),
            (ModuleElement, [(0, 1), (1, 0), (2, 2)]),
            (TensorElement, [(((0,), (1,)), ()), (((1,), (0,)), (-1,))]),
        ):
            u = cls({k: rand_scalar(rng) for k in keys})
            v = cls({k: rand_scalar(rng) for k in keys})
            assert (u + v) - v == u
            assert (u - u).is_zero()
            assert -u == u * -1 == -1 * u
            # a Scalar on the left leaves the product to the vector
            assert sc(2) * u == u * 2 == 2 * u
            assert sc("-1/3") * u == u * sc("-1/3")
            assert hash(u * 2) == hash(u + u)
            assert repr(cls()) == f"{cls.__name__}(0)"
            assert u != ModuleElement() and u != TensorElement() and u != LaurentPoly()
        # a Virasoro element is no SparseVector but scales the same way
        x = VirElement({-1: sc("1/2"), 2: sc(3)}, sc(-4))
        assert sc(2) * x == x * 2 == 2 * x == VirElement({-1: 1, 2: 6}, -8)

    def test_adopt_wraps_the_map_itself(self):
        terms = {(0, 1): sc(2), (1, 0): sc("-1/3")}
        v = ModuleElement.adopt(terms)
        assert type(v) is ModuleElement and v.terms is terms
        assert v == ModuleElement(terms)


def gauss_jordan(rows) -> dict:
    """Reduced row echelon form by dense Gauss-Jordan on (re, im) pairs of
    Fractions, a reference sharing no code with ``Echelon`` or ``Scalar``
    arithmetic: columns in ascending key order, each pivot row scaled to 1
    at its pivot and cleared from every other row.  Returns {pivot column:
    {key: (re, im)}} with the zeros left out."""
    cols = sorted({k for row in rows for k in row})
    zero = (Fraction(0), Fraction(0))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    def inv(x):
        n = x[0] * x[0] + x[1] * x[1]
        return (x[0] / n, -x[1] / n)

    m = [[(row[k].re, row[k].im) if k in row else zero for k in cols] for row in rows]
    r = 0
    pivot_cols = []
    for j in range(len(cols)):
        at = next((i for i in range(r, len(m)) if m[i][j] != zero), None)
        if at is None:
            continue
        m[r], m[at] = m[at], m[r]
        scale = inv(m[r][j])
        m[r] = [mul(x, scale) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][j] != zero:
                f = m[i][j]
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[r])]
        pivot_cols.append(j)
        r += 1
    return {cols[j]: {cols[i]: x for i, x in enumerate(m[n]) if x != zero} for n, j in enumerate(pivot_cols)}


def pivot_faults(echelon_cls, rows) -> list:
    """Where an ``Echelon`` class built row by row departs from the
    reference: its rank against ``dense_rank``, its rows against
    ``gauss_jordan``, any single-key pivot other than {label: ONE}, and any
    unit row also kept as a dict."""
    ech = echelon_cls()
    faults = []
    for n, row in enumerate(rows, 1):
        ech.extend([row])
        if len(ech) != dense_rank(rows[:n]):
            faults.append(("rank", n))
        pivots = pivots_of(ech)
        got = {label: {k: (c.re, c.im) for k, c in prow.items()} for label, prow in pivots.items()}
        if got != gauss_jordan(rows[:n]):
            faults.append(("rows", n))
        faults += [("unit", n, label) for label, prow in pivots.items() if len(prow) == 1 and prow != {label: ONE}]
        faults += [("dict", n, label) for label in ech.units if label in ech.rows]
    return faults


def single_key_rows(rng, gaussian: bool) -> list:
    """Rows over 0..9 whose reductions often leave one key, at a coefficient
    other than one: scaled single keys, and combinations of earlier rows plus
    a scaled single key."""

    def coeff():
        c = sc(rng.choice((-3, -2, 2, 3, 5))) / sc(rng.choice((1, 2, 7)))
        return c + Scalar(0, rng.choice((-1, 1, 2))) if gaussian and rng.random() < 0.6 else c

    rows = []
    for _ in range(14):
        kind = rng.random()
        if kind < 0.3 or not rows:
            rows.append({rng.randrange(10): coeff()})
        elif kind < 0.6:
            rows.append({k: coeff() for k in rng.sample(range(10), rng.randint(2, 4))})
        else:
            row = accumulate(dict(rng.choice(rows)), rng.choice(rows), coeff())
            rows.append(accumulate(row, {rng.randrange(10): coeff()}))
    return rows


class TestEchelon:
    def test_rank_and_pivot_shape(self):
        rng = random.Random(5)
        rows = [{0: sc(1), 1: sc(2)}, {0: sc(2), 1: sc(4)}, {1: sc(1), 2: sc(0)}, {}]
        # four random rows and eight combinations of them: rank at most 6 in 8 columns;
        # keys descend, so the least label is not the first in dict order
        base = [
            {k: rand_scalar(rng) for k in sorted(rng.sample(range(8), rng.randint(2, 5)), reverse=True)}
            for _ in range(4)
        ]
        extra = base + [
            accumulate(dict(rng.choice(base)), rng.choice(base), rand_scalar(rng)) for _ in range(8)
        ]
        rng.shuffle(extra)
        rows += extra
        ech = Echelon(rows)
        pivots = pivots_of(ech)
        # iterating gives the labels in insertion order, len the rank
        assert list(ech) == list(pivots) and len(ech) == len(pivots)
        assert len(Echelon(rows[:4])) == dense_rank(rows[:4]) == 2
        assert len(pivots) == dense_rank(rows) < 8
        for label, row in pivots.items():
            # a pivot sits at the least key of its row, normalised to 1
            assert label == min(row) and row[label] == sc(1)
            # and its row is zero at every other label: the form is reduced
            assert set(row) & set(pivots) == {label}
        # extending the map in batches gives the map of one call
        for cuts in ((), (1,), (3, 4, 9), tuple(range(1, len(rows)))):
            grown = Echelon()
            for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
                assert grown.extend(rows[lo:hi]) is grown
            assert pivots_of(grown) == pivots
            assert list(pivots_of(grown)) == list(pivots)
            assert grown.units == ech.units

    def test_extending_never_mutates_a_row_handed_out(self):
        rng = random.Random(7)
        rows = [
            {k: rand_scalar(rng) for k in rng.sample(range(10), rng.randint(1, 6))}
            for _ in range(12)
        ]
        for cut in (1, 3, 6, 9):
            ech = Echelon(rows[:cut])
            longer = ech.rows
            handed = {label: (row, dict(row)) for label, row in longer.items()}
            assert ech.extend(rows[cut:]).rows is longer
            # later pivots are cleared from earlier rows by replacing them
            assert any(longer.get(label) is not row for label, (row, _) in handed.items())
            for row, copy in handed.values():
                assert row == copy

    def test_replaced_rows_gain_and_lose_keys(self):
        # small integer rows over few keys, half of them combinations of
        # others, so replaced rows both gain keys and lose them to cancellation
        rng = random.Random(13)
        base = [
            {k: sc(rng.choice((-2, -1, 1, 2))) for k in rng.sample(range(9), rng.randint(2, 6))}
            for _ in range(8)
        ]
        rows = base + [
            accumulate(dict(rng.choice(base)), rng.choice(base), sc(rng.choice((-1, 1))))
            for _ in range(8)
        ]
        rng.shuffle(rows)

        gained = lost = 0
        for cuts in ((), (2,), (3, 7, 11), tuple(range(1, len(rows)))):
            ech = Echelon()
            for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
                before = {label: set(row) for label, row in pivots_of(ech).items()}
                ech.extend(rows[lo:hi])
                pivots = pivots_of(ech)
                assert ech.units == unit_labels(pivots), (cuts, lo)
                for label, row in pivots.items():
                    # each row is zero at every other label, whichever rows the new labels replaced
                    assert label == min(row) and row[label] == sc(1)
                    assert set(row) & set(pivots) == {label}, (cuts, lo)
                for label, keys in before.items():
                    gained += bool(set(pivots[label]) - keys)
                    lost += bool(keys - set(pivots[label]) - set(pivots))
        # the rows exercise both kinds of update, not only the cleared labels
        assert gained and lost

    def test_unit_and_scaled_pivots_together(self):
        # unit rows {k: 1} beside rows that pivot at a coefficient other than
        # one, and combinations of both, so an incoming row meets both kinds
        rng = random.Random(19)
        units = [{k: sc(1)} for k in rng.sample(range(12), 5)]
        scaled = [
            {k: rand_scalar(rng) for k in rng.sample(range(12), rng.randint(2, 5))}
            for _ in range(5)
        ]
        mixed = [
            accumulate(dict(rng.choice(units)), rng.choice(scaled), rand_scalar(rng)) for _ in range(6)
        ]
        rows = units + scaled + mixed
        rng.shuffle(rows)

        for cuts in ((), (4,), (2, 7, 11), tuple(range(1, len(rows)))):
            ech = Echelon()
            for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
                ech.extend(rows[lo:hi])
                assert len(ech) == dense_rank(rows[:hi]), (cuts, hi)
                pivots = pivots_of(ech)
                assert ech.units == unit_labels(pivots), (cuts, hi)
                for label, row in pivots.items():
                    assert label == min(row) and row[label] == sc(1)
                    assert set(row) & set(pivots) == {label}
        # some final rows are units and some are not
        assert any(len(row) == 1 for row in pivots.values())
        assert any(len(row) > 1 for row in pivots.values())

    def test_rows_with_zeros_and_both_pivot_kinds(self):
        # each incoming row holds explicit zeros, keys of unit pivots and keys
        # of longer pivots at once: the copy drops the zeros and the unit
        # keys, and the longer pivots reduce what is left
        rng = random.Random(23)
        units = [{k: sc(1)} for k in rng.sample(range(12), 4)]
        longer = [
            {k: sc(rng.choice((-2, -1, 1, 3))) for k in rng.sample(range(12), rng.randint(2, 4))}
            for _ in range(4)
        ]
        first = Echelon(units + longer)
        unit_keys = [label for label, row in pivots_of(first).items() if len(row) == 1]
        long_keys = [label for label, row in pivots_of(first).items() if len(row) > 1]
        assert unit_keys and long_keys
        mixed = [{k: sc(0) for k in unit_keys + [12, 13]}]  # zeros at unit labels: nothing to add
        for _ in range(8):
            row = {k: rand_scalar(rng) for k in rng.sample(range(12), 3)}
            row.update({rng.choice(unit_keys): sc(rng.choice((-2, 3))), rng.choice(long_keys): sc("1/2")})
            row[rng.choice((12, 13))] = sc(0)
            mixed.append(row)
        assert any(c.is_zero() for row in mixed for c in row.values())
        rows = units + longer + mixed

        for cuts in ((), (8,), (3, 9, 12), tuple(range(1, len(rows)))):
            ech = Echelon()
            for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
                ech.extend(rows[lo:hi])
                assert len(ech) == dense_rank(rows[:hi]), (cuts, hi)
                pivots = pivots_of(ech)
                assert ech.units == unit_labels(pivots), (cuts, hi)
                for label, row in pivots.items():
                    assert label == min(row) and row[label] == sc(1)
                    assert set(row) & set(pivots) == {label}
                    assert all(not c.is_zero() for c in row.values())
                # a key only ever given zeros is held by no row
                assert not {12, 13} & {k for row in pivots.values() for k in row}
        assert pivots_of(ech) == pivots_of(Echelon(rows))

    def test_back_substitution_can_make_a_unit_row(self):
        # {1: 1} clears label 1 from {0: 1, 1: 1}, which is then {0: 1}: both
        # labels are units, the one replaced row is counted, and a later row
        # loses both keys while it is copied
        ech = Echelon([{0: sc(1), 1: sc(1)}])
        assert ech.units == set() and ech.replaced == 0
        ech.extend([{1: sc(1)}])
        assert pivots_of(ech) == {0: {0: sc(1)}, 1: {1: sc(1)}}
        assert ech.units == {0, 1} == unit_labels(pivots_of(ech)) and ech.replaced == 1
        ech.extend([{0: sc(5), 1: sc(-2), 2: sc(3)}])
        assert pivots_of(ech)[2] == {2: sc(1)} and ech.units == {0, 1, 2} and ech.replaced == 1
        # a scaled row replaced twice, and a new unit label that clears two rows
        ech = Echelon([{0: sc(2), 3: sc(4)}, {3: sc(-1), 4: sc(1)}])
        assert pivots_of(ech) == {0: {0: sc(1), 4: sc(2)}, 3: {3: sc(1), 4: sc(-1)}}
        assert ech.units == set() and ech.replaced == 1
        ech.extend([{3: sc(3)}])
        assert pivots_of(ech) == {0: {0: sc(1)}, 3: {3: sc(1)}, 4: {4: sc(1)}}
        assert ech.units == {0, 3, 4} and ech.replaced == 3

    def test_unit_pivots_reduce_without_multiplying(self, monkeypatch):
        ech = Echelon({k: sc(1)} for k in (0, 2, 3))
        pivots = dict(pivots_of(ech))

        def no_mul(a, b):
            raise AssertionError("a unit pivot must reduce by deletion")

        monkeypatch.setattr(Scalar, "__mul__", no_mul)
        # an integer row that the unit pivots reduce to zero, and one that
        # leaves a remainder already 1 at its least key
        ech.extend([{0: sc(3), 2: sc(-2), 3: sc(7)}, {3: sc(-4), 5: sc(1), 0: sc(2), 8: sc(-6)}])
        assert pivots_of(ech) == {**pivots, 5: {5: sc(1), 8: sc(-6)}}
        assert ech.units == {0, 2, 3} and ech.replaced == 0

    @pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
    def test_single_key_pivots_match_gauss_jordan(self, gaussian):
        rng = random.Random(29 + gaussian)
        seen = 0
        for _ in range(12):
            rows = single_key_rows(rng, gaussian)
            assert pivot_faults(Echelon, rows) == []
            seen += sum(len(row) == 1 and row[min(row)] != ONE for row in rows)
        # the rows reach the single-key path with coefficients other than one
        assert seen > 20
        if gaussian:
            assert any(not c.is_rational() for row in rows for c in row.values())

    def test_a_pivot_keeping_its_coefficient_is_caught(self):
        # the same class, except that a single-key pivot is also kept as the
        # row it arrived as, at its coefficient, instead of by its label alone
        source = textwrap.dedent(inspect.getsource(Echelon))
        unit = "units.add(label)\n"
        assert source.count(unit) == 1
        namespace = dict(vars(sparse))
        exec(source.replace(unit, unit + " " * 16 + "rows[label] = row\n"), namespace)
        mutant = namespace["Echelon"]
        rng = random.Random(31)
        for gaussian in (False, True):
            rows = single_key_rows(rng, gaussian)
            faults = pivot_faults(mutant, rows)
            assert {f[0] for f in faults} == {"rows", "unit", "dict"}, gaussian

    def test_solve_matches_the_system(self):
        rng = random.Random(11)
        for n in range(1, 5):
            rows = [
                [rand_scalar(rng) + (sc(5) if i == j else sc(0)) for j in range(n)]
                for i in range(n)
            ]
            rhs = [rand_scalar(rng) for _ in range(n)]
            x = _solve_linear(rows, rhs)
            for r, b in zip(rows, rhs):
                assert sum((a * xi for a, xi in zip(r, x)), Scalar(0)) == b

    def test_solve_when_the_right_hand_side_survives_a_reduction(self):
        # the second row reduces to (0, -1 | 4): a pivot must not fall on the rhs
        x = _solve_linear([[sc(1), sc(1)], [sc(1), sc(0)]], [sc(1), sc(5)])
        assert x == [sc(5), sc(-4)]

    def test_solve_with_pivots_out_of_label_order(self):
        # the first row pivots at label 1, the second at label 0
        rows = [[sc(0), sc(1)], [sc(1), sc(1)]]
        rhs = [sc(2), sc(5)]
        ech = Echelon({**dict(enumerate(r)), 2: b} for r, b in zip(rows, rhs))
        assert list(ech) == [1, 0]
        assert _solve_linear(rows, rhs) == [sc(3), sc(2)]

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([[1, 2], [2, 4]], [1, 2]),
            ([[1, 2], [2, 4]], [1, 3]),
            ([[0, 0], [1, 0]], [1, 0]),
            ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [0, 0, 1]),
        ],
    )
    def test_singular_systems_raise(self, rows, rhs):
        with pytest.raises(SingularSystem):
            _solve_linear([[sc(a) for a in r] for r in rows], [sc(b) for b in rhs])
