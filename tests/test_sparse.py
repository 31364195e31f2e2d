import random

import pytest

from conftest import dense_rank, rand_scalar
from virpoly.characters import _solve_linear
from virpoly.errors import SingularSystem
from virpoly.induced import ModuleElement
from virpoly.laurent import LaurentPoly
from virpoly.scalars import Scalar, sc
from virpoly.sparse import Echelon, accumulate, bilinear, clean
from virpoly.tensor import TensorElement
from virpoly.virasoro import VirElement


class TestAccumulate:
    def test_scaled_add_drops_zeros(self):
        target = {"a": sc(2), "b": sc(1)}
        out = accumulate(target, {"a": sc(1), "c": sc(3)}, sc(-2))
        assert out is target
        assert target == {"b": sc(1), "c": sc(-6)}

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
        pivots = ech.pivots
        assert type(pivots) is dict
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
            assert grown.pivots == pivots
            assert list(grown.pivots) == list(pivots)
            assert grown.holders == ech.holders

    def test_extending_never_mutates_a_row_handed_out(self):
        rng = random.Random(7)
        rows = [
            {k: rand_scalar(rng) for k in rng.sample(range(10), rng.randint(1, 6))}
            for _ in range(12)
        ]
        for cut in (1, 3, 6, 9):
            ech = Echelon(rows[:cut])
            pivots = ech.pivots
            handed = {label: (row, dict(row)) for label, row in pivots.items()}
            assert ech.extend(rows[cut:]).pivots is pivots
            # later pivots are cleared from earlier rows by replacing them
            assert any(pivots[label] is not row for label, (row, _) in handed.items())
            for row, copy in handed.values():
                assert row == copy

    def test_column_index_names_the_rows_holding_each_key(self):
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

        def holders(pivots):
            out = {}
            for label, row in pivots.items():
                for k in row:
                    if k != label:
                        out.setdefault(k, set()).add(label)
            return out

        gained = lost = 0
        for cuts in ((), (2,), (3, 7, 11), tuple(range(1, len(rows)))):
            ech = Echelon()
            for lo, hi in zip((0,) + cuts, cuts + (len(rows),)):
                before = {label: set(row) for label, row in ech.pivots.items()}
                ech.extend(rows[lo:hi])
                assert ech.holders == holders(ech.pivots), (cuts, lo)
                for label, keys in before.items():
                    gained += bool(set(ech.pivots[label]) - keys)
                    lost += bool(keys - set(ech.pivots[label]) - set(ech.pivots))
        # the rows exercise both kinds of update, not only the cleared labels
        assert gained and lost

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
