import random
from itertools import product

import pytest

from conftest import dense_rank, rand_vir
from virpoly import induced, tailmod
from virpoly.characters import RestrictedCharacter, compose, single_root_character
from virpoly.errors import DepthTooSmall, HypothesisViolation
from virpoly.induced import get_engine
from virpoly.laurent import LaurentPoly
from virpoly.scalars import Scalar, sc
from virpoly.sparse import accumulate
from virpoly.tailmod import TailModuleSpec, b_act
from virpoly.tensor import (
    MAX_SLICE_RANK,
    TensorElement,
    TensorSpec,
    _abstract_slice_dim,
    _quotient_reducer,
    _rank,
    _word_vectors,
    annihilating_shift,
    cyclic_reduce,
    general_tensor_map,
    iso_decide,
    restricted_to_tensor,
    simplicity_verdict,
    tensor_act,
)
from virpoly.virasoro import VirElement, vir_bracket


def t(k, c=1):
    return LaurentPoly.t_power(k, c)


def ones(lam, n, r):
    return single_root_character(lam, n, [1] * (r + 1) if r >= 0 else [])


def basis(spec, parts, mono=()):
    return TensorElement({(tuple(tuple(p) for p in parts), tuple(mono)): 1})


TAILS = [
    TailModuleSpec.trivial(),
    TailModuleSpec.verma(sc(2), sc(1)),
    TailModuleSpec.mbar(sc(3)),
    TailModuleSpec.whittaker(1, {2: sc(1)}, sc("1/2")),
]


class TestTensorAct:
    def test_z_with_trivial_tail(self):
        spec = TensorSpec([ones(1, 1, 0), ones(2, 1, 0)])
        assert tensor_act(spec, VirElement.z(7), spec.generator()).is_zero()

    def test_z_through_tail(self):
        spec = TensorSpec([ones(1, 1, 0)], TailModuleSpec.verma(sc(2), sc(5)))
        got = tensor_act(spec, VirElement.z(), spec.generator())
        assert got == spec.generator() * sc(5)

    def test_degenerate_tensor_matches_act_vir(self):
        mu = ones(2, 2, 1)
        spec = TensorSpec([mu])
        eng = get_engine(mu)
        rng = random.Random(83)
        for _ in range(25):
            x = rand_vir(rng, -3, 3)
            idx = (rng.randint(0, 2), rng.randint(0, 2))
            got = tensor_act(spec, x, basis(spec, [idx]))
            want = eng.act_vir(x, eng.basis(idx))
            assert got.terms == {
                ((s,), ()): c for s, c in want.terms.items()
            }

    def test_leibniz_example(self):
        spec = TensorSpec([ones(1, 1, 0), ones(2, 1, 0)])
        got = tensor_act(spec, VirElement.e(0), spec.generator())
        assert got == TensorElement(
            {(((1,), (0,)), ()): 1, (((0,), (1,)), ()): 1}
        )

    @pytest.mark.parametrize("tail", TAILS, ids=lambda tail: tail.kind)
    def test_matches_leibniz_reference(self, tail):
        # a Gaussian root beside a rational one; a single letter on a single
        # basis vector is exactly one column
        gaussian = single_root_character(Scalar(1, 1), 2, [Scalar(0, 1), 1])
        spec = TensorSpec([ones(2, 1, 0), gaussian], tail)
        rng = random.Random(109)

        def rand_basis():
            parts = ((rng.randint(0, 1),), (rng.randint(0, 1), rng.randint(0, 1)))
            mono = () if tail.is_trivial() else tuple(
                sorted(rng.randint(tail.m - 3, tail.m - 1) for _ in range(rng.randint(0, 2)))
            )
            return basis(spec, parts, mono)

        for _ in range(15):
            b = rand_basis()
            v = b + rand_basis() * sc(rng.randint(2, 3))
            xs = (VirElement.e(rng.randint(-3, 3)), rand_vir(rng, -3, 3) + VirElement.z(sc("2/3")))
            for x, w in product(xs, (b, v)):
                want = leibniz_reference(spec, x, w)
                got = tensor_act(spec, x, w)
                assert got == want
                # no column is shared between results: mutating a result
                # leaves the next one unchanged
                for key in list(got.terms):
                    got.terms[key] = sc(99)
                got.terms[(((7,), (7, 7)), ())] = sc(1)
                assert tensor_act(spec, x, w) == want
        if not tail.is_trivial():
            # two terms at the same parts with different tail monomials: the
            # tail acts on each term alone, and z on both through the tail
            parts = ((1,), (0, 1))
            w = basis(spec, parts, (tail.m - 1,))
            w = w + basis(spec, parts, (tail.m - 2, tail.m - 1)) * sc(3)
            for x in (VirElement.e(1) + VirElement.z(sc(5)), rand_vir(rng, -3, 3) + VirElement.z(1)):
                assert tensor_act(spec, x, w) == leibniz_reference(spec, x, w)

    def test_bound_engines_outlive_the_registries(self):
        # a spec looks its engines up once, when it is built: emptying the
        # registries afterwards leaves it acting with its own
        gaussian = single_root_character(Scalar(1, 1), 2, [Scalar(0, 1), 1])
        spec = TensorSpec([ones(2, 1, 0), gaussian], TailModuleSpec.verma(sc(2), sc(1)))
        induced._engines.clear()
        tailmod._tail_engines.clear()
        rng = random.Random(131)
        v = basis(spec, ((1,), (0, 1)), (-2, -1)) + spec.generator() * sc(2)
        for _ in range(5):
            x = rand_vir(rng, -3, 3)
            assert tensor_act(spec, x, v) == leibniz_reference(spec, x, v)
        # the reference built fresh engines; the spec kept the ones it bound
        assert all(eng is not get_engine(mu) for eng, mu in zip(spec.engines(), spec.factors))

    def test_adopted_results_are_clean(self):
        """tensor_act and the word rows wrap their maps without re-cleaning:
        each adopted element equals the one TensorElement builds from its map."""

        def assert_clean(v):
            assert v == TensorElement(v.terms)
            for (parts, mono), c in v.terms.items():
                assert type(parts) is tuple and type(mono) is tuple
                assert all(type(p) is tuple and all(type(i) is int for i in p) for p in parts)
                assert all(type(j) is int for j in mono)
                assert type(c) is Scalar and not c.is_zero()

        rng = random.Random(223)
        gaussian = single_root_character(Scalar(1, 1), 2, [Scalar(0, 1), 1])
        for tail in TAILS:
            spec = TensorSpec([ones(2, 1, 0), gaussian], tail)
            for _ in range(12):
                parts = ((rng.randint(0, 1),), (rng.randint(0, 1), rng.randint(0, 1)))
                mono = () if tail.is_trivial() else tuple(
                    sorted(rng.randint(tail.m - 3, tail.m - 1) for _ in range(rng.randint(0, 2)))
                )
                v = basis(spec, parts, mono) + spec.generator() * sc(rng.randint(-2, 2))
                for x in (rand_vir(rng, -3, 3), VirElement.z(sc("2/3")), VirElement.e(0) * 0):
                    assert_clean(tensor_act(spec, x, v))
            letters = [t(k) for k in range(-1, 3)]
            for row in _word_vectors(spec, letters, 2).pivots.values():
                assert_clean(TensorElement.adopt(row))

    def test_representation_property_all_tails(self):
        rng = random.Random(89)
        for tail in TAILS:
            spec = TensorSpec([ones(1, 1, 0), ones(2, 2, 1)], tail)
            for _ in range(25):
                x = rand_vir(rng, -3, 3)
                y = rand_vir(rng, -3, 3)
                parts = ((rng.randint(0, 1),), (rng.randint(0, 1), rng.randint(0, 1)))
                mono = () if tail.is_trivial() else tuple(
                    sorted(rng.randint(tail.m - 3, tail.m - 1) for _ in range(rng.randint(0, 2)))
                )
                v = basis(spec, parts, mono)
                lhs = tensor_act(spec, x, tensor_act(spec, y, v)) - tensor_act(
                    spec, y, tensor_act(spec, x, v)
                )
                assert lhs == tensor_act(spec, vir_bracket(x, y), v)


def leibniz_reference(spec, x, v):
    """tensor_act written out: each induced slot, the tail on the e part, z through the tail."""
    g = x.e_part
    out = {}
    for (parts, mono), coeff in v.terms.items():
        for i, mu in enumerate(spec.factors):
            for idx, c in get_engine(mu).act_on_index(g, parts[i]).items():
                accumulate(out, {(parts[:i] + (idx,) + parts[i + 1 :], mono): c * coeff})
        if not spec.tail.is_trivial():
            for mono2, c in b_act(spec.tail, VirElement(g), {mono: sc(1)}).items():
                accumulate(out, {(parts, mono2): c * coeff})
            accumulate(out, {(parts, mono): x.z_part * spec.tail.c * coeff})
    return TensorElement(out)


class TestAnnihilatingShift:
    def test_example(self):
        spec = TensorSpec([single_root_character(1, 1, [2])])
        h = t(0)
        ht = annihilating_shift(spec, h, 1, spec.generator())
        assert ht == LaurentPoly({1: 2, 2: -1})
        assert ht.valuation() >= 1

    def test_action_agrees(self):
        rng = random.Random(97)
        spec = TensorSpec([ones(1, 1, 0), ones(2, 2, 1)])
        for _ in range(10):
            h = LaurentPoly({rng.randint(0, 3): sc(rng.randint(-2, 2)), 0: sc(1)})
            L = rng.randint(0, 3)
            parts = ((rng.randint(0, 1),), (rng.randint(0, 1), 0))
            w = basis(spec, parts)
            ht = annihilating_shift(spec, h, L, w)
            assert ht.is_zero() or ht.valuation() >= L
            assert tensor_act(spec, VirElement.from_laurent(ht), w) == tensor_act(
                spec, VirElement.from_laurent(h), w
            )

    def test_already_shifted(self):
        spec = TensorSpec([ones(1, 1, 0)])
        h = t(2) + t(3)
        assert annihilating_shift(spec, h, 0, spec.generator()) == h


class TestCyclicReduce:
    def test_generator_gives_empty_trace(self):
        spec = TensorSpec([ones(1, 1, 0)], TailModuleSpec.verma(sc(1), sc(0)))
        trace, final = cyclic_reduce(spec, spec.generator())
        assert trace == [] and final == spec.generator()

    def test_single_factor_single_step(self):
        spec = TensorSpec([single_root_character(1, 1, [2])])
        trace, final = cyclic_reduce(spec, basis(spec, [(1,)]))
        assert len(trace) == 1
        assert set(p for p, _ in final.terms) == {((0,),)}

    def test_two_factors(self):
        spec = TensorSpec([single_root_character(1, 1, [2]), single_root_character(2, 1, [1])])
        trace, final = cyclic_reduce(spec, basis(spec, [(1,), (0,)]))
        assert 1 <= len(trace) <= 2
        assert set(p for p, _ in final.terms) == {((0,), (0,))}

    def test_grid_with_tails(self):
        pairs = [(sc(1), sc(2)), (sc(1), sc(-1))]
        shapes = [((1, 0), (1, 0)), ((2, 0), (1, 0)), ((2, 1), (2, 0))]
        for (l1, l2), ((n1, r1), (n2, r2)) in product(pairs, shapes):
            spec = TensorSpec(
                [ones(l1, n1, r1), ones(l2, n2, r2)],
                TailModuleSpec.verma(sc(1), sc(2)),
            )
            n_tot = n1 + n2
            for s in product(range(3), repeat=n_tot):
                if not 0 < sum(s) <= 2:
                    continue
                parts = (s[:n1], s[n1:])
                trace, final = cyclic_reduce(spec, basis(spec, parts))
                assert len(trace) <= 8
                assert all(not any(p0) for p, _ in final.terms for p0 in p)

    def test_seeded_sweep_reaches_the_generator(self):
        # 1-3 factors of large degree, every tail family, rational, fractional
        # and Gaussian roots; each step shifts by the tail bound alone
        rng = random.Random(101)
        roots = [sc(1), sc(2), sc(-3), sc("1/2"), sc("-2/3"), Scalar(1, 1), Scalar(2, -1)]

        def scalar(nonzero=False):
            while True:
                c = sc(f"{rng.randint(-3, 3)}/{rng.choice((1, 2))}")
                if rng.random() < 0.3:
                    c = c + Scalar(0, rng.randint(-1, 1))
                if not (nonzero and c.is_zero()):
                    return c

        def tail(kind):
            if kind == "trivial":
                return TailModuleSpec.trivial()
            if kind == "verma":
                return TailModuleSpec.verma(scalar(), scalar())
            if kind == "mbar":
                return TailModuleSpec.mbar(scalar())
            m = rng.randint(1, 2)
            return TailModuleSpec.whittaker(m, {j: scalar() for j in range(m, 2 * m + 1)}, scalar())

        kinds = ["trivial", "verma", "mbar", "whittaker"]
        steps = 0
        for k in range(200):
            factors = []
            for lam in rng.sample(roots, rng.randint(1, 3)):
                n = rng.randint(1, 3)
                r = rng.randint(max(n - 2, 0), n - 1)
                factors.append(single_root_character(lam, n, [scalar() for _ in range(r)] + [scalar(True)]))
            spec = TensorSpec(factors, tail(kinds[k % 4]))
            terms = {}
            for _ in range(rng.randint(1, 3)):
                parts = tuple(tuple(rng.randint(0, 1) for _ in range(mu.root_data()[1])) for mu in factors)
                mono = () if spec.tail.is_trivial() else tuple(
                    sorted(rng.randint(spec.tail.m - 3, spec.tail.m - 1) for _ in range(rng.randint(0, 2)))
                )
                terms[(parts, mono)] = scalar(True)
            trace, final = cyclic_reduce(spec, TensorElement(terms))
            steps += len(trace)
            assert not final.is_zero(), k
            assert all(not any(p0) for p, _ in final.terms for p0 in p), k
        assert steps > 200

    def test_strict_descent(self):
        spec = TensorSpec([ones(1, 2, 1), ones(2, 1, 0)])
        w = basis(spec, [(1, 1), (0,)]) + basis(spec, [(0, 1), (1,)]) * sc(2)
        lead = w.leading_concat()
        trace, final = cyclic_reduce(spec, w)
        assert final.leading_concat() < lead

    def test_single_factor_with_tail(self):
        spec = TensorSpec([single_root_character(1, 1, [2])], TailModuleSpec.verma(sc(3), sc(1)))
        trace, final = cyclic_reduce(spec, basis(spec, [(2,)]))
        assert all(not any(p0) for p, _ in final.terms for p0 in p)

    def test_nonzero_tail_monomials(self):
        # tail vectors below the cyclic one raise the annihilation bound;
        # the shifted operator must still only touch the leading slot
        spec = TensorSpec(
            [single_root_character(1, 1, [2]), single_root_character(2, 1, [1])],
            TailModuleSpec.verma(sc(3), sc(1)),
        )
        w = basis(spec, [(1,), (0,)], (-2,)) + basis(spec, [(0,), (0,)], (-1, -1)) * sc(3)
        trace, final = cyclic_reduce(spec, w)
        assert not final.is_zero()
        assert all(not any(p0) for p, _ in final.terms for p0 in p)
        # the step operator was shifted above the annihilation bound of the
        # tail vectors, so the leading component descends to the generator slot
        assert ((((0,), (0,))), (-2,)) in final.terms

    def test_small_degree_rejected(self):
        spec = TensorSpec([ones(1, 3, 0)])
        with pytest.raises(HypothesisViolation):
            cyclic_reduce(spec, basis(spec, [(1, 0, 0)]))

    def test_zero_linear_factor_rejected(self):
        spec = TensorSpec([ones(2, 1, 0), single_root_character(1, 1, [])], TAILS[1])
        with pytest.raises(HypothesisViolation):
            cyclic_reduce(spec, basis(spec, [(0,), (1,)]))


class TestNonSimpleWitness:
    def test_invariant_slice_in_tensor(self):
        # small-degree factor: indices with last coordinate >= 1 stay invariant
        bad = ones(1, 3, 0)
        spec = TensorSpec([bad, ones(2, 1, 0)])
        for k in range(-4, 5):
            x = VirElement.e(k)
            for s in product(range(2), repeat=4):
                if s[2] < 1 or sum(s) > 2:
                    continue
                v = basis(spec, (s[:3], s[3:]))
                out = tensor_act(spec, x, v)
                assert all(p[0][2] >= 1 for p, _ in out.terms)


class TestSimplicityVerdict:
    def test_linear_nonzero_simple(self):
        spec = TensorSpec([single_root_character(1, 1, [1])])
        rep = simplicity_verdict(spec)
        assert rep["simple"] and rep["large_degree"]

    def test_small_degree_not_simple(self):
        spec = TensorSpec([ones(1, 3, 0)])
        rep = simplicity_verdict(spec)
        assert not rep["simple"] and not rep["factors"][0]["large_degree"]

    def test_verma_h0_not_simple(self):
        spec = TensorSpec(
            [single_root_character(1, 1, [1])], TailModuleSpec.verma(sc(0), sc(3))
        )
        rep = simplicity_verdict(spec, kac_level=20)
        assert not rep["simple"]
        assert rep["tail"]["degenerate"] == [1, 1] or rep["tail"]["degenerate"] == (1, 1)

    def test_zero_linear_factor_flagged(self):
        spec = TensorSpec([single_root_character(1, 1, [])])
        rep = simplicity_verdict(spec)
        assert rep["factors"][0]["zero_linear_factor"]
        assert rep["large_degree"] and not rep["simple"]

    def test_restricted_input(self):
        rc = RestrictedCharacter.from_window([(1, 1)], 0, {0: sc(2), 1: sc(3)}, sc(5))
        spec, extra = restricted_to_tensor(rc)
        assert spec.tail.kind == "verma"
        # hat_0 = mu_1 - mu_0 = 1 for f = t - 1
        assert extra["closed_forms"]["hat_0"] == "1"
        rep = simplicity_verdict(spec, kac_level=12)
        assert "simple" in rep


class TestIsoDecide:
    def test_permuted_specs(self):
        a = TensorSpec([ones(1, 1, 0), ones(2, 2, 1)], TailModuleSpec.verma(sc(1), sc(2)))
        b = TensorSpec([ones(2, 2, 1), ones(1, 1, 0)], TailModuleSpec.verma(sc(1), sc(2)))
        rep = iso_decide(a, b)
        assert rep["isomorphic"]
        assert sorted(rep["permutation"]) == [0, 1]

    def test_reflexive_and_symmetric(self):
        a = TensorSpec([ones(1, 2, 1)], TailModuleSpec.mbar(sc(1)))
        b = TensorSpec([ones(2, 2, 1)], TailModuleSpec.mbar(sc(1)))
        assert iso_decide(a, a)["isomorphic"]
        assert iso_decide(a, b)["isomorphic"] == iso_decide(b, a)["isomorphic"] == False

    def test_lambda_sets_differ(self):
        a = TensorSpec([ones(1, 1, 0)])
        b = TensorSpec([ones(2, 1, 0)])
        assert not iso_decide(a, b)["isomorphic"]

    def test_polynomial_scaling_distinguishes(self):
        a = TensorSpec([single_root_character(1, 2, [1])])
        b = TensorSpec([single_root_character(1, 2, [2])])
        assert not iso_decide(a, b)["isomorphic"]

    def test_tail_parameters_matter(self):
        a = TensorSpec([ones(1, 1, 0)], TailModuleSpec.verma(sc(1), sc(2)))
        b = TensorSpec([ones(1, 1, 0)], TailModuleSpec.verma(sc(1), sc(3)))
        assert not iso_decide(a, b)["isomorphic"]
        c = TensorSpec([ones(1, 1, 0)], TailModuleSpec.mbar(sc(2)))
        assert not iso_decide(a, c)["isomorphic"]


def restricted(roots, m):
    p = sum(n for _, n in roots)
    window = {j: sc(j + 2) for j in range(m, 2 * m + p + 1)}
    return RestrictedCharacter.from_window(roots, m, window, sc(5))


POLY_SOURCES = {
    "two_roots": [single_root_character(1, 1, [1]), single_root_character(2, 1, [1])],
    "multiplicity": [single_root_character(1, 2, [0, 1]), single_root_character(2, 1, [1])],
    "three_factors": [
        single_root_character(1, 1, [1]),
        single_root_character(2, 1, [1]),
        single_root_character(-1, 1, [2]),
    ],
}


SLICE_SOURCES = [
    ("restricted", roots, m) for roots in ([(2, 1)], [(2, 2)], [(1, 1), (2, 1)]) for m in (-1, 0, 1)
] + [("polynomial", shape) for shape in ("two_roots", "multiplicity", "three_factors")]


def source_id(source):
    return "-".join(map(str, source)).replace(" ", "")


def slice_spec(source):
    """The tensor realization general_tensor_map checks for a source."""
    if source[0] == "polynomial":
        return TensorSpec(POLY_SOURCES[source[1]])
    _, roots, m = source
    return restricted_to_tensor(restricted(roots, m))[0]


def slice_letters(source, depth):
    """The letters and the quotient reducer general_tensor_map uses for a source."""
    if source[0] == "polynomial":
        F = compose(POLY_SOURCES[source[1]]).ambient
        return [t(i) for i in range(F.degree())], _quotient_reducer(F, 0)
    _, roots, m = source
    F = restricted(roots, m).ambient()
    letters = [t(i) for i in range(m - depth, m + F.degree())]
    return letters, _quotient_reducer(F, m)


def enumerated_slice_dim(letters, reduce, depth):
    """The slice dimension by brute force, an oracle independent of the count.

    Every iterated bracket of k letters (all |L|^k of them) is reduced into
    the quotient; every product of total bracket length <= depth is formed
    as a symbol in the symmetric algebra on the quotient labels; the answer
    is the rank of those symbols, by dense elimination.
    """
    letter_elems = [VirElement.from_laurent(g) for g in letters]
    by_len = {1: list(letter_elems)}
    for k in range(2, depth + 1):
        by_len[k] = [vir_bracket(b, l) for b in by_len[k - 1] for l in letter_elems]
    tagged = [(k, vec) for k, elems in by_len.items() for vec in map(reduce, elems) if vec]
    products = []

    def grow(start, budget, symbol):
        products.append(symbol)
        for idx in range(start, len(tagged)):
            k, vec = tagged[idx]
            if k > budget:
                continue
            new = {}
            for mon, c in symbol.items():
                accumulate(new, {tuple(sorted(mon + (lab,))): w for lab, w in vec.items()}, c)
            if new:
                grow(idx, budget - k, new)

    grow(0, depth, {(): sc(1)})
    return dense_rank(products)


def word_image_rank(spec, letters, depth):
    """Rank of every word image of length <= depth, an oracle for the word span.

    Each image is built by repeated tensor_act from the generator with no
    reduction in between, and all of them are eliminated once at the end,
    by dense elimination rather than the sparse kernel's.
    """
    letters = [VirElement.from_laurent(g) for g in letters]
    layer = [spec.generator()]
    images = list(layer)
    for _ in range(depth):
        layer = [tensor_act(spec, g, v) for v in layer for g in letters]
        images += layer
    return dense_rank(w.terms for w in images)


class TestGeneralTensorMap:
    # the slice ranks are pinned to fixed numbers, so a change to the exact
    # elimination is checked against more than the rank == expected_rank verdict

    def test_polynomial_two_roots(self):
        for depth, rank in ((1, 3), (2, 6), (3, 10), (4, 15), (5, 21)):
            rep = general_tensor_map(POLY_SOURCES["two_roots"], depth, kind="polynomial")
            assert rep["passed"] and rep["equivariance"] and rep["injective"]
            assert rep["rank"] == rep["expected_rank"] == rank

    def test_polynomial_with_multiplicity(self):
        rep = general_tensor_map(POLY_SOURCES["multiplicity"], 2, kind="polynomial")
        assert rep["passed"]
        assert rep["rank"] == rep["expected_rank"] == 10

    def test_restricted_verma(self):
        cases = [
            ([(1, 1)], 0, 2, 11),
            ([(1, 1)], 0, 3, 48),
            ([(1, 1)], 1, 3, 42),
            ([(1, 1)], -1, 3, 54),
            ([(1, 1), (2, 1)], 0, 3, 71),
        ]
        for roots, m, depth, rank in cases:
            rep = general_tensor_map(restricted(roots, m), depth, kind="restricted")
            assert rep["passed"], (roots, m)
            assert rep["rank"] == rep["expected_rank"] == rank, (roots, m)

    def test_three_factors(self):
        rep = general_tensor_map(POLY_SOURCES["three_factors"], 2, kind="polynomial")
        assert rep["passed"]

    @pytest.mark.parametrize("source", SLICE_SOURCES, ids=source_id)
    def test_slice_dim_counts_what_enumeration_finds(self, source):
        for depth in range(1, 5):
            letters, reduce = slice_letters(source, depth)
            assert _abstract_slice_dim(letters, reduce, depth) == enumerated_slice_dim(
                letters, reduce, depth
            ), depth

    @pytest.mark.parametrize("source", SLICE_SOURCES, ids=source_id)
    def test_word_span_rank_matches_all_word_images(self, source):
        spec = slice_spec(source)
        for depth in range(1, 4):
            letters, _reduce = slice_letters(source, depth)
            assert _rank(_word_vectors(spec, letters, depth)) == word_image_rank(
                spec, letters, depth
            ), depth

    def test_depth_five_expected_ranks(self):
        for m, rank in ((0, 1068), (1, 912)):
            letters, reduce = slice_letters(("restricted", [(2, 1)], m), 5)
            assert _abstract_slice_dim(letters, reduce, 5) == rank
        rep = general_tensor_map(restricted([(2, 1)], 1), 5, kind="restricted")
        assert rep["passed"]
        assert rep["rank"] == rep["expected_rank"] == 912

    def test_depth_six_with_a_linear_factor(self):
        rep = general_tensor_map(restricted([(2, 1)], 1), 6, kind="restricted")
        assert rep["passed"]
        assert rep["rank"] == rep["expected_rank"] == 4436

    def test_counted_ranks_past_depth_five(self):
        # depths 6 and 7 stay under MAX_SLICE_RANK for every m; depth 8 is refused
        cases = (
            (6, 0, 5222), (6, 1, 4436), (6, -1, 6069),
            (7, 0, 25889), (7, 1, 21915), (7, -1, 30232),
            (8, 0, 129671), (8, 1, 109486), (8, -1, 151974),
        )
        for depth, m, rank in cases:
            letters, reduce = slice_letters(("restricted", [(2, 1)], m), depth)
            assert _abstract_slice_dim(letters, reduce, depth) == rank, (depth, m)
            assert (rank <= MAX_SLICE_RANK) == (depth <= 7)

    def test_depth_zero_rejected(self):
        with pytest.raises(DepthTooSmall):
            general_tensor_map([ones(1, 1, 0)], 0, kind="polynomial")


class TestOmegaSimplicityConsistency:
    def test_b_equals_one_is_the_boundary(self):
        # the polynomial realization is simple exactly away from b = 1, which
        # matches the linear-factor criterion through mu_0 = lam (b - 1)
        for lam in (sc(1), sc(2), sc("1/2")):
            for b in (sc(0), sc(2), sc(-1)):
                mu0 = lam * (b - sc(1))
                spec = TensorSpec([single_root_character(lam, 1, [mu0])])
                assert simplicity_verdict(spec)["simple"] == (not (b == sc(1)))
            mu_boundary = single_root_character(lam, 1, [])
            spec = TensorSpec([mu_boundary])
            assert not simplicity_verdict(spec)["simple"]
