import random
from itertools import product

import pytest

from conftest import dense_rank, rand_vir
from virpoly import induced, tailmod, tensor
from virpoly.characters import ExpPolyCharacter, RestrictedCharacter, compose, single_root_character
from virpoly.errors import DepthTooSmall, HypothesisViolation, SearchExhausted, ZeroVector
from virpoly.induced import ModuleElement, get_engine, reduce_to_generator
from virpoly.laurent import LaurentPoly, linear_factor, poly_divmod
from virpoly.scalars import Scalar, sc
from virpoly.sparse import Echelon, accumulate
from virpoly.tailmod import TailModuleSpec, b_act
from virpoly.tensor import (
    MAX_SLICE_RANK,
    TensorElement,
    TensorSpec,
    _abstract_slice_dim,
    _lift,
    _quotient_coords,
    _rank,
    _word_vectors,
    annihilating_shift,
    counted_slice,
    cyclic_reduce,
    general_tensor_map,
    iso_decide,
    restricted_to_tensor,
    simplicity_verdict,
    tensor_act,
)
from virpoly.virasoro import VirElement, vir_bracket


def t(k, c=1):
    return LaurentPoly({k: c})


def ones(lam, n, r):
    return single_root_character(lam, n, [1] * (r + 1) if r >= 0 else [])


def basis(spec, parts, mono=()):
    return TensorElement({tuple(tuple(p) for p in parts) + (tuple(mono),): 1})


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
                (s, ()): c for s, c in want.terms.items()
            }

    def test_leibniz_example(self):
        spec = TensorSpec([ones(1, 1, 0), ones(2, 1, 0)])
        got = tensor_act(spec, VirElement.e(0), spec.generator())
        assert got == TensorElement(
            {((1,), (0,), ()): 1, ((0,), (1,), ()): 1}
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
                got.terms[((7,), (7, 7), ())] = sc(1)
                assert tensor_act(spec, x, w) == want
        if not tail.is_trivial():
            # two terms at the same parts with different tail monomials: the
            # tail acts on each term alone, and z on both through the tail
            parts = ((1,), (0, 1))
            w = basis(spec, parts, (tail.m - 1,))
            w = w + basis(spec, parts, (tail.m - 2, tail.m - 1)) * sc(3)
            for x in (VirElement.e(1) + VirElement.z(sc(5)), rand_vir(rng, -3, 3) + VirElement.z(1)):
                assert tensor_act(spec, x, w) == leibniz_reference(spec, x, w)

    def test_slots_sum_at_the_key_they_keep(self):
        # each slot may leave its index in place; those terms all land on the
        # key itself and must add up, here to -4 + 6 = 2 and to -1 + 1 = 0
        spec = TensorSpec([ones(2, 1, 0), ones(3, 1, 0)])
        for parts, k, stay in ((((1,), (0,)), 2, sc(2)), (((1,), (0,)), 1, None)):
            key = parts + ((),)
            got = tensor_act(spec, VirElement.e(k), TensorElement({key: 1}))
            assert got == leibniz_reference(spec, VirElement.e(k), TensorElement({key: 1}))
            assert got.terms.get(key) == stay and all(not c.is_zero() for c in got.terms.values())
            assert all(eng._act_idx(k, s).get(s) is not None for eng, s in zip(spec.engines, parts))

    @pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Qi"])
    @pytest.mark.parametrize("tail", TAILS + [TailModuleSpec.whittaker(2, {3: sc(2), 4: sc(-1)}, sc(3))],
                             ids=lambda tail: f"{tail.kind}{tail.m}")
    def test_fused_action_sweep(self, tail, gaussian):
        # one to three factors, multi-term v with coefficients other than
        # one, and x with a nonzero z, over Q and over Q(i)
        rng = random.Random(f"fused:{tail.m}:{gaussian}")
        roots = [sc(2), sc(-1), sc(3), Scalar(1, 1), Scalar(2, -1)] if gaussian else [sc(2), sc(-1), sc(3)]

        def field():
            # nonzero, and in Q(i) mostly not rational
            im = rng.randint(-2, 2) if gaussian else 0
            return Scalar(rng.choice((-3, -1, 1, 2, 3)), im) / sc(rng.choice((1, 2, 3)))

        for n_factors in (1, 2, 3):
            for _ in range(4):
                factors = []
                for lam in rng.sample(roots, n_factors):
                    n = rng.randint(1, 2)
                    factors.append(single_root_character(lam, n, [field() for _ in range(rng.randint(0, n))]))
                spec = TensorSpec(factors, tail)
                terms = {}
                while len(terms) < 3:
                    parts = tuple(tuple(rng.randint(0, 2) for _ in range(mu.root_data()[1])) for mu in factors)
                    mono = () if tail.is_trivial() else tuple(
                        sorted(rng.randint(tail.m - 3, tail.m - 1) for _ in range(rng.randint(0, 2)))
                    )
                    terms[parts + (mono,)] = field()
                v = TensorElement(terms)
                assert any(c != sc(1) for c in v.terms.values())
                x = VirElement({rng.randint(-3, 3): field() for _ in range(2)}, field())
                assert tensor_act(spec, x, v) == leibniz_reference(spec, x, v)

    def test_slot_and_tail_cancel_at_the_key(self):
        # e_1 keeps the slot index (1,) with some coefficient a and acts on
        # the Whittaker vector by psi(1); at psi(1) = -a the key must vanish
        mu = ones(2, 1, 0)
        k, s = 1, (1,)
        a = get_engine(mu)._act_idx(k, s).get(s)
        assert a is not None and not a.is_zero()
        spec = TensorSpec([mu], TailModuleSpec.whittaker(1, {1: -a, 2: sc(1)}, sc(1)))
        key = (s, ())
        for c in (sc(1), sc("-2/3")):
            v = TensorElement({key: c})
            got = tensor_act(spec, VirElement.e(k), v)
            assert key not in got.terms and not got.is_zero()
            assert got == leibniz_reference(spec, VirElement.e(k), v)
        # beside the generator, whose image lands on that key: it stays
        gen = ((0,), ())
        assert get_engine(mu)._act_idx(k, (0,)).get(s) is not None
        v = TensorElement({key: sc(3), gen: sc(-1)})
        got = tensor_act(spec, VirElement.e(k), v)
        assert key in got.terms and got == leibniz_reference(spec, VirElement.e(k), v)

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
        assert all(eng is not get_engine(mu) for eng, mu in zip(spec.engines, spec.factors))

    def test_adopted_results_are_clean(self):
        """tensor_act and the word rows wrap their maps without re-cleaning:
        each adopted element equals the one TensorElement builds from its map."""

        def assert_clean(v):
            assert v == TensorElement(v.terms)
            for key, c in v.terms.items():
                parts, mono = key[:-1], key[-1]
                assert type(key) is tuple and type(mono) is tuple
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

    @pytest.mark.parametrize("tail", TAILS, ids=lambda tail: tail.kind)
    def test_drop_removes_exactly_its_keys(self, tail):
        # the kernel given a random set of the full image's keys, plus keys
        # it lacks, over one to three factors; a mutant that keeps one
        # dropped key is caught by the same comparison
        rng = random.Random(f"drop:{tail.kind}")
        gaussian = single_root_character(Scalar(1, 1), 2, [Scalar(0, 1), 1])
        grid = ([ones(2, 1, 0)], [ones(2, 1, 0), gaussian], [ones(1, 1, 0), ones(2, 2, 1), ones(-1, 1, 0)])

        def kernel(spec, x, v, drop):
            return tensor._leibniz(spec._columns, x.e_part.terms, v.terms, drop)

        def dropped_exactly(act, spec, x, v, drop):
            full = tensor_act(spec, x, v).terms
            return act(spec, x, v, drop) == {k: c for k, c in full.items() if k not in drop}

        def keeps_one(spec, x, v, drop):
            kept = min(k for k in drop if k in tensor_act(spec, x, v).terms)
            return kernel(spec, x, v, drop - {kept})

        for factors in grid:
            spec = TensorSpec(factors, tail)
            for _ in range(6):
                terms = {}
                while len(terms) < 3:
                    parts = tuple(tuple(rng.randint(0, 2) for _ in range(mu.root_data()[1])) for mu in factors)
                    mono = () if tail.is_trivial() else tuple(
                        sorted(rng.randint(tail.m - 3, tail.m - 1) for _ in range(rng.randint(0, 2)))
                    )
                    terms[parts + (mono,)] = sc(rng.choice((-2, 1, 3)))
                v = TensorElement(terms)
                full = {}
                while not full:
                    x = rand_vir(rng, -3, 3, with_z=False)
                    full = tensor_act(spec, x, v).terms
                drop = {k for k in full if rng.random() < 0.5} | {spec.zero_index() + (("absent",),)}
                if not drop & set(full):
                    drop.add(min(full))
                assert dropped_exactly(kernel, spec, x, v, drop)
                assert not dropped_exactly(keeps_one, spec, x, v, drop)
                assert kernel(spec, x, v, set(full)) == {}

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
    for key, coeff in v.terms.items():
        parts, mono = key[:-1], key[-1]
        for i, mu in enumerate(spec.factors):
            for idx, c in get_engine(mu).act_on_index(g, parts[i]).items():
                accumulate(out, {parts[:i] + (idx,) + parts[i + 1 :] + (mono,): c * coeff})
        if not spec.tail.is_trivial():
            for mono2, c in b_act(spec.tail, VirElement(g), {mono: sc(1)}).items():
                accumulate(out, {parts + (mono2,): c * coeff})
            accumulate(out, {key: x.z_part * spec.tail.c * coeff})
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
            assert tensor_act(spec, VirElement(ht), w) == tensor_act(
                spec, VirElement(h), w
            )

    def test_already_shifted(self):
        spec = TensorSpec([ones(1, 1, 0)])
        h = t(2) + t(3)
        assert annihilating_shift(spec, h, 0, spec.generator()) == h

    def test_lift_is_the_crt_multiple(self):
        A, B = linear_factor(1) ** 3, linear_factor(-2) ** 2 * t(1)
        a = t(5, 3) - t(1) + t(0, 7)
        x = _lift(a, A, B)
        assert poly_divmod(x, B)[1].is_zero()
        assert poly_divmod(x - a, A)[1].is_zero()
        assert x.degree() < A.degree() + B.degree()


class TestCyclicReduce:
    def test_generator_gives_empty_trace(self):
        spec = TensorSpec([ones(1, 1, 0)], TailModuleSpec.verma(sc(1), sc(0)))
        trace, final = cyclic_reduce(spec, spec.generator())
        assert trace == [] and final == spec.generator()

    def test_single_factor_single_step(self):
        spec = TensorSpec([single_root_character(1, 1, [2])])
        trace, final = cyclic_reduce(spec, basis(spec, [(1,)]))
        assert len(trace) == 1
        assert set(key[:-1] for key in final.terms) == {((0,),)}

    def test_two_factors(self):
        spec = TensorSpec([single_root_character(1, 1, [2]), single_root_character(2, 1, [1])])
        trace, final = cyclic_reduce(spec, basis(spec, [(1,), (0,)]))
        assert 1 <= len(trace) <= 2
        assert set(key[:-1] for key in final.terms) == {((0,), (0,))}

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
                assert all(not any(p0) for key in final.terms for p0 in key[:-1])

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
                terms[parts + (mono,)] = scalar(True)
            trace, final = cyclic_reduce(spec, TensorElement(terms))
            steps += len(trace)
            assert not final.is_zero(), k
            assert all(not any(p0) for key in final.terms for p0 in key[:-1]), k
        assert steps > 200

    def test_strict_descent(self):
        spec = TensorSpec([ones(1, 2, 1), ones(2, 1, 0)])
        w = basis(spec, [(1, 1), (0,)]) + basis(spec, [(0, 1), (1,)]) * sc(2)
        lead = max(w.terms)[:-1]
        trace, final = cyclic_reduce(spec, w)
        assert max(final.terms)[:-1] < lead

    def test_single_factor_with_tail(self):
        spec = TensorSpec([single_root_character(1, 1, [2])], TailModuleSpec.verma(sc(3), sc(1)))
        trace, final = cyclic_reduce(spec, basis(spec, [(2,)]))
        assert all(not any(p0) for key in final.terms for p0 in key[:-1])

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
        assert all(not any(p0) for key in final.terms for p0 in key[:-1])
        # the step operator was shifted above the annihilation bound of the
        # tail vectors, so the leading component descends to the generator slot
        assert ((0,), (0,), (-2,)) in final.terms

    def test_small_degree_rejected(self):
        spec = TensorSpec([ones(1, 3, 0)])
        with pytest.raises(HypothesisViolation):
            cyclic_reduce(spec, basis(spec, [(1, 0, 0)]))

    def _two_roots(self):
        spec = TensorSpec([single_root_character(1, 1, [1]), single_root_character(2, 1, [1])])
        w = basis(spec, [(1,), (1,)])
        trace, final = cyclic_reduce(spec, w)
        assert len(trace) == 2 and {key[:-1] for key in final.terms} == {((0,), (0,))}
        return spec, w

    def test_wrong_power_is_caught(self, monkeypatch):
        # negative control: one power too high kills the target's coefficient
        spec, w = self._two_roots()
        real = tensor.descent_power
        monkeypatch.setattr(tensor, "descent_power", lambda mu, s: (real(mu, s)[0] + 1, real(mu, s)[1]))
        with pytest.raises(SearchExhausted):
            cyclic_reduce(spec, w)

    def test_unlifted_power_is_caught(self, monkeypatch):
        # negative control: f^m itself also moves the other slot
        spec, w = self._two_roots()
        monkeypatch.setattr(tensor, "_lift", lambda a, A, B: a)
        with pytest.raises(SearchExhausted):
            cyclic_reduce(spec, w)

    def test_zero_linear_factor_rejected(self):
        spec = TensorSpec([ones(2, 1, 0), single_root_character(1, 1, [])], TAILS[1])
        with pytest.raises(HypothesisViolation):
            cyclic_reduce(spec, basis(spec, [(0,), (1,)]))


def both_descents(mu, v):
    """The two reductions of v: by the induced module, and by ``cyclic_reduce``
    on the one-factor tensor with the trivial tail; an error counts as its type."""
    try:
        trace, final = reduce_to_generator(mu, v)
        got = [(j, m) for j, m in trace], final.terms
    except HypothesisViolation as exc:
        got = type(exc)
    try:
        trace, final = cyclic_reduce(TensorSpec([mu]), TensorElement({(s, ()): c for s, c in v.terms.items()}))
        want = [(step["j"], step["m"]) for step in trace], {key[0]: c for key, c in final.terms.items()}
    except HypothesisViolation as exc:
        want = type(exc)
    return got, want


class TestOneDescent:
    """``reduce_to_generator`` and ``cyclic_reduce`` run one loop, ``induced.descend``."""

    def test_one_factor_agrees_with_the_induced_route(self):
        # every m, every j = 0, and the same final vector; n = 1 with r = -1
        # is the zero character, refused by both
        rng = random.Random(2603)
        cases = 0
        for lam, n in product([sc(2), sc("1/2"), Scalar(1, 1)], range(1, 4)):
            for r in (n - 2, n - 1):
                p = [sc(rng.randint(-2, 2)) for _ in range(r)] + [sc(rng.choice((1, -1, 3)))] if r >= 0 else []
                mu = single_root_character(lam, n, p)
                for _ in range(3):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        s = [0] * n
                        for _ in range(rng.randint(1, 4)):
                            s[rng.randrange(n)] += 1
                        terms[tuple(s)] = sc(rng.choice((1, -2, 5)))
                    got, want = both_descents(mu, ModuleElement(terms))
                    assert got == want, (lam, n, p, terms)
                    cases += got is not HypothesisViolation
        assert cases >= 45

    def test_step_limit_admits_exactly_its_steps(self):
        # from (0, k) every step lowers s_1 by one, so k steps reach the
        # generator: a loop that tests for it only before each step refuses
        mu = ones(2, 2, 1)
        got, want = both_descents(mu, get_engine(mu).basis((0, induced.REDUCE_MAX_STEPS)))
        assert got == want and len(got[0]) == induced.REDUCE_MAX_STEPS

    def test_step_limit_is_read_at_call_time(self, monkeypatch):
        spec = TensorSpec([ones(2, 2, 1)])
        monkeypatch.setattr(induced, "REDUCE_MAX_STEPS", 4)
        assert len(cyclic_reduce(spec, basis(spec, [(0, 4)]))[0]) == 4
        with pytest.raises(SearchExhausted):
            cyclic_reduce(spec, basis(spec, [(0, 5)]))

    def test_zero_vector_is_one_error(self):
        mu = ones(2, 2, 1)
        with pytest.raises(ZeroVector, match="the zero vector has no leading index"):
            reduce_to_generator(mu, ModuleElement({}))
        with pytest.raises(ZeroVector, match="the zero vector has no leading index"):
            cyclic_reduce(TensorSpec([mu]), TensorElement({}))


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
                assert all(key[0][2] >= 1 for key in out.terms)


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


def slice_source(source):
    """The source object general_tensor_map is given for a source id."""
    if source[0] == "polynomial":
        return POLY_SOURCES[source[1]]
    _, roots, m = source
    return restricted(roots, m)


def slice_spec(source):
    """The tensor realization general_tensor_map checks for a source."""
    if source[0] == "polynomial":
        return TensorSpec(slice_source(source))
    return restricted_to_tensor(slice_source(source))[0]


def slice_letters(source, depth):
    """The letters, F and the quotient cutoff m general_tensor_map uses for a source."""
    if source[0] == "polynomial":
        F = compose(POLY_SOURCES[source[1]]).ambient
        return [t(i) for i in range(F.degree())], F, 0
    _, roots, m = source
    F = restricted(roots, m).ambient()
    letters = [t(i) for i in range(m - depth, m + F.degree())]
    return letters, F, m


def enumerated_slice_dim(letters, F, m, depth):
    """The slice dimension by brute force, an oracle independent of the count.

    Every iterated bracket of k letters (all |L|^k of them) is reduced into
    the quotient; every product of total bracket length <= depth is formed
    as a symbol in the symmetric algebra on the quotient labels; the answer
    is the rank of those symbols, by dense elimination.
    """
    letter_elems = [VirElement(g) for g in letters]
    by_len = {1: list(letter_elems)}
    for k in range(2, depth + 1):
        by_len[k] = [vir_bracket(b, l) for b in by_len[k - 1] for l in letter_elems]
    tagged = [
        (k, vec) for k, elems in by_len.items() for x in elems if (vec := _quotient_coords(x, F, m))
    ]
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


def word_images(spec, letters, depth):
    """The image word . v0 of every word of length <= depth, each built by
    repeated tensor_act from the generator with nothing dropped or reduced
    in between: the oracle for the word span."""
    letters = [VirElement(g) for g in letters]
    layer = [spec.generator()]
    images = list(layer)
    for _ in range(depth):
        layer = [tensor_act(spec, g, v) for v in layer for g in letters]
        images += layer
    return [w.terms for w in images]


def word_image_rank(spec, letters, depth):
    """Rank of every word image, by dense elimination rather than the sparse kernel's."""
    return dense_rank(word_images(spec, letters, depth))


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
            letters, F, m = slice_letters(source, depth)
            assert _abstract_slice_dim(letters, F, m, depth) == enumerated_slice_dim(
                letters, F, m, depth
            ), depth

    @pytest.mark.parametrize("source", SLICE_SOURCES, ids=source_id)
    def test_word_span_rank_matches_all_word_images(self, source):
        spec = slice_spec(source)
        for depth in range(1, 4):
            letters = slice_letters(source, depth)[0]
            assert _rank(_word_vectors(spec, letters, depth)) == word_image_rank(
                spec, letters, depth
            ), depth

    def test_depth_five_expected_ranks(self):
        for m, rank in ((0, 1068), (1, 912)):
            letters, F, _ = slice_letters(("restricted", [(2, 1)], m), 5)
            assert _abstract_slice_dim(letters, F, m, 5) == rank
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
            letters, F, _ = slice_letters(("restricted", [(2, 1)], m), depth)
            assert _abstract_slice_dim(letters, F, m, depth) == rank, (depth, m)
            assert (rank <= MAX_SLICE_RANK) == (depth <= 7)

    def test_depth_zero_rejected(self):
        with pytest.raises(DepthTooSmall):
            general_tensor_map([ones(1, 1, 0)], 0, kind="polynomial")


ORDER_CASES = [(("restricted", [(2, 1)], m), depth) for m in (-1, 0, 1) for depth in range(1, 6)] + [
    (("restricted", [(1, 1), (2, 1)], 0), 5),
    (("polynomial", "two_roots"), 5),
    (("polynomial", "three_factors"), 4),
]


class TestWordSpanOrder:
    # _word_vectors acts with the letters in descending exponent; handed the
    # reversed alphabet it acts in ascending exponent, the earlier order

    @pytest.mark.parametrize("source, depth", ORDER_CASES, ids=[f"{source_id(c)}-d{d}" for c, d in ORDER_CASES])
    def test_letter_order_leaves_the_pivots(self, source, depth):
        # the reduced echelon form of a span is unique, so the order moves
        # only the work: every label and every pivot row is the same
        _F, letters, expected = counted_slice(slice_source(source), depth, source[0])
        spec = slice_spec(source)
        rows = _word_vectors(spec, letters, depth)
        assert rows.pivots == _word_vectors(spec, letters[::-1], depth).pivots
        assert len(rows) == expected

    def test_descending_letters_replace_fewer_rows(self):
        # a row never holds a key below its own label, so a label that
        # arrives below the earlier ones is in no earlier row; the count
        # depends on the order alone, not on warm or cold memos
        for source, depth in (
            (("restricted", [(2, 1)], 0), 4),
            (("restricted", [(2, 1)], 1), 4),
            (("restricted", [(1, 1), (2, 1)], 0), 5),
        ):
            _F, letters, _expected = counted_slice(slice_source(source), depth, source[0])
            counts = {}
            for name, order in (("descending", letters), ("ascending", letters[::-1])):
                runs = []
                for _ in range(2):
                    induced._engines.clear()
                    tailmod._tail_engines.clear()
                    spec = slice_spec(source)
                    runs += [_word_vectors(spec, order, depth).replaced for _ in range(2)]
                assert len(set(runs)) == 1, (source, name, runs)
                counts[name] = runs[0]
            assert counts["descending"] < counts["ascending"], (source, counts)


REFERENCE_CASES = [(("restricted", [(2, 1)], m), 4) for m in (-1, 0, 1)] + [
    (("polynomial", "two_roots"), 5),
    (("polynomial", "three_factors"), 4),
    (("restricted", [(Scalar(1, 1), 1)], 0), 4),
]


def mutant_kernels(kernel, letters):
    """Kernels with one defect each: the lowest letter skipped on the first
    row it meets, the last Leibniz slot left out, a term lost from every
    image."""
    low = min(min(g.terms) for g in letters)
    skipped = []

    def skips_a_letter(columns, g, v, drop):
        if min(g) == low and not skipped:
            skipped.append(v)
            return {}
        return kernel(columns, g, v, drop)

    def drops_a_slot(columns, g, v, drop):
        return kernel(columns[:-1], g, v, drop)

    def loses_a_term(columns, g, v, drop):
        out = kernel(columns, g, v, drop)
        if out:
            out.popitem()
        return out

    return skips_a_letter, drops_a_slot, loses_a_term


class TestWordSpanReference:
    # the reduced echelon form of a span is unique, so the word span built on
    # the bare kernel must give exactly the pivots of every word image

    @pytest.mark.parametrize("source, depth", REFERENCE_CASES, ids=[f"{source_id(c)}-d{d}" for c, d in REFERENCE_CASES])
    def test_pivots_are_those_of_every_word_image(self, source, depth):
        _F, letters, expected = counted_slice(slice_source(source), depth, source[0])
        spec = slice_spec(source)
        want = Echelon(word_images(spec, letters, depth)).pivots
        assert _word_vectors(spec, letters, depth).pivots == want
        assert len(want) == expected

    @pytest.mark.parametrize("source, depth", REFERENCE_CASES, ids=[f"{source_id(c)}-d{d}" for c, d in REFERENCE_CASES])
    def test_mutant_kernels_are_caught(self, source, depth, monkeypatch):
        _F, letters, _expected = counted_slice(slice_source(source), depth, source[0])
        spec = slice_spec(source)
        want = Echelon(word_images(spec, letters, depth)).pivots
        kernel = tensor._leibniz
        # forming the dropped keys only costs work: the Echelon deletes them
        monkeypatch.setattr(tensor, "_leibniz", lambda columns, g, v, drop: kernel(columns, g, v, ()))
        assert _word_vectors(spec, letters, depth).pivots == want
        for mutant in mutant_kernels(kernel, letters):
            monkeypatch.setattr(tensor, "_leibniz", mutant)
            assert _word_vectors(spec, letters, depth).pivots != want, mutant.__name__


class TestCertifiedEquivariance:
    # two zero characters of multiplicity 2 at the roots 1 and 2: each side of
    # the equivariance check is a(j) + b(j) 2^j with deg a, deg b <= 1, so the
    # root data certify it on N = 4 consecutive j.  A composite value moved by
    # such a delta that vanishes at three consecutive j is not the character.
    PARTS = [ones(1, 2, -1), ones(2, 2, -1)]

    @staticmethod
    def perturbed(a, b):
        """The composite character plus delta(j) = a(j) + b(j) 2^j."""
        return ExpPolyCharacter([(sc(1), 2, a), (sc(2), 2, b)])

    def test_unperturbed_passes(self):
        rep = general_tensor_map(self.PARTS, 1)
        assert rep["passed"] and rep["equivariance"]

    def test_rejects_what_the_depth_window_missed(self, monkeypatch):
        # delta(j) = 3 + j + (j - 3) 2^j vanishes at j = -1, 0, 1 but not at 2
        wrong = self.perturbed([3, 1], [-3, 1])
        assert [wrong.seq(j) for j in range(-1, 3)] == [0, 0, 0, 1]
        spec = TensorSpec(self.PARTS)
        gen, F = spec.generator(), compose(self.PARTS).ambient

        def agrees(j):
            return tensor_act(spec, VirElement(F.shift(j)), gen) == gen * wrong.seq(j)

        # the old depth-1 window |j| <= 1 sees nothing wrong
        assert all(agrees(j) for j in (-1, 0, 1)) and not agrees(2)
        monkeypatch.setattr(tensor, "compose", lambda parts: wrong)
        rep = general_tensor_map(self.PARTS, 1)
        assert not rep["equivariance"] and not rep["passed"]

    def test_rejects_a_delta_zero_on_all_but_the_last_certified_j(self, monkeypatch):
        # delta(j) = 4 + 2j + (j - 4) 2^j vanishes at j = 0, 1, 2 = N - 2 and
        # not at N - 1 = 3, so one j fewer than N would pass it
        wrong = self.perturbed([4, 2], [-4, 1])
        assert [wrong.seq(j) for j in range(4)] == [0, 0, 0, 2]
        monkeypatch.setattr(tensor, "compose", lambda parts: wrong)
        assert not general_tensor_map(self.PARTS, 1)["equivariance"]

    def test_restricted_kind_checks_n_values_past_2m(self, monkeypatch):
        # one linear factor at 2 and m = 1: the window [1, 2] point by point,
        # then N = 2 values above it; delta(j) = (j - 3) 2^j past 2m vanishes
        # at j = 3 but not at 4
        rc = restricted([(2, 1)], 1)
        assert general_tensor_map(rc, 1, kind="restricted")["equivariance"]
        mu_x = RestrictedCharacter.mu_x

        def moved(self, j):
            return mu_x(self, j) + (sc(j - 3) * sc(2) ** j if j > 2 * self.m else Scalar(0))

        monkeypatch.setattr(RestrictedCharacter, "mu_x", moved)
        assert not general_tensor_map(rc, 1, kind="restricted")["equivariance"]

    @staticmethod
    def checked_j(monkeypatch, source, kind, F):
        """The j of every t^j F that general_tensor_map acts with, in order."""
        seen = []
        act = tensor.tensor_act

        def spy(spec, x, v):
            j = min(x.e_part.terms, default=None)
            if j is not None and x.e_part == F.shift(j):
                seen.append(j)
            return act(spec, x, v)

        monkeypatch.setattr(tensor, "tensor_act", spy)
        assert general_tensor_map(source, 1, kind=kind)["passed"]
        return seen

    # N = sum_i (n_i + r_i + 1), worked out by hand from each source's roots
    # (n_i their multiplicities, r_i the degrees of their polynomials)
    N_CASES = {
        "one_linear_factor": ([ones(2, 1, 0)], 2),
        "one_factor_n3_r1": ([ones(2, 3, 1)], 3 + 1 + 1),
        "zero_character_n2": ([ones(1, 2, -1)], 2 - 1 + 1),
        "two_zero_characters": (PARTS, 2 + 2),
        "mixed": ([ones(1, 1, 0), ones(2, 2, 1), ones(-1, 3, 2)], (1 + 0 + 1) + (2 + 1 + 1) + (3 + 2 + 1)),
    }

    @pytest.mark.parametrize("name", sorted(N_CASES))
    def test_polynomial_kind_checks_j_below_n(self, name, monkeypatch):
        factors, N = self.N_CASES[name]
        spec = TensorSpec(factors)
        assert sum(tensor._annihilation_exponents(spec, spec.generator())) == N
        assert self.checked_j(monkeypatch, factors, "polynomial", compose(factors).ambient) == list(range(N))

    @pytest.mark.parametrize("m", [-1, 0, 1, 2])
    @pytest.mark.parametrize("name", ["one_linear_factor", "mixed"])
    def test_restricted_kind_checks_the_window_then_n_more(self, name, m, monkeypatch):
        # the free window [m, 2m] (empty at m = -1), then N values above 2m
        factors, N = self.N_CASES[name]
        tail = ExpPolyCharacter([mu.factors[0] for mu in factors])
        rc = RestrictedCharacter(m, tail, {j: sc(j - 1) for j in range(m, 2 * m + 1)}, sc(2))
        assert self.checked_j(monkeypatch, rc, "restricted", tail.ambient) == list(range(m, 2 * m + N + 1))

    def test_equivariance_work_does_not_grow_with_depth(self, monkeypatch):
        monkeypatch.setattr(induced, "_engines", {})
        mu = ones(2, 1, 0)

        def zero_index_entries(depth):
            rep = general_tensor_map([mu], depth)
            assert rep["passed"] and rep["rank"] == depth + 1
            eng = get_engine(mu)
            return sum(1 for _k, s in eng._act_cache if s == eng.zero_index)

        assert zero_index_entries(50) == zero_index_entries(500)


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
