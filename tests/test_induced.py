import random
from fractions import Fraction

import pytest

from conftest import rand_vir
from virpoly.characters import single_root_character
from virpoly.densepoly import index_poly, pdeg
from virpoly import induced
from virpoly.errors import HypothesisViolation, SearchExhausted, ZeroVector
from virpoly.induced import (
    InducedModule,
    ModuleElement,
    OmegaSpec,
    bracket_action_oracle,
    closed_form_bracket,
    descent_power,
    dstep,
    dtilde,
    ell,
    get_engine,
    omega_action,
    omega_iso_check,
    quotient_smalldegree,
    reduce_step,
    reduce_to_generator,
    _omega_equivariant,
)
from virpoly.laurent import LaurentPoly, linear_factor, taylor
from virpoly.scalars import Scalar, sc
from virpoly.sparse import bilinear
from virpoly.virasoro import VirElement, vir_bracket


def t(k, c=1):
    return LaurentPoly({k: c})


def ones_character(lam, n, r):
    return single_root_character(lam, n, [1] * (r + 1) if r >= 0 else [])


class TestMultiIndex:
    def test_derived_data(self):
        assert ell((0, 2, 1)) == 1
        assert dstep((0, 2, 1)) == (0, 1, 1)
        assert dtilde((3, 2, 1)) == (0, 2, 1)
        with pytest.raises(ZeroVector):
            ell((0, 0))

    def test_leading_index(self):
        v = ModuleElement({(0, 1): 3, (2, 0): 2})
        assert v.leading_index() == (2, 0)
        assert ModuleElement.basis((0, 0)).leading_index() == (0, 0)
        with pytest.raises(ZeroVector):
            ModuleElement().leading_index()


class TestActLaurent:
    def test_monomial_on_generator(self):
        # t^k v = lam^k (t^0 v) + k lam^(k-1) mu_0 v
        for lam, mu0 in [(sc(1), sc(3)), (sc(2), sc("1/2")), (sc(-1), sc(1))]:
            mu = single_root_character(lam, 1, [mu0])
            eng = get_engine(mu)
            for k in range(-6, 7):
                got = eng.act(t(k), eng.generator())
                want = ModuleElement({(1,): lam**k, (0,): sc(k) * lam ** (k - 1) * mu0})
                assert got == want

    @pytest.mark.parametrize(
        "lam",
        [sc(2), Scalar(1, 1), sc("1/2"), sc("3/5"), Scalar(2, 1), Scalar(1, -1)],
        ids=["2", "1+i", "1/2", "3/5", "2+i", "1-i"],
    )
    def test_generator_column_is_the_taylor_data(self, lam):
        # t^k on the generator against laurent.taylor of t^k at lam, for every
        # degree r of the character (r = -1 is the zero map): the first n
        # coefficients bump the directions, and mu eats the rest through
        # mu(f^(n+i)), which the engine sums over the binomial terms of f^i
        # and this test reads from the derived powers.  f^k itself, written
        # out, is checked against square-and-multiply of t - lam.
        powers = [linear_factor(lam) ** k for k in range(9)]
        for n in range(1, 4):
            zero = (0,) * n
            for r in range(-1, n):
                mu = single_root_character(lam, n, [d + 2 for d in range(r + 1)])
                eng = InducedModule(mu)
                assert [eng.fpow(k) for k in range(9)] == powers
                assert eng._mu_fpow == [mu.value_power(0, n + k) for k in range(r + 1)]
                for k in range(-12, 13):
                    a = taylor(t(k), lam, n + r + 1)
                    want = {zero[:i] + (1,) + zero[i + 1 :]: c for i, c in enumerate(a[:n]) if not c.is_zero()}
                    val = sum((c * mu.value_power(0, n + i) for i, c in enumerate(a[n:])), Scalar(0))
                    if not val.is_zero():
                        want[zero] = val
                    assert eng._act_idx(k, zero) == want, (n, r, k)

    def test_ideal_acts_by_character(self):
        # m runs from n to n + r + 2, across the order n + r + 1 where the
        # generator action truncates its Taylor data
        n, r = 2, 1
        for lam in (sc(2), Scalar(1, 1)):
            mu = single_root_character(lam, n, [1, 1])
            eng = get_engine(mu)
            for m in range(n, n + r + 3):
                for j in range(-4, 5):
                    g = t(j) * eng.fpow(m)
                    assert eng.act(g, eng.generator()) == eng.generator() * mu.value_power(j, m)

    def test_gk_polynomial_example(self):
        # (t - t^0) applied to (t^0)v for mu_0 = 2 at lam 1
        mu = single_root_character(1, 1, [2])
        eng = get_engine(mu)
        got = eng.act(LaurentPoly({1: 1, 0: -1}), eng.basis((1,)))
        assert got == ModuleElement({(1,): 1, (0,): -2})

    def test_representation_property(self):
        # [x, y] v = x y v - y x v against vir_bracket, an independent route
        # to the Witt bracket that the engine expands on monomials
        rng = random.Random(41)

        def check(eng, x, y, idx):
            v = eng.basis(idx)
            lhs = eng.act_vir(x, eng.act_vir(y, v)) - eng.act_vir(y, eng.act_vir(x, v))
            assert lhs == eng.act_vir(vir_bracket(x, y), v)

        for n, r in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
            mu = ones_character(rng.choice([1, 2, -1]), n, r)
            eng = get_engine(mu)
            for _ in range(25):
                x = rand_vir(rng, -4, 4)
                y = rand_vir(rng, -4, 4)
                check(eng, x, y, tuple(rng.randint(0, 2) for _ in range(n)))
        # a Gaussian root, and an index of weight 6
        gaussian = get_engine(ones_character(Scalar(1, 1), 2, 1))
        deep = get_engine(ones_character(2, 3, 1))
        for _ in range(10):
            x = rand_vir(rng, -4, 4)
            y = rand_vir(rng, -4, 4)
            check(gaussian, x, y, tuple(rng.randint(0, 2) for _ in range(2)))
            check(deep, x, y, (1, 2, 3))

    def test_straightening_work_is_bounded(self):
        # a work guard: with integer (k, a, s) keys every bracket branch that
        # reaches t^k f^a f^d v shares one memo entry; this action needs 487
        # (258 with k != 0, 229 with k = 0; expanding [t^k, f^l] over the
        # monomials of f^l needed 735)
        eng = InducedModule(single_root_character(2, 3, [1, 1]))
        eng.act(t(1), eng.basis((22, 21, 21)))
        assert all(k != 0 for k, _a, _s in eng._act_cache) and all(k == 0 for k, _a, _s in eng._lmul_cache)
        assert len(eng._act_cache) + len(eng._lmul_cache) <= 1200

    def test_deep_index_within_the_stack(self):
        # f^l f^s v below l is the k = 0 case of the one recursion, so it
        # still reaches weight 500 at the default limit: t = f + lam f^0
        # lands in PBW order on f^1-powers
        eng = InducedModule(single_root_character(2, 2, [1, 1]))
        got = eng.act(t(1), eng.basis((0, 500)))
        assert got == ModuleElement({(0, 501): 1, (1, 500): 2})

    def test_act_vir_kills_z(self):
        mu = single_root_character(1, 2, [1])
        eng = get_engine(mu)
        v = eng.basis((1, 1))
        assert eng.act_vir(VirElement.z(5), v).is_zero()
        assert eng.act_vir(VirElement.e(1) + VirElement.z(2), v) == eng.act(t(1), v)


class TestClosedForm:
    def test_high_ell_zero_case(self):
        mu = ones_character(1, 3, 1)
        # ell = 2, m > n + r + 1 - ell = 3
        out = closed_form_bracket(mu, 2, 4, (0, 0, 1))
        assert out.is_zero()

    def test_binomial_case_example(self):
        # n=2, r=0, s=(0,1), m = n+r = 2: -(index (0,0)) for the all-ones p
        mu = ones_character(1, 2, 0)
        out = closed_form_bracket(mu, 5, 2, (0, 1))
        assert out == ModuleElement({(0, 0): -1})

    def test_s0_equality_example(self):
        # n=1, constant p = c, s=(1,), m = 2: -2 c lam^(j+1) v
        c, lam = sc(3), sc(2)
        mu = single_root_character(lam, 1, [c])
        for j in range(-3, 4):
            out = closed_form_bracket(mu, j, 2, (1,))
            assert out == ModuleElement({(0,): sc(-2) * c * lam ** (j + 1)})

    def test_agrees_with_oracle_on_grid(self):
        for n in range(1, 4):
            for r in range(-1, n):
                mu = ones_character(2, n, r)
                for s in _small_indices(n):
                    l = ell(s)
                    if l > 0:
                        lo = max(n, n + r + 1 - l)
                    else:
                        lo = n + r + s[0] + (1 if r < 0 else 0)
                    for m in range(lo, lo + 2):
                        for j in (-2, 0, 3):
                            assert closed_form_bracket(mu, j, m, s) == bracket_action_oracle(
                                mu, j, m, s
                            )

    def test_literal_denominator_disagrees(self):
        mu = ones_character(1, 2, 1)
        # s_0 = 2 != r = 1, equality case m = n + r + s_0
        s = (2, 0)
        good = closed_form_bracket(mu, 0, 5, s)
        bad = closed_form_bracket(mu, 0, 5, s, literal_denominator=True)
        oracle = bracket_action_oracle(mu, 0, 5, s)
        assert good == oracle and bad != oracle

    def test_hypothesis_violations(self):
        mu = ones_character(1, 2, 1)
        with pytest.raises(HypothesisViolation):
            closed_form_bracket(mu, 0, 1, (0, 1))  # m < n
        with pytest.raises(HypothesisViolation):
            closed_form_bracket(mu, 0, 2, (1, 0))  # m < n + r + s_0
        with pytest.raises(HypothesisViolation):
            closed_form_bracket(mu, 0, 2, (0, 0))


def _small_indices(n, top=3):
    from itertools import product

    for s in product(range(top + 1), repeat=n):
        if 0 < sum(s) <= top:
            yield s


class TestInPlaceBump:
    @pytest.mark.parametrize("lam, coeff", [(sc(2), sc(1)), (Scalar(1, 1), Scalar(2, -1))], ids=["Q", "Qi"])
    def test_lmul_memo_holds_only_out_of_order_products(self, monkeypatch, lam, coeff):
        # f^a f^s v in PBW order (nothing in s below a) is bumped in place by
        # _act_idx, so after a comp1/comp3/reduce sweep on n = 3 every
        # _lmul_cache key (0, a, s) is occupied below a, and the closed forms
        # still match straightening
        monkeypatch.setattr(induced, "_engines", {})
        n, cases = 3, 0
        for r in range(-1, n):
            mu = single_root_character(lam, n, [coeff] * (r + 1))
            for s in _small_indices(n):
                l = ell(s)
                if l > 0:
                    ms = range(max(n, n + r + 1 - l), n + r + 3)
                else:
                    ms = [m for m in range(n + r + s[0], n + r + s[0] + 3) if m >= n]
                    if r < 0:
                        ms = ms[1:]  # the equality closed form needs mu != 0
                for m in ms:
                    for j in (-3, 0, 2):
                        assert closed_form_bracket(mu, j, m, s) == bracket_action_oracle(mu, j, m, s)
                        cases += 1
                if r >= n - 2:
                    _, final = reduce_to_generator(mu, get_engine(mu).basis(s))
                    assert set(final.terms) == {(0,) * n}
            memo = get_engine(mu)._lmul_cache
            assert memo or r < 0
            assert all(k == 0 and any(s[:a]) for k, a, s in memo)
        assert cases > 500


class _WittReference:
    """t^k f^s v by the Witt bracket [t^k, t^i] = (i - k) t^(k+i) alone.

    This is the straightening the engine used before the two-term rule:
    split off l = ell(s), expand [t^k, f^l] over the monomials of f^l, and
    take f^l f^idx v out of PBW order as the action of f^l, monomial by
    monomial; on the generator, the Taylor data of t^k at lambda, with mu
    read from the derived powers.  Memo on (k, s).  It shares no step with
    the two-term bracket, so it checks t^k f^a f^s v by another route.
    """

    def __init__(self, mu):
        lam, self.n, p = mu.root_data()
        self.mu, self.lam, self.r = mu, lam, pdeg(p)
        self.f = LaurentPoly({1: 1, 0: -lam})
        self.memo = {}

    def act(self, g, s):
        return ModuleElement(bilinear(self.act_idx, g.terms, {s: Scalar(1)}))

    def act_idx(self, k, s):
        key = (k, s)
        if key in self.memo:
            return self.memo[key]
        n, out = self.n, {}
        if not any(s):
            a = taylor(t(k), self.lam, n + self.r + 1)
            for i in range(n):
                if not a[i].is_zero():
                    out[s[:i] + (1,) + s[i + 1 :]] = a[i]
            val = sum((c * self.mu.value_power(0, n + i) for i, c in enumerate(a[n:])), Scalar(0))
            if not val.is_zero():
                out[s] = val
        else:
            l = ell(s)
            d = dstep(s)
            fl = self.f**l
            for idx, c in self.act_idx(k, d).items():
                if any(idx[:l]):
                    moved = self.act(fl, idx).terms
                else:
                    moved = {idx[:l] + (idx[l] + 1,) + idx[l + 1 :]: Scalar(1)}
                for j, x in moved.items():
                    out[j] = out.get(j, Scalar(0)) + x * c
            for i, c in fl.terms.items():
                for j, x in self.act_idx(k + i, d).items():
                    out[j] = out.get(j, Scalar(0)) + x * c * Scalar(i - k)
            out = {j: x for j, x in out.items() if not x.is_zero()}
        self.memo[key] = out
        return out


class TestPowersOfF:
    @pytest.mark.parametrize("lam, coeff", [(sc(2), sc("1/3")), (Scalar(1, 1), Scalar(2, -1))], ids=["Q", "Qi"])
    def test_two_term_rule_matches_the_monomial_route(self, lam, coeff):
        # t^k f^a f^s v for every a up to two past the prune at n + r + |s|,
        # against the Witt-bracket reference; k = 0 is act_fpow, the
        # descent's product, and k != 0 includes the generator's recursion
        cases = 0
        for n in range(1, 4):
            for r in range(-1, n):
                mu = single_root_character(lam, n, [coeff * (d + 1) for d in range(r + 1)])
                eng, ref = InducedModule(mu), _WittReference(mu)
                for s in [(0,) * n, *_small_indices(n, top=4)]:
                    for a in range(n + r + sum(s) + 3):
                        for k in (-2, 0, 1, 3):
                            got = ModuleElement.adopt(eng._act_idx(k, s, a))
                            want = ref.act(t(k) * ref.f**a, s)
                            assert got == want, (n, r, s, a, k)
                            if a > n + r + sum(s):
                                assert got.is_zero() and want.is_zero(), (n, r, s, a, k)
                            cases += 1
                        assert eng.act_fpow(a, eng.basis(s)) == ModuleElement.adopt(eng._act_idx(0, s, a))
        assert cases > 6000

    def test_descent_work_is_bounded(self, monkeypatch):
        # a work guard on reduce_step's f^m: acting with its m + 1 monomials
        # filled 5,402 and 2,964 memo entries here, the two-term rule 72 and
        # 1,088, all of them (0, a, s) keys: the descent needs no t^k with k != 0
        monkeypatch.setattr(induced, "_engines", {})
        lam = Scalar(Fraction(3, 5), Fraction(4, 7))
        for n, s, bound in [(1, (72,), 100), (2, (32, 32), 1200)]:
            mu = single_root_character(lam, n, [1] * (n - 1) + [sc("1/5")])
            eng = get_engine(mu)
            _, final = reduce_to_generator(mu, eng.basis(s))
            assert set(final.terms) == {eng.zero_index}
            assert not eng._act_cache and len(eng._lmul_cache) <= bound, s


class TestSizeBound:
    def test_weight_drops(self):
        for n in range(1, 4):
            for r in range(-1, n):
                mu = ones_character(1, n, r)
                for s in _small_indices(n):
                    for m in range(n + s[0], n + s[0] + 2):
                        out = bracket_action_oracle(mu, 2, m, s)
                        assert all(sum(i) < sum(s) for i in out.terms)


class TestDescentPower:
    @pytest.mark.parametrize(
        "n, p, s, m, target",
        [
            (3, [1, 1], (0, 0, 2), 3, (0, 0, 1)),  # l = 2: m = n+r+1-l, D(s)
            (3, [1, 1, 1], (0, 2, 1), 5, (0, 1, 1)),  # l = 1
            (2, [1], (2, 1), 4, (0, 1)),  # l = 0: m = n+r+s_0, Dt(s)
        ],
    )
    def test_power_and_target(self, n, p, s, m, target):
        assert descent_power(get_engine(single_root_character(2, n, p)), s) == (m, target)

    @pytest.mark.parametrize("n, p", [(3, [1]), (1, [])])  # r = n-3; the zero character
    def test_hypotheses(self, n, p):
        with pytest.raises(HypothesisViolation):
            descent_power(get_engine(single_root_character(2, n, p)), (1,) + (0,) * (n - 1))


class TestReduceStep:
    def test_linear_example(self):
        mu = single_root_character(1, 1, [2])
        eng = get_engine(mu)
        (j, m), w = reduce_step(mu, eng.basis((1,)))
        assert m == 2
        assert w.leading_index() == (0,)

    def test_generator_rejected(self):
        mu = single_root_character(1, 1, [2])
        eng = get_engine(mu)
        with pytest.raises(HypothesisViolation):
            reduce_step(mu, eng.generator())

    def test_n2_linear_p(self):
        mu = single_root_character(1, 2, [0, 1])
        eng = get_engine(mu)
        (j, m), w = reduce_step(mu, eng.basis((0, 1)))
        assert m == 3  # n + r + 1 - ell = 2 + 1 + 1 - 1
        assert w.leading_index() == (0, 0)
        assert abs(j) <= 5

    def test_wrong_power_is_caught(self, monkeypatch):
        # negative control: one power too high kills the target's coefficient
        mu = single_root_character(1, 2, [0, 1])
        v = get_engine(mu).basis((0, 1))
        assert reduce_step(mu, v)[0] == (0, 3)
        real = induced.descent_power
        monkeypatch.setattr(induced, "descent_power", lambda eng, s: (real(eng, s)[0] + 1, real(eng, s)[1]))
        with pytest.raises(SearchExhausted):
            reduce_step(mu, v)

    def test_strict_descent_to_generator(self):
        rng = random.Random(55)
        for n, r in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
            mu = ones_character(rng.choice([1, 2]), n, r)
            eng = get_engine(mu)
            for s in _small_indices(n):
                trace, final = reduce_to_generator(mu, eng.basis(s))
                assert set(final.terms) == {eng.zero_index}
                assert len(trace) <= sum(s) + 3

    def test_step_limit_admits_exactly_its_steps(self, monkeypatch):
        # from (0, k) every step lowers s_1 by one: k steps reach the
        # generator, and the span is tested again after the last allowed one
        mu = ones_character(2, 2, 0)
        eng = get_engine(mu)
        trace, final = reduce_to_generator(mu, eng.basis((0, induced.REDUCE_MAX_STEPS)))
        assert len(trace) == induced.REDUCE_MAX_STEPS and set(final.terms) == {eng.zero_index}
        monkeypatch.setattr(induced, "REDUCE_MAX_STEPS", 4)
        assert len(reduce_to_generator(mu, eng.basis((0, 4)))[0]) == 4
        with pytest.raises(SearchExhausted):
            reduce_to_generator(mu, eng.basis((0, 5)))

    def test_long_descent_is_refused_before_its_first_step(self, monkeypatch):
        # (0, 120) needs 120 steps: refused at once, with the memo empty
        # (acting first ran 64 steps, 6.8 s and 3,720 memo entries)
        monkeypatch.setattr(induced, "_engines", {})
        mu = single_root_character(Scalar(Fraction(3, 5), Fraction(4, 7)), 2, [1, sc("1/5")])
        eng = get_engine(mu)
        with pytest.raises(SearchExhausted, match="needs 120 steps"):
            reduce_to_generator(mu, eng.basis((0, 120)))
        assert not eng._act_cache and not eng._lmul_cache
        # an occupied s_0 costs one step more: (1, 3) takes 4, (1, 4) five
        monkeypatch.setattr(induced, "REDUCE_MAX_STEPS", 4)
        mu = ones_character(2, 2, 0)
        assert len(reduce_to_generator(mu, get_engine(mu).basis((1, 3)))[0]) == 4
        mu = ones_character(3, 2, 0)
        with pytest.raises(SearchExhausted, match="needs 5 steps"):
            reduce_to_generator(mu, get_engine(mu).basis((1, 4)))
        assert not get_engine(mu)._act_cache and not get_engine(mu)._lmul_cache

    @pytest.mark.parametrize("lam", [sc(2), Scalar(Fraction(3, 5), Fraction(4, 7))])
    def test_scalar_part_is_the_character_value(self, lam):
        # reduce_step takes mu(f^m) from the engine's _mu_fpow, and none past
        # n + r; the reference subtracts value_power(0, m), the derived powers
        # evaluated at 0, from a fresh copy.  m > n + r when s_0 > 0.
        rng = random.Random(13)
        seen = set()
        for n, r in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
            p = [sc(rng.randint(-3, 3)) for _ in range(r)] + [sc(rng.choice([-2, -1, 1, 2]))]
            mu = single_root_character(lam, n, p)
            eng = get_engine(mu)
            for s in _small_indices(n):
                v = eng.basis(s) + eng.basis((0,) * (n - 1) + (1,)) * sc(-2)
                trace, cur = [], v
                while any(max(cur.terms)):
                    m, _ = descent_power(eng, max(cur.terms))
                    want = eng.act_fpow(m, cur) - cur * mu.value_power(0, m)
                    op, got = reduce_step(mu, cur)
                    assert op == (0, m) and got == want
                    seen.add(m > n + r)
                    trace.append(op)
                    cur = got
                assert reduce_to_generator(mu, v) == (trace, cur)
        assert seen == {False, True}

    def test_small_degree_rejected(self):
        mu = ones_character(1, 3, 0)
        eng = get_engine(mu)
        with pytest.raises(HypothesisViolation):
            reduce_step(mu, eng.basis((1, 0, 0)))

    def test_mixed_vectors_reduce(self):
        # lower terms may not overtake the reduced leading index
        rng = random.Random(71)
        for n, r in [(2, 1), (3, 2)]:
            mu = ones_character(2, n, r)
            eng = get_engine(mu)
            for _ in range(10):
                terms = {}
                for _ in range(3):
                    idx = tuple(rng.randint(0, 2) for _ in range(n))
                    terms[idx] = sc(rng.randint(1, 3))
                v = ModuleElement(terms)
                if not any(any(s) for s in v.terms):
                    continue
                lead = v.leading_index()
                if not any(lead):
                    continue
                (j, m), w = reduce_step(mu, v)
                target = dstep(lead) if ell(lead) > 0 else dtilde(lead)
                assert w.leading_index() == target
                trace, final = reduce_to_generator(mu, v)
                assert set(final.terms) == {eng.zero_index}


class TestOmega:
    def test_action_values(self):
        spec = OmegaSpec(sc(2), sc(3))
        # e_k . 1 = lam^k (d + k(b-1))
        assert omega_action(spec, 1, [sc(1)]) == index_poly([sc(2) * sc(2), sc(2)])
        # e_0 . d = d^2
        spec2 = OmegaSpec(sc(1), sc(0))
        assert omega_action(spec2, 0, index_poly([0, 1])) == index_poly([0, 0, 1])

    def test_x_k_value(self):
        # (e_{k+1} - lam e_k).1 = lam^(k+1) (b-1)
        lam, b = sc(2), sc(5)
        spec = OmegaSpec(lam, b)
        for k in range(-3, 4):
            hi = omega_action(spec, k + 1, [sc(1)])
            lo = omega_action(spec, k, [sc(1)])
            assert hi - lo * lam == index_poly([lam ** (k + 1) * (b - sc(1))])

    def test_iso_grid(self):
        for lam in ("1", "2", "1/2"):
            for b in ("0", "2", "-1"):
                assert omega_iso_check(OmegaSpec(sc(lam), sc(b)), 3)

    def test_perturbed_character_fails(self):
        spec = OmegaSpec(sc(1), sc(2))
        wrong = single_root_character(sc(1), 1, [sc(2)])  # should be lam(b-1) = 1
        assert not _omega_equivariant(spec, wrong, 3)


class TestQuotient:
    def test_zero_map(self):
        rep, mp = quotient_smalldegree(single_root_character(1, 2, []))
        assert mp.is_zero_map()

    def test_degree_and_values(self):
        mu = single_root_character(1, 3, [1])
        rep, mp = quotient_smalldegree(mu)
        lam, n1, q = mp.root_data()
        assert pdeg(q) == 1 and n1 == 2
        # q(j) = j for constant p = 1 at lam 1
        assert q == index_poly([0, 1])

    def test_partial_sums_both_signs(self):
        lam = sc(2)
        mu = single_root_character(lam, 4, [1, 1])
        rep, mp = quotient_smalldegree(mu)
        p = mu.factors[0][2]
        for j in range(-6, 7):
            if j == 0:
                want = Scalar(0)
            elif j > 0:
                want = lam ** (j - 1) * sum(
                    (p.evaluate(i) for i in range(0, j)), Scalar(0)
                )
            else:
                want = -(lam ** (j - 1)) * sum(
                    (p.evaluate(-i) for i in range(1, -j + 1)), Scalar(0)
                )
            assert mp.value_power(j, 3) == want

    def test_eigen_relation_checked(self):
        rep, _ = quotient_smalldegree(single_root_character(1, 4, [1, 1]))
        assert rep["eigen_ok"]

    def test_eigen_range_covers_every_j(self):
        # the eigen relation's sequence has order n + r + 2: nine shifts certify
        # it through n = 5, and n = 6, r = 3 needs eleven
        rep, _ = quotient_smalldegree(single_root_character(1, 4, [1, 1]))
        assert rep["eigen_range"] == [-4, 4]
        rep, mp = quotient_smalldegree(single_root_character(2, 6, [1, 1, 1, 1]))
        assert rep["eigen_ok"] and rep["eigen_range"] == [-4, 6]
        assert pdeg(mp.root_data()[2]) == 4

    def test_hypothesis_checks(self):
        with pytest.raises(HypothesisViolation):
            quotient_smalldegree(single_root_character(1, 2, [1]))  # r > n-3
        with pytest.raises(HypothesisViolation):
            quotient_smalldegree(single_root_character(1, 1, [2]))  # linear, nonzero mu

    def test_linear_readings(self):
        # zero character: slice invariant, quotient exists
        rep, mp = quotient_smalldegree(single_root_character(1, 1, []))
        assert mp is None and "quotient" in rep
        # the linear branch scans the slice's invariance and checks no eigen relation
        assert rep["invariance_scan"] == {"j": [-4, 4], "s0": [1, 4]}
        assert "eigen_range" not in rep and "eigen_ok" not in rep
        # nonzero character: the action oracle rejects the reading
        with pytest.raises(HypothesisViolation):
            quotient_smalldegree(single_root_character(1, 1, [3]))


class TestNonSimplicityWitness:
    def test_zero_mu_invariant_slice(self):
        mu = single_root_character(1, 1, [])
        eng = get_engine(mu)
        for k in range(-4, 5):
            for s0 in range(1, 5):
                out = eng.act(t(k), eng.basis((s0,)))
                assert all(idx[0] >= 1 for idx in out.terms)


class TestTwistEquivariance:
    def test_scaled_action_matches(self):
        # act in V over t - lam equals lam^k times act in V over t - 1
        for lam, mu0 in [(sc(2), sc(3)), (sc("-1/2"), sc(1))]:
            mu_l = single_root_character(lam, 1, [mu0])
            nu = single_root_character(1, 1, [mu0 / lam])
            el, en = get_engine(mu_l), get_engine(nu)
            for k in range(-3, 4):
                for s0 in range(0, 4):
                    a = el.act(t(k), el.basis((s0,)))
                    b = en.act(t(k), en.basis((s0,))) * lam**k
                    assert a == b


def test_module_element_json_round_trip():
    v = ModuleElement({(1, 0): sc("2/3"), (0, 2): sc(-1)})
    assert ModuleElement.from_json(v.to_json()) == v
