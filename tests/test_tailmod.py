import inspect
import random
import textwrap
import types
from fractions import Fraction
from itertools import combinations_with_replacement
from math import isqrt

import pytest

from conftest import mbar_excluded_bruteforce
from virpoly import tailmod
from virpoly.characters import RestrictedCharacter
from virpoly.errors import VirpolyError
from virpoly.scalars import Scalar, sc
from virpoly.tailmod import (
    MAX_KAC_LEVEL,
    TailModule,
    TailModuleSpec,
    ann_bound,
    b_act,
    get_tail_engine,
    kac_h,
    kac_phi,
    mbar_simple,
    tail_simplicity,
    verma_degenerate,
    verma_simple_upto,
    whittaker_simple,
)
from virpoly.tensor import general_tensor_map
from virpoly.virasoro import VirElement, vir_bracket

e = VirElement.e


def _minus(a: dict, b: dict) -> dict:
    out = {k: a.get(k, Scalar(0)) - b.get(k, Scalar(0)) for k in set(a) | set(b)}
    return {k: v for k, v in out.items() if not v.is_zero()}


SPECS = {
    -1: TailModuleSpec.mbar(sc(3)),
    0: TailModuleSpec.verma(sc(5), sc(7)),
    1: TailModuleSpec.whittaker(1, {1: sc(1), 2: sc(2)}, sc("1/2")),
    2: TailModuleSpec.whittaker(2, {2: sc(1), 3: sc(-1), 4: sc(3)}, sc(2)),
}


class TestBAct:
    def test_verma_examples(self):
        spec = SPECS[0]
        gen = {(): sc(1)}
        v = b_act(spec, e(-1), gen)
        assert b_act(spec, e(1), v) == {(): sc(-10)}  # -2h
        v2 = b_act(spec, e(-2), gen)
        # [e_2, e_-2] = -4 e_0 + (1/2) z
        assert b_act(spec, e(2), v2) == {(): sc(-4) * sc(5) + sc(Fraction(1, 2)) * sc(7)}

    def test_central_action(self):
        spec = SPECS[1]
        v = {(-2, -1): sc(2)}
        assert b_act(spec, VirElement.z(), v) == {(-2, -1): sc(2) * sc("1/2")}

    def test_representation_property(self):
        rng = random.Random(61)
        for m, spec in SPECS.items():
            for _ in range(40):
                mono = tuple(
                    sorted(rng.randint(m - 4, m - 1) for _ in range(rng.randint(0, 3)))
                )
                v = {mono: sc(1)}
                x = VirElement(
                    {rng.randint(-3, 3): sc(rng.randint(-2, 2)) for _ in range(2)},
                    rng.randint(-1, 1),
                )
                y = VirElement({rng.randint(-3, 3): sc(rng.randint(-2, 2))})
                lhs = _minus(b_act(spec, x, b_act(spec, y, v)), b_act(spec, y, b_act(spec, x, v)))
                assert lhs == b_act(spec, vir_bracket(x, y), v)

    @pytest.mark.parametrize("m", sorted(SPECS))
    def test_act_vir_matches_the_per_monomial_formula(self, m):
        """x v = sum_mono v[mono] (sum_i x_i e_i mono + z(x) c mono), term by term."""
        spec = SPECS[m]
        eng = get_tail_engine(spec)
        rng = random.Random(97 + m)
        for _ in range(20):
            v = {}
            for _ in range(rng.randint(1, 3)):
                mono = tuple(sorted(rng.randint(m - 3, m - 1) for _ in range(rng.randint(0, 3))))
                v[mono] = sc(rng.randint(-3, 3)) / sc(rng.randint(1, 3))
            x = VirElement(
                {rng.randint(-3, 3): sc(rng.randint(-2, 2)) for _ in range(2)},
                sc(rng.randint(-2, 2)) / sc(3),
            )
            want = {}
            for mono, coeff in v.items():
                for i, a in x.e_part.terms.items():
                    for mono2, c in eng._act_e(i, mono).items():
                        want[mono2] = want.get(mono2, Scalar(0)) + a * coeff * c
                want[mono] = want.get(mono, Scalar(0)) + x.z_part * spec.c * coeff
            assert b_act(spec, x, v) == {k: c for k, c in want.items() if not c.is_zero()}


class TestAnnBound:
    def test_generator_bounds(self):
        assert ann_bound(SPECS[0], {(): sc(1)}) == 1
        assert ann_bound(SPECS[1], {(): sc(1)}) == 3  # 2m + 1
        assert ann_bound(SPECS[-1], {(): sc(1)}) == 0

    def test_soundness_random(self):
        rng = random.Random(67)
        for m, spec in SPECS.items():
            for _ in range(50):
                mono = tuple(
                    sorted(rng.randint(m - 4, m - 1) for _ in range(rng.randint(0, 3)))
                )
                v = {mono: sc(1)}
                L = ann_bound(spec, v)
                for j in range(L, L + 4):
                    assert b_act(spec, e(j), v) == {}

    def test_central_cocycle_hazard(self):
        # with c != 0 the bracket cocycle can fire below the bound
        spec = TailModuleSpec.mbar(sc(3))
        v = {(-2,): sc(1)}
        assert b_act(spec, e(2), v) != {}  # e_2 against e_-2 leaves (1/2) c v
        assert ann_bound(spec, v) > 2


def straighten(spec: TailModuleSpec, word: tuple) -> dict:
    """e_(w_0) ... e_(w_k) v in the PBW basis, from the bracket alone, with no memo.

    Rewrites words: an index j >= m at the right end acts on v by psi(j);
    otherwise the first adjacent pair out of weakly increasing order is
    swapped by e_i e_j = e_j e_i + (j - i) e_(i+j) + delta_(i+j,0) (i^3 - i)/12 c.
    Every rewrite removes an inversion or shortens the word, so it stops.
    """
    out = {}
    todo = [(word, Scalar(1))]
    while todo:
        w, c = todo.pop()
        if w and w[-1] >= spec.m:
            val = spec.psi(w[-1])
            if not val.is_zero():
                todo.append((w[:-1], c * val))
            continue
        p = next((p for p in range(len(w) - 1) if w[p] > w[p + 1]), None)
        if p is None:
            out[w] = out.get(w, Scalar(0)) + c
            continue
        i, j = w[p], w[p + 1]
        head, tail = w[:p], w[p + 2 :]
        todo.append((head + (j, i) + tail, c))
        todo.append((head + (i + j,) + tail, c * sc(j - i)))
        if i + j == 0:
            todo.append((head + tail, c * sc(Fraction(i**3 - i, 12)) * spec.c))
    return {k: v for k, v in out.items() if not v.is_zero()}


def small_words(m):
    """(i, mono) for every monomial of length <= 3 with entries in [m - 3, m - 1]
    and every i in [m - 4, 2m + 3]: each case ``_act_e`` writes without a call,
    (j0, i) + rest and (i + j0,) + rest, the cocycle at i + j0 = 0 among them."""
    for size in range(4):
        for mono in combinations_with_replacement(range(m - 3, m), size):
            for i in range(m - 4, 2 * m + 4):
                yield i, mono


def mutant_engine(spec, old, new):
    """A fresh engine whose ``_act_e``, recursion included, has one edit made to its source."""
    source = textwrap.dedent(inspect.getsource(TailModule._act_e))
    assert source.count(old) == 1, old
    namespace = dict(vars(tailmod))
    exec(compile(source.replace(old, new), "<mutant _act_e>", "exec"), namespace)
    eng = TailModule(spec)
    eng._act_e = types.MethodType(namespace["_act_e"], eng)
    return eng


class TestStraighteningMemo:
    def test_reference_straightening_small_cases(self):
        # [e_1, e_-1] = -2 e_0 + 0 z on the Verma vector: -2h
        assert straighten(SPECS[0], (1, -1)) == {(): sc(-10)}
        # [e_2, e_-2] = -4 e_0 + (1/2) z: -4h + c/2
        assert straighten(SPECS[0], (2, -2)) == {(): sc(-20) + sc("7/2")}
        assert straighten(SPECS[-1], (-3, -2)) == {(-3, -2): sc(1)}

    @pytest.mark.parametrize("m", sorted(SPECS))
    def test_act_e_matches_the_reference(self, m):
        spec = SPECS[m]
        eng = get_tail_engine(spec)
        rng = random.Random(151 + m)
        for _ in range(40):
            mono = tuple(sorted(rng.randint(m - 4, m - 1) for _ in range(rng.randint(0, 3))))
            i = rng.randint(m - 4, 2 * m + 2)
            assert eng._act_e(i, mono) == straighten(spec, (i,) + mono), (i, mono)

    @pytest.mark.parametrize("m", sorted(SPECS))
    def test_act_e_matches_the_reference_on_every_small_word(self, m):
        eng = TailModule(SPECS[m])
        for i, mono in small_words(m):
            assert eng._act_e(i, mono) == straighten(SPECS[m], (i,) + mono), (i, mono)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("(i + j0,) + rest, Scalar(j0 - i))", "(i + j0,) + rest, Scalar(i - j0))"),
            ("if j0 == -i:", "if j0 == -i and i + j0 > top:"),
        ],
        ids=["sign_of_j0_minus_i", "cocycle_dropped_at_zero"],
    )
    def test_mutant_direct_writes_are_caught(self, old, new):
        wrong = []
        for m, spec in sorted(SPECS.items()):
            eng = mutant_engine(spec, old, new)
            wrong += [(i, mono) for i, mono in small_words(m) if eng._act_e(i, mono) != straighten(spec, (i,) + mono)]
        assert wrong

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_memo_after_a_slice_holds_only_real_straightening(self, m):
        window = {j: sc(j + 3) for j in range(m, 2 * m + 2)}
        rc = RestrictedCharacter.from_window([(sc(2), 1)], m, window, sc(5))
        tailmod._tail_engines.clear()
        assert general_tensor_map(rc, 4, "restricted")["passed"]
        (eng,) = tailmod._tail_engines.values()
        assert eng._cache
        for (i, mono), got in eng._cache.items():
            # the cyclic vector and products already in PBW order are not kept
            assert mono and i > mono[0], (i, mono)
            assert got == straighten(eng.spec, (i,) + mono), (i, mono)


class TestKac:
    def test_h11_vanishes(self):
        rng = random.Random(71)
        for _ in range(10):
            c = sc(rng.randint(-20, 20)) / sc(rng.randint(1, 7))
            assert kac_phi(1, 1, c, sc(0)).is_zero()

    def test_h21_at_c1(self):
        assert kac_phi(2, 1, sc(1), sc("1/4")).is_zero()
        data = kac_h(2, 1, sc(1))
        # double root at 1/4: sum 1/2, product 1/16
        assert data["sum"] == sc("1/2") and data["product"] == sc("1/16")

    def test_conjugate_symmetry(self):
        rng = random.Random(73)
        for _ in range(20):
            c = sc(rng.randint(-15, 15)) / sc(rng.randint(1, 5))
            h = sc(rng.randint(-15, 15)) / sc(rng.randint(1, 5))
            for r, s in [(1, 2), (2, 3), (1, 4)]:
                assert kac_phi(r, s, c, h) == kac_phi(s, r, c, h)

    def test_against_explicit_roots_at_square_discriminants(self):
        # (c-1)(c-25) a rational square: h_{r,s} themselves are rational
        for c in (sc(1), sc(25), sc(0), sc(26), sc(-2), sc(28), sc("1/2")):
            d2 = (c - sc(1)) * (c - sc(25))
            num, den = d2.re.numerator, d2.re.denominator
            from math import isqrt

            rn, rd = isqrt(num), isqrt(den)
            assert rn * rn == num and rd * rd == den
            d = sc(Fraction(rn, rd))
            for r, s in [(1, 1), (2, 1), (2, 3), (3, 1)]:
                A = (sc(13) - c) * sc(r * r + s * s) - sc(24 * r * s) - sc(2) + sc(2) * c
                B = sc(r * r - s * s)
                h_rs = (A + d * B) / sc(48)
                h_sr = (A - d * B) / sc(48)
                assert kac_phi(r, s, c, h_rs).is_zero()
                assert kac_phi(r, s, c, h_sr).is_zero()
                data = kac_h(r, s, c)
                assert data["sum"] == h_rs + h_sr
                assert data["product"] == h_rs * h_sr

    def test_verma_scan(self):
        assert verma_simple_upto(sc(0), sc(3), 20) == {
            "simple": False,
            "degenerate": (1, 1),
            "level": 20,
        }
        assert verma_simple_upto(sc(1), sc(100), 12)["simple"]
        assert verma_simple_upto(sc("1/4"), sc(1), 6)["degenerate"] == (1, 2) or (
            verma_simple_upto(sc("1/4"), sc(1), 6)["degenerate"] == (2, 1)
        )
        for level in (0, MAX_KAC_LEVEL + 1):
            with pytest.raises(ValueError):
                verma_simple_upto(sc(1), sc(100), level)


def _rational_kac_weights(c: Fraction, level: int) -> set:
    """Every rational weight h_{r,s}(c) with r s <= level: the roots of
    h^2 - sum h + product that ``kac_h`` gives, when its discriminant is a
    rational square."""
    out = set()
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            data = kac_h(r, s, sc(c))
            total, prod = data["sum"].re, data["product"].re
            disc = total * total - 4 * prod
            if disc < 0:
                continue
            num, den = isqrt(disc.numerator), isqrt(disc.denominator)
            if num * num == disc.numerator and den * den == disc.denominator:
                out |= {(total + Fraction(num, den) * sign) / 2 for sign in (1, -1)}
    return out


class TestVermaExact:
    def test_the_weight_the_level_20_scan_missed(self):
        # c = 0, tau = 3/2: 4 p q h + (p - q)^2 = 1521 = 39^2, and 3 r - 2 s = -39 at (1, 21)
        assert verma_degenerate(sc("190/3"), sc(0)) == (1, 21)
        assert verma_simple_upto(sc("190/3"), sc(0), 20)["simple"]
        assert not verma_simple_upto(sc("190/3"), sc(0), 21)["simple"]
        for level in (1, 20, 30):
            assert tail_simplicity(TailModuleSpec.verma(sc("190/3"), sc(0)), level) == {
                "kind": "verma",
                "simple": False,
                "degenerate": (1, 21),
                "criterion": "kac-determinant",
            }

    def test_known_labels(self):
        assert verma_degenerate(sc(0), sc(3)) == (1, 1)  # h = 0 always
        assert verma_degenerate(sc("1/3"), sc(1)) is None  # 4h is not a square
        for k in (1, 2, 3, 10):
            assert verma_degenerate(sc(Fraction(k * k, 4)), sc(1)) == (1, k + 1)
        assert verma_degenerate(sc("1/16"), sc("1/2")) == (1, 2)  # Ising
        # Phi_{1,2} = Phi_{2,1} vanishes at h_{2,1} = 1/2 too
        assert verma_degenerate(sc("1/2"), sc("1/2")) == (1, 2)
        # irrational tau: r = s, with r^2 = 1 + 24 h / (1 - c)
        assert verma_degenerate(sc("3/2"), sc(-11)) == (2, 2)
        assert verma_degenerate(sc(1), sc(2)) is None
        # tau < 0 above c = 25: finitely many labels, r + s = T at c = 25
        assert verma_degenerate(sc("-5/4"), sc(25)) == (1, 2)
        with pytest.raises(ValueError):
            verma_degenerate(Scalar(0, 1), sc(0))

    def test_a_gaussian_weight_keeps_the_scan(self):
        spec = TailModuleSpec.verma(Scalar(0, 1), sc(0))
        assert tail_simplicity(spec, 12) == {
            "kind": "verma",
            "simple": True,
            "degenerate": None,
            "criterion": "level-scan",
            "kac_level": 12,
        }

    def test_against_the_level_30_scan(self):
        """Every rational h_{r,s}(c) with r s <= 30, and seeded rational h,
        on a seeded grid of charges: minimal models and c >= 25 (rational
        tau) and other rational c (irrational tau).  The scan, the oracle,
        finds the exact label's level and nothing below it."""
        rng = random.Random(32)
        # c = 26 has tau = -2/3, where the least label can sit at either end of a family
        charges = {Fraction(0), Fraction(1), Fraction(25), Fraction(26), Fraction(-2)}
        while len(charges) < 10:
            x = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            charges.add(13 - 6 * (x + 1 / x) if rng.random() < 0.7 else Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
        for c in sorted(charges):
            weights = _rational_kac_weights(c, 30) | {Fraction(rng.randint(-50, 50), rng.randint(1, 24)) for _ in range(5)}
            for h in sorted(weights):
                label = verma_degenerate(sc(h), sc(c))
                if label is None or label[0] * label[1] > 30:
                    assert verma_simple_upto(sc(h), sc(c), 30)["simple"], (c, h)
                    continue
                level = label[0] * label[1]
                assert kac_phi(*label, sc(c), sc(h)).is_zero(), (c, h)
                assert not verma_simple_upto(sc(h), sc(c), level)["simple"], (c, h)
                assert level == 1 or verma_simple_upto(sc(h), sc(c), level - 1)["simple"], (c, h)


class TestMbar:
    def test_known_values(self):
        assert not mbar_simple(sc(0))  # (p, q) = (2, 3)
        assert mbar_simple(sc(1))
        assert not mbar_simple(sc("1/2"))  # (3, 4)
        assert mbar_simple(sc(-2))  # root x = 2 needs q >= 2
        assert mbar_simple(Scalar(0, 1))  # nonreal charge is never excluded

    def test_against_bruteforce(self):
        rng = random.Random(79)
        samples = [sc(0), sc(1)]
        for _ in range(30):
            samples.append(sc(rng.randint(-30, 30)) / sc(rng.randint(1, 12)))
        # include genuinely excluded values from the defining formula
        for p, q in [(2, 3), (3, 4), (2, 5), (3, 5)]:
            samples.append(sc(1) - sc(6 * (p - q) ** 2) / sc(p * q))
        for c in samples:
            assert mbar_simple(c) == (not mbar_excluded_bruteforce(c, 50))


class TestWhittaker:
    def test_criterion(self):
        assert whittaker_simple(TailModuleSpec.whittaker(1, {2: sc(1)}, sc(0)))
        assert whittaker_simple(TailModuleSpec.whittaker(1, {1: sc(1)}, sc(0)))
        assert not whittaker_simple(
            TailModuleSpec.whittaker(2, {2: sc(1)}, sc(0))
        )

    def test_zero_character_rejected(self):
        with pytest.raises(VirpolyError):
            whittaker_simple(TailModuleSpec.whittaker(1, {}, sc(1)))


class TestSpecValidation:
    def test_shapes(self):
        with pytest.raises(ValueError):
            TailModuleSpec.whittaker(0, {0: sc(1)}, sc(0))
        with pytest.raises(ValueError):
            TailModuleSpec(1, {3: sc(1)}, sc(0))
        with pytest.raises(ValueError):
            TailModuleSpec(-1, {-1: sc(1)}, sc(0))
        with pytest.raises(ValueError):
            TailModuleSpec(0, {1: sc(1)}, sc(0))
        with pytest.raises(ValueError):
            TailModuleSpec(-2, {}, sc(0))

    def test_json_round_trip(self):
        for spec in SPECS.values():
            assert TailModuleSpec.from_json(spec.to_json()) == spec
        triv = TailModuleSpec.trivial()
        assert TailModuleSpec.from_json(triv.to_json()) == triv

    def test_contradictory_fields_are_rejected(self):
        for obj in (
            {"type": "trivial", "m": 0},
            {"type": "verma", "m": 5, "h": "1"},
            {"type": "verma", "psi": {"0": "1"}},
            {"type": "mbar", "m": 0},
            {"type": "mbar", "h": "5"},
            {"type": "whittaker", "m": 1, "h": "1"},
            {"type": "whittaker", "psi": {"1": "1"}},
        ):
            with pytest.raises(ValueError):
                TailModuleSpec.from_json(obj)
        assert TailModuleSpec.from_json({"type": "verma", "m": 0, "h": "2"}).m == 0
