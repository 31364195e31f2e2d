import random

import pytest

from virpoly.characters import (
    ExpPolyCharacter,
    RestrictedCharacter,
    compose,
    decompose,
    derived_power_recurrence,
    restrict,
    single_root_character,
    solve_exp_poly,
)
from virpoly.densepoly import index_poly, p_from_json, p_to_json, pdeg, pshift
from virpoly.errors import NotInIdeal, RootCollision
from virpoly.induced import get_engine
from virpoly.laurent import LaurentPoly, linear_factor
from virpoly.scalars import Scalar, sc


def t(k, c=1):
    return LaurentPoly({k: c})


class TestValidate:
    def test_constant_sequence(self):
        mu = single_root_character(1, 1, [5])
        assert mu.validate(range(-10, 11))

    def test_linear_polynomial(self):
        mu = single_root_character(1, 2, [0, 1])
        assert mu.validate(range(-10, 11))

    def test_tampered_sequence_fails(self):
        mu = single_root_character(1, 1, [5])
        coefs = mu.ambient.terms
        # recurrence with mu_0 bumped by one must fail at the touched indices
        def bad_seq(j):
            return mu.seq(j) + (sc(1) if j == 0 else sc(0))

        broken = []
        for m in range(-3, 3):
            acc = Scalar(0)
            for i, a in coefs.items():
                acc = acc + a * bad_seq(m + i)
            broken.append(acc.is_zero())
        assert not all(broken)


class TestEval:
    def test_examples(self):
        mu = single_root_character(1, 1, [1])
        f = mu.ambient
        assert mu.eval(t(2) * f) == sc(1)
        mu2 = single_root_character(1, 2, [0, 1])
        f2 = mu2.ambient
        assert mu2.eval((t(1) + t(2)) * f2) == sc(3)
        with pytest.raises(NotInIdeal):
            mu.eval(t(0))

    def test_linearity(self):
        rng = random.Random(3)
        mu = single_root_character(2, 2, [1, 1])
        f2 = mu.ambient
        for _ in range(30):
            a = LaurentPoly({rng.randint(-4, 4): sc(rng.randint(-3, 3))}) * f2
            b = LaurentPoly({rng.randint(-4, 4): sc(rng.randint(-3, 3))}) * f2
            assert mu.eval(a + b) == mu.eval(a) + mu.eval(b)


class TestIndexPoly:
    def test_shift_is_translation(self):
        p = index_poly([sc(3), sc(-2), sc("1/2"), sc(1)])
        for a in (0, 1, -1, 3, Scalar(1, 1)):
            shifted = pshift(p, a)
            assert pdeg(shifted) == pdeg(p)
            for x in (-2, 0, 5, Scalar(0, 1)):
                assert shifted.evaluate(x) == p.evaluate(sc(x) + sc(a))

    def test_json_round_trip(self):
        for coeffs in ([], [0, 1], [sc("1/3"), 0, Scalar(2, -1)]):
            p = index_poly(coeffs)
            assert p_from_json(p_to_json(p)) == p
        assert p_to_json(index_poly([0, 0, 1])) == ["0", "0", "1"]

    def test_list_tuple_and_poly_give_one_character(self):
        forms = ([1, 2], (sc(1), sc(2)), index_poly([1, 2]))
        chars = [single_root_character(2, 2, p) for p in forms]
        assert all(isinstance(mu.factors[0][2], LaurentPoly) for mu in chars)
        assert len(set(chars)) == 1 and len({hash(mu) for mu in chars}) == 1
        assert len({id(get_engine(mu)) for mu in chars}) == 1


class TestDerivedPower:
    def test_recurrence_examples(self):
        # lam=1, p(j)=j: one step gives a constant, two steps zero
        x = index_poly([0, 1])
        assert derived_power_recurrence(1, x) == index_poly([1])
        assert derived_power_recurrence(1, derived_power_recurrence(1, x)) == index_poly([])
        # constants die in one step
        assert derived_power_recurrence(3, index_poly([7])) == index_poly([])
        # lam=2: p(x)=x -> 2((x+1) - x) = 2
        assert derived_power_recurrence(2, x) == index_poly([2])

    def test_degree_law(self):
        for n in range(1, 4):
            for r in range(-1, n):
                p = tuple(sc(1) for _ in range(r + 1))
                mu = single_root_character(2, n, p)
                for m in range(n, n + r + 3):
                    assert pdeg(mu.power_poly(m)) == max(n + r - m, -1)

    def test_cross_check_with_eval(self):
        mu = single_root_character(2, 2, [0, 1])
        for m in range(2, 6):
            for j in range(-3, 4):
                g = t(j) * linear_factor(2) ** m
                assert mu.eval(g) == mu.value_power(j, m)


class TestRestrict:
    def test_constant_against_linear_multiplier(self):
        mu = single_root_character(1, 1, [1])
        out = restrict(mu, linear_factor(2))
        assert out.factors[0][2] == index_poly([-1])
        assert pdeg(out.factors[0][2]) == 0

    def test_identity_multiplier(self):
        mu = single_root_character(1, 2, [0, 1])
        assert restrict(mu, t(0)).factors == mu.factors

    def test_root_collision(self):
        mu = single_root_character(1, 1, [1])
        with pytest.raises(RootCollision):
            restrict(mu, linear_factor(1))

    def test_restriction_consistency(self):
        # values of the restriction agree with evaluating mu on the ideal
        mu = single_root_character(2, 2, [1, 1])
        g = linear_factor(1) * linear_factor(3)
        out = restrict(mu, g)
        for j in range(-4, 5):
            assert out.seq(j) == mu.eval(t(j) * g * mu.ambient)


class TestDecompose:
    def test_two_constant_factors(self):
        comp = ExpPolyCharacter([(sc(1), 1, [sc(3)]), (sc(2), 1, [sc(5)])])
        p1, p2 = decompose(comp)
        assert p1.factors[0][2] == index_poly([-3])
        assert p2.factors[0][2] == index_poly([5])
        back = compose([p1, p2])
        for j in range(-5, 6):
            assert back.seq(j) == comp.seq(j)

    def test_round_trip_random(self):
        rng = random.Random(9)
        pool = [sc(1), sc(2), sc(-1), sc(3), sc("1/2")]
        for _ in range(25):
            k = rng.randint(1, 3)
            lams = rng.sample(pool, k)
            parts = []
            for lam in lams:
                n = rng.randint(1, 3)
                deg = rng.randint(-1, n - 1)
                p = [sc(rng.randint(-3, 3)) for _ in range(deg)] + (
                    [sc(rng.choice([1, 2, -1]))] if deg >= 0 else []
                )
                parts.append(single_root_character(lam, n, p))
            comp = compose(parts)
            assert comp.validate(range(-10, 11))
            back = decompose(comp)
            key = lambda m: (m.factors[0][0].re, m.factors[0][0].im)
            assert [b.factors for b in back] == [
                m.factors for m in sorted(parts, key=key)
            ]

    def test_one_root_comes_back_as_it_is(self):
        # the cofactor of a lone root is 1, so its system is the identity
        cases = [(sc(2), 1, [sc(3)]), (sc(-1), 3, [1, sc("1/2"), 4]), (Scalar(1, 1), 2, [Scalar(0, 2)]), (sc(3), 2, [])]
        for lam, n, p in cases:
            mu = single_root_character(lam, n, p)
            (back,) = decompose(mu)
            assert back is mu

    def test_degree_preservation(self):
        comp = ExpPolyCharacter([(sc(1), 3, [sc(1), sc(2)]), (sc(2), 2, [sc(4)])])
        parts = decompose(comp)
        assert [pdeg(p.factors[0][2]) for p in parts] == [1, 0]


class TestSolveExpPoly:
    def test_single_value(self):
        out = solve_exp_poly([sc(5)], [(1, 1)], 1)
        assert out.factors[0][2] == index_poly([5])

    def test_double_root(self):
        out = solve_exp_poly([sc(1), sc(2)], [(1, 2)], 1)
        assert out.factors[0][2] == index_poly([0, 1])
        # forward recurrence extension: mu_3 = 2 mu_2 - mu_1 = 3
        assert out.seq(3) == sc(3)

    def test_two_roots(self):
        out = solve_exp_poly([sc(3), sc(5)], [(1, 1), (2, 1)], 0)
        assert [f[2] for f in out.factors] == [index_poly([1]), index_poly([2])]
        # forward recurrence for (t-1)(t-2): mu_2 = 3 mu_1 - 2 mu_0 = 9 = 1 + 2*4
        assert out.seq(2) == sc(9)

    def test_random_fit(self):
        rng = random.Random(13)
        for _ in range(25):
            roots = [(sc(1), rng.randint(1, 2)), (sc(2), rng.randint(1, 2))]
            p = sum(n for _, n in roots)
            j0 = rng.randint(-3, 3)
            values = [sc(rng.randint(-5, 5)) for _ in range(p)]
            out = solve_exp_poly(values, roots, j0)
            for k, v in enumerate(values):
                assert out.seq(j0 + k) == v
            assert out.validate(range(j0 - 3, j0 + p + 3))


class TestRestrictedCharacter:
    def test_split_muhat_linear(self):
        rc = RestrictedCharacter.from_window([(1, 1)], 0, {0: sc(4), 1: sc(9)}, sc(7))
        ddot, hat = rc.split_muhat()
        assert ddot.seq(12) == sc(9)
        assert hat["window"] == {0: sc(5)}
        assert hat["z"] == sc(7)
        assert rc.muhat_closed_forms()["hat_0"] == sc(5)

    def test_m_minus_one_empty_window(self):
        rc = RestrictedCharacter.from_window([(1, 1)], -1, {-1: sc(3)}, sc(2))
        ddot, hat = rc.split_muhat()
        assert hat["window"] == {}
        assert ddot.seq(-1) == sc(3)

    def test_recomposition(self):
        rng = random.Random(21)
        configs = [[(sc(1), 1)], [(sc(1), 2)], [(sc(1), 1), (sc(2), 1)], [(sc(2), 3)]]
        for m in (0, 1, 2):
            for roots in configs:
                p = sum(n for _, n in roots)
                window = {j: sc(rng.randint(-4, 4)) for j in range(m, 2 * m + p + 1)}
                rc = RestrictedCharacter.from_window(roots, m, window, sc(1))
                ddot, hat = rc.split_muhat()
                F = rc.ambient()
                for j in range(m, 2 * m + p + 1):
                    hat_xj = Scalar(0)
                    for i, a in F.terms.items():
                        hat_xj = hat_xj + a * hat["window"].get(j + i, Scalar(0))
                    assert ddot.seq(j) + hat_xj == rc.mu_x(j)

    def test_window_tail_overlap_enforced(self):
        with pytest.raises(ValueError):
            tail = solve_exp_poly([sc(1)], [(1, 1)], 1)
            RestrictedCharacter(0, tail, {0: sc(0), 1: sc(99)})

    def test_json_round_trip(self):
        rc = RestrictedCharacter.from_window(
            [(1, 1), (2, 2)], 1, {j: sc(j + 1) for j in range(1, 6)}, sc("1/3")
        )
        back = RestrictedCharacter.from_json(rc.to_json())
        assert back.window == rc.window and back.z_value == rc.z_value
        assert back.tail == rc.tail



# one restricted character per field: roots (lambda_i, n_i) with p = 3, the
# window values as a function of j, and the central value
RESTRICTED_FIELDS = {
    "Q": ([(sc(2), 1), (sc(3), 2)], lambda j: sc(j * j - 2), sc("1/3")),
    "Qi": ([(Scalar(1, 1), 2), (sc(2), 1)], lambda j: Scalar(j - 1, 2 * j + 1), Scalar(0, 2)),
}


def restricted_case(field, m):
    roots, value, z = RESTRICTED_FIELDS[field]
    window = {j: value(j) for j in range(m, 2 * m + 4)}
    return RestrictedCharacter.from_window(roots, m, window, z), window, z


@pytest.mark.parametrize("m", [-1, 0, 1, 2])
@pytest.mark.parametrize("field", sorted(RESTRICTED_FIELDS))
class TestRestrictedWindow:
    """The free values on [m, 2m] are stored; the tail gives every mu_j above 2m."""

    def test_mu_x_reads_the_tail_above_2m(self, field, m):
        rc, window, _ = restricted_case(field, m)
        assert list(rc.window) == list(range(m, 2 * m + 1))
        for j in range(m, 2 * m + 1):
            assert rc.mu_x(j) == window[j]
        for j in range(2 * m + 1, 2 * m + 4):
            assert rc.mu_x(j) == rc.tail.seq(j) == window[j]

    def test_json_round_trip_is_unchanged(self, field, m):
        rc, window, z = restricted_case(field, m)
        obj = rc.to_json()
        restriction = {"m": m, "window": {str(j): window[j].to_json() for j in range(m, 2 * m + 1)}, "z": z.to_json()}
        assert obj == {**rc.tail.to_json(), "restriction": restriction}
        back = RestrictedCharacter.from_json(obj)
        assert back.to_json() == obj
        assert [back.mu_x(j) for j in range(m, 2 * m + 6)] == [rc.mu_x(j) for j in range(m, 2 * m + 6)]

    def test_a_value_above_2m_must_agree_with_the_tail(self, field, m):
        rc, window, z = restricted_case(field, m)
        for j in range(2 * m + 1, 2 * m + 4):
            with pytest.raises(ValueError, match=f"window value at {j} disagrees with the tail"):
                RestrictedCharacter(m, rc.tail, {**window, j: window[j] + 1}, z)
        # values above 2m may be left out: the tail supplies them
        free = {j: window[j] for j in range(m, 2 * m + 1)}
        assert RestrictedCharacter(m, rc.tail, free, z).to_json() == rc.to_json()

    def test_every_free_value_is_required(self, field, m):
        rc, window, z = restricted_case(field, m)
        for j in range(m, 2 * m + 1):
            rest = {i: v for i, v in window.items() if i != j}
            with pytest.raises(ValueError, match=f"missing free window value at index {j}"):
                RestrictedCharacter(m, rc.tail, rest, z)
