import random

import pytest

from conftest import rand_vir
from virpoly.errors import IndexOutOfSubalgebra, ZeroLambda
from virpoly.laurent import LaurentPoly, lie_bracket, linear_factor
from virpoly.scalars import sc
from virpoly.virasoro import (
    SubalgebraSpec,
    VirElement,
    central_defect,
    codim1_closure_check,
    span_member,
    theta,
    twist,
    vir_bracket,
)

e = VirElement.e


class TestBracket:
    def test_central_examples(self):
        assert vir_bracket(e(-2), e(2)) == VirElement({0: 4}, sc("-1/2"))
        assert vir_bracket(VirElement.z(), e(5)).is_zero()
        assert vir_bracket(e(1), e(-1)) == VirElement({0: -2})

    def test_antisymmetry_and_jacobi(self):
        rng = random.Random(23)
        for _ in range(60):
            x, y, z = (rand_vir(rng) for _ in range(3))
            assert (vir_bracket(x, y) + vir_bracket(y, x)).is_zero()
            total = (
                vir_bracket(vir_bracket(x, y), z)
                + vir_bracket(vir_bracket(y, z), x)
                + vir_bracket(vir_bracket(z, x), y)
            )
            assert total.is_zero()


class TestTheta:
    def test_values(self):
        assert theta(e(3)) == LaurentPoly({3: 1})
        assert theta(VirElement.z()).is_zero()
        assert theta(e(0) + VirElement.z(2)) == LaurentPoly({0: 1})

    def test_homomorphism(self):
        rng = random.Random(29)
        for _ in range(60):
            x, y = rand_vir(rng), rand_vir(rng)
            assert theta(vir_bracket(x, y)) == lie_bracket(theta(x), theta(y))


class TestXBasis:
    def test_examples(self):
        s1 = SubalgebraSpec(linear_factor(1))
        assert s1.x_basis(0) == VirElement({1: 1, 0: -1})
        s2 = SubalgebraSpec(linear_factor(1), 2)
        assert s2.x_basis(-1) == VirElement({1: 1, 0: -2, -1: 1})

    def test_restriction_cutoff(self):
        s = SubalgebraSpec(linear_factor(1), 1, restriction=1)
        with pytest.raises(IndexOutOfSubalgebra):
            s.x_basis(0)
        assert theta(s.x_basis(1)) == LaurentPoly({1: 1}) * linear_factor(1)

    def test_theta_image(self):
        s = SubalgebraSpec(linear_factor(2), 3)
        for j in range(-4, 5):
            assert theta(s.x_basis(j)) == LaurentPoly({j: 1}) * linear_factor(2) ** 3


class TestCentralDefect:
    def test_examples(self):
        s = SubalgebraSpec(linear_factor(1))
        assert central_defect(s, -2, 2) == sc("-1/2")
        assert central_defect(s, -1, 1) == sc(0)
        assert central_defect(s, 0, 1) == sc(0)

    def test_bracket_is_central_mod_subalgebra(self):
        # the deviation of [x_j, x_k] from the predicted combination is a z multiple
        polys = [
            linear_factor(1),
            linear_factor(1) * linear_factor(2),
            linear_factor(2) ** 2,
        ]
        for f in polys:
            s = SubalgebraSpec(f)
            for j in range(-5, 6):
                for k in range(-5, 6):
                    central_defect(s, j, k)  # raises if a noncentral part remains

    def test_defect_formula_opposite_indices(self):
        # [x_-(p+1), x_(p+1)] carries a_0^2 ((p+1) - (p+1)^3)/12 on z
        for f in [linear_factor(1), linear_factor(1) * linear_factor(2)]:
            s = SubalgebraSpec(f)
            p = f.degree()
            a0 = f[0]
            want = a0 * a0 * sc((p + 1) - (p + 1) ** 3) / sc(12)
            assert central_defect(s, -(p + 1), p + 1) == want


class TestTwist:
    def test_examples(self):
        assert twist(e(1), 2) == VirElement({1: 2})
        assert twist(VirElement.z(), 5) == VirElement.z()
        x = VirElement({3: 2, -1: 1}, 4)
        assert twist(x, 1) == x

    def test_zero_lambda(self):
        with pytest.raises(ZeroLambda):
            twist(e(1), 0)

    def test_automorphism(self):
        rng = random.Random(31)
        for lam in (sc(2), sc("-1/3")):
            for _ in range(40):
                x, y = rand_vir(rng), rand_vir(rng)
                assert twist(vir_bracket(x, y), lam) == vir_bracket(
                    twist(x, lam), twist(y, lam)
                )


class TestCodim1:
    def test_closure_holds(self):
        assert codim1_closure_check(sc(3), range(-5, 6))
        assert codim1_closure_check(sc(1), range(-8, 9))

    def test_wrong_shape_fails(self):
        # a bare e_0 is not in the span, and gap-1 brackets leave a gap-2 span
        assert not span_member(e(0), sc(3))
        assert not codim1_closure_check(sc(3), range(-4, 5), step=2, span_step=1)
