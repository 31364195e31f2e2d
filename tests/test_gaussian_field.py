"""End-to-end checks over the Gaussian rationals: roots and parameters in Q(i)."""

import random

from conftest import rand_vir
from virpoly.characters import RestrictedCharacter, compose, decompose, single_root_character
from virpoly.induced import ModuleElement, get_engine, reduce_to_generator
from virpoly.laurent import LaurentPoly
from virpoly.scalars import Scalar, sc
from virpoly.tailmod import TailModuleSpec, mbar_simple, verma_simple_upto
from virpoly.tensor import TensorSpec, cyclic_reduce, simplicity_verdict, tensor_act
from virpoly.virasoro import vir_bracket

I = Scalar(0, 1)


def test_generator_action_formula_at_imaginary_root():
    mu0 = Scalar(2, 1)
    mu = single_root_character(I, 1, [mu0])
    eng = get_engine(mu)
    for k in range(-5, 6):
        got = eng.act(LaurentPoly.t_power(k), eng.generator())
        want = ModuleElement({(1,): I**k, (0,): sc(k) * I ** (k - 1) * mu0})
        assert got == want


def test_representation_property_at_imaginary_root():
    rng = random.Random(3)
    mu = single_root_character(I, 2, [Scalar(1, 1)])
    eng = get_engine(mu)
    for _ in range(30):
        x, y = rand_vir(rng, -3, 3), rand_vir(rng, -3, 3)
        v = eng.basis((rng.randint(0, 2), rng.randint(0, 2)))
        lhs = eng.act_vir(x, eng.act_vir(y, v)) - eng.act_vir(y, eng.act_vir(x, v))
        assert lhs == eng.act_vir(vir_bracket(x, y), v)


def test_reduction_and_verdict_with_gaussian_data():
    mu = single_root_character(I, 1, [Scalar(0, 3)])
    eng = get_engine(mu)
    trace, final = reduce_to_generator(mu, eng.basis((2,)))
    assert set(final.terms) == {(0,)}
    spec = TensorSpec([mu, single_root_character(Scalar(1, 1), 1, [sc(1)])])
    rep = simplicity_verdict(spec)
    assert rep["simple"]
    trace, final = cyclic_reduce(spec, TensorElement_basis(spec, ((1,), (0,))))
    assert all(not any(p0) for key in final.terms for p0 in key[:-1])


def TensorElement_basis(spec, parts):
    from virpoly.tensor import TensorElement

    return TensorElement({tuple(tuple(p) for p in parts) + ((),): 1})


def test_decompose_with_gaussian_roots():
    parts = [
        single_root_character(I, 2, [sc(1), Scalar(0, 1)]),
        single_root_character(-I, 1, [sc(2)]),
    ]
    comp = compose(parts)
    assert comp.validate(range(-8, 9))
    back = decompose(comp)
    assert sorted(
        (b.factors for b in back), key=lambda f: (f[0][0].re, f[0][0].im)
    ) == sorted((p.factors for p in parts), key=lambda f: (f[0][0].re, f[0][0].im))


def test_restricted_split_with_gaussian_window():
    rc = RestrictedCharacter.from_window(
        [(I, 1)], 1, {1: Scalar(1, 1), 2: sc(2), 3: Scalar(0, 1)}, Scalar(0, 2)
    )
    ddot, hat = rc.split_muhat()
    F = rc.ambient()
    for j in range(1, 4):
        hat_xj = Scalar(0)
        for i, a in F.terms.items():
            hat_xj = hat_xj + a * hat["window"].get(j + i, Scalar(0))
        assert ddot.seq(j) + hat_xj == rc.mu_x(j)


def test_tail_criteria_with_gaussian_charge():
    # a nonreal central charge never hits the rational excluded set
    assert mbar_simple(Scalar(1, 1))
    # Kac scan still runs exactly over Gaussian (h, c)
    out = verma_simple_upto(Scalar(0, 1), Scalar(2, 5), 8)
    assert out["simple"]
    spec = TensorSpec(
        [single_root_character(I, 1, [sc(1)])], TailModuleSpec.mbar(Scalar(1, 1))
    )
    assert simplicity_verdict(spec)["simple"]


def test_tensor_z_action_gaussian():
    spec = TensorSpec(
        [single_root_character(I, 1, [sc(1)])],
        TailModuleSpec.verma(Scalar(1, 1), Scalar(0, 2)),
    )
    from virpoly.virasoro import VirElement

    got = tensor_act(spec, VirElement.z(), spec.generator())
    assert got == spec.generator() * Scalar(0, 2)
