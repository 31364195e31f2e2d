"""Exact computer algebra for polynomial subalgebras of the Virasoro algebra.

The package realizes the Virasoro algebra on Laurent polynomials, builds the
subalgebras attached to a polynomial with nonzero constant term, classifies
their one-dimensional characters in exponential-polynomial form, drives the
induced and tensor modules through an exact PBW straightening engine, and
decides simplicity and isomorphism questions with certified finite checks.
"""

from .scalars import Scalar, sc
from .laurent import (
    LaurentPoly,
    bezout,
    divide_exact,
    f_adic_decompose,
    lie_bracket,
    linear_factor,
)
from .faulhaber import bernoulli_numbers, faulhaber, faulhaber_sum, neg_faulhaber_sum
from .virasoro import (
    SubalgebraSpec,
    VirElement,
    central_defect,
    codim1_closure_check,
    theta,
    twist,
    vir_bracket,
)
from .characters import (
    ExpPolyCharacter,
    RestrictedCharacter,
    compose,
    decompose,
    restrict,
    single_root_character,
    solve_exp_poly,
)
from .induced import (
    InducedModule,
    ModuleElement,
    OmegaSpec,
    closed_form_bracket,
    get_engine,
    omega_action,
    omega_iso_check,
    quotient_smalldegree,
    reduce_step,
)
from .tailmod import (
    TailModuleSpec,
    ann_bound,
    b_act,
    kac_h,
    mbar_simple,
    verma_simple_upto,
    whittaker_simple,
)
from .tensor import (
    TensorElement,
    TensorSpec,
    annihilating_shift,
    cyclic_reduce,
    general_tensor_map,
    iso_decide,
    restricted_to_tensor,
    simplicity_verdict,
    tensor_act,
)

__all__ = [
    "Scalar",
    "sc",
    "LaurentPoly",
    "lie_bracket",
    "divide_exact",
    "f_adic_decompose",
    "bezout",
    "linear_factor",
    "bernoulli_numbers",
    "faulhaber",
    "faulhaber_sum",
    "neg_faulhaber_sum",
    "VirElement",
    "SubalgebraSpec",
    "vir_bracket",
    "theta",
    "central_defect",
    "twist",
    "codim1_closure_check",
    "ExpPolyCharacter",
    "RestrictedCharacter",
    "single_root_character",
    "restrict",
    "compose",
    "decompose",
    "solve_exp_poly",
    "ModuleElement",
    "InducedModule",
    "get_engine",
    "closed_form_bracket",
    "reduce_step",
    "OmegaSpec",
    "omega_action",
    "omega_iso_check",
    "quotient_smalldegree",
    "TailModuleSpec",
    "b_act",
    "ann_bound",
    "kac_h",
    "verma_simple_upto",
    "mbar_simple",
    "whittaker_simple",
    "TensorSpec",
    "TensorElement",
    "tensor_act",
    "annihilating_shift",
    "cyclic_reduce",
    "simplicity_verdict",
    "iso_decide",
    "general_tensor_map",
    "restricted_to_tensor",
]
