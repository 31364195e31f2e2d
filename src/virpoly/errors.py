"""Exception types raised by the algebra and module engines."""


class VirpolyError(ValueError):
    """Base class for all domain errors."""


class NotDivisible(VirpolyError):
    """Exact Laurent division requested but the divisor does not divide."""


class BadModulus(VirpolyError):
    """Modulus polynomial violates the monic / nonzero-constant-term contract."""


class NotCoprime(VirpolyError):
    """Bezout cofactors requested for polynomials with a common factor."""


class NotInIdeal(VirpolyError):
    """Character evaluation requested outside the defining ideal."""


class RootCollision(VirpolyError):
    """Restriction multiplier vanishes at the character's root."""


class SingularSystem(VirpolyError):
    """An exact linear solve hit a singular matrix (inconsistent input)."""


class ZeroLambda(VirpolyError):
    """A nonzero twist / root parameter was required."""


class ZeroVector(VirpolyError):
    """Leading index of the zero vector is undefined."""


class IndexOutOfSubalgebra(VirpolyError):
    """Basis index below the cutoff of a restricted subalgebra."""


class HypothesisViolation(VirpolyError):
    """Closed-form or reduction lemma hypotheses do not hold for the input."""


class SearchExhausted(VirpolyError):
    """An index search window was exhausted without success."""


class DepthTooSmall(VirpolyError):
    """Slice verification requested at a vacuous depth."""
