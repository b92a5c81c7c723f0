"""Exception types shared across the package."""


class TSpreadError(ValueError):
    """Base class for domain errors."""


class InvalidMonomialError(TSpreadError):
    """Index tuple is not strictly increasing or leaves [1, n]."""


class NotTSpreadError(TSpreadError):
    """Monomial fails the t-spread gap condition."""


class IdealFormatError(TSpreadError):
    """Ideal JSON is not an object with int ``n``, ``t`` and index lists ``gens``."""


class NotStronglyStableError(TSpreadError):
    """Ideal is not t-spread strongly stable.

    Carries a witness: ``(u, j, i, result)`` where the admissible move
    x_i * (u / x_j) produces ``result``, which is missing from the ideal.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConstructionInapplicableError(TSpreadError):
    """Input (n, t, ell1) lies outside the construction's hypotheses; the
    message names the failing condition."""


class InvariantViolationError(RuntimeError):
    """Internal self-check failed; indicates a bug, never bad user input."""


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration hit a search-budget cap; results are partial."""
