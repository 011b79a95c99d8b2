"""Exception types raised by the solvers and model constructors."""

__all__ = [
    "SolverError",
    "NonFiniteResidual",
    "ResponsivenessViolation",
    "MaxSweepsExceeded",
    "IrreducibilityViolation",
    "UnsupportedFrontier",
    "InstanceTooLarge",
    "MaxRoundsExceeded",
    "InternalError",
]


class SolverError(Exception):
    """Base class for all solver-level failures."""


class NonFiniteResidual(SolverError):
    """A residual or coordinate update evaluated to NaN or +/-inf."""


class ResponsivenessViolation(SolverError):
    """A coordinate residual never changes sign: no root can be bracketed."""


class _BudgetExceeded(SolverError):
    """An iteration budget ran out; the trace so far is in ``trace``."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class MaxSweepsExceeded(_BudgetExceeded):
    """The sweep budget ran out before the convergence criterion was met.

    Carries the trace accumulated so far in ``trace``.
    """


class IrreducibilityViolation(SolverError):
    """The nonnegative matrix is reducible; no strictly positive eigenvector."""


class UnsupportedFrontier(SolverError):
    """The operation is undefined for this frontier variant."""


class InstanceTooLarge(SolverError):
    """The instance exceeds a size guard for exhaustive enumeration."""


class MaxRoundsExceeded(_BudgetExceeded):
    """An iterative matching algorithm ran out of rounds.

    Carries a trace in ``trace``: the per-round trace accumulated so far
    when the caller asked for one, otherwise the last state alone, in a
    one-element list (for ``dalm``: the last availability matrix).
    """


class InternalError(SolverError):
    """An internal consistency check failed; indicates a bug, not bad input."""
