"""Exception hierarchy shared across the package."""


class HypwalkError(Exception):
    """Base class for all package errors."""


class ModelMismatchError(HypwalkError, ValueError):
    """Operands belong to different group models."""


class ValidationError(HypwalkError, ValueError):
    """A walk or config failed hard validation."""


class BudgetExceededError(HypwalkError, RuntimeError):
    """A state-count, radius or step budget was exhausted."""


class SolverError(HypwalkError, RuntimeError):
    """Linear solve failed or did not converge."""


class DivergenceError(SolverError):
    """Weighted Green solve diverged (z outside the convergence region)."""


class BoundaryTimeout(BudgetExceededError):
    """Boundary sampling hit the step budget before stabilizing.

    Not fatal: callers may retry with a fresh stream.  Carries the number
    of steps used and the stream id.
    """

    def __init__(self, message, steps=0, stream=0):
        super().__init__(message)
        self.steps = steps
        self.stream = stream


class IndeterminateMembership(HypwalkError, RuntimeError):
    """A boundary prefix is too short to decide cylinder membership."""


class ConfigError(HypwalkError, ValueError):
    """Experiment config violates the schema (CLI exit code 2)."""
