"""Exception types shared across the toolkit."""

__all__ = ["ToolkitError", "DomainError", "GridMismatchError", "SingularityError",
           "HypothesisError", "ConvergenceError", "ContractError"]


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematically admissible range."""


class GridMismatchError(ToolkitError, ValueError):
    """Two gridded objects do not live on the same node set."""


class SingularityError(ToolkitError, ValueError):
    """A derived quantity is undefined (division by zero in an exponent formula)."""


class HypothesisError(ToolkitError, ValueError):
    """An exponent field violates the structural hypotheses required by an operation."""


class ConvergenceError(ToolkitError, RuntimeError):
    """An iterative routine failed to reach its tolerance within its iteration cap."""


class ContractError(ToolkitError, ValueError):
    """An input violates a stated precondition (e.g. boundary condition not satisfied)."""
