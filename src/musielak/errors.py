"""The toolkit's two exception types.

``DomainError``, a ``ValueError``, is an input error: data outside the
admissible range, objects on different lattices, or data that break a
hypothesis of the paper (1 < p < q < N, q < p*, bounded mu, a subcritical
window).  The command line exits 2 on it.  ``ConvergenceError``, a
``RuntimeError``, is an iteration that missed its tolerance within its cap.
The command line exits 1 on it.
"""

__all__ = ["DomainError", "ConvergenceError"]


class DomainError(ValueError):
    """An input lies outside the range where the operation is defined."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance within its iteration cap."""
