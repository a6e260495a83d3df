"""Exception types shared across the package."""


class CovsteerError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CovsteerError, ValueError):
    """Input outside the contract of an operation (times, shapes, grids)."""


class ConfigError(CovsteerError, ValueError):
    """Invalid run configuration; message carries the offending field path."""


class DefinitenessError(CovsteerError):
    """A matrix required to be positive definite is not.

    Carries the smallest eigenvalue seen so callers can report how far
    from definiteness the input was.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class SingularMatrixError(CovsteerError):
    """A matrix required to be invertible is singular."""


class ConjugatePointError(SingularMatrixError):
    """The Hamiltonian flow reaches a conjugate point inside the horizon.

    Past it the expected cost is unbounded below, so no optimal law exists.
    interval is the first grid interval (t_k, t_k+1) that brackets it.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ConditioningError(CovsteerError):
    """A matrix is too ill-conditioned to invert reliably."""


class ControllabilityError(CovsteerError):
    """The system fails the reachability-Gramian controllability check."""


class UnsupportedDimensionError(CovsteerError):
    """Operation only defined for a specific state dimension."""


class BoundaryResidualError(CovsteerError):
    """Solver finished but the boundary residual exceeds tolerance.

    The (suspect) solution is attached for inspection.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
