"""Exception hierarchy shared across the package.

Two families map onto the CLI exit codes: validation problems (bad
parameters, malformed configs, unsupported model structure) exit with 2,
numerical problems (eigensolver failures, ill-conditioned contours,
undefined derivatives) exit with 3.
"""


class ValidationError(ValueError):
    """Invalid parameters, config, or model structure."""


class DimensionCapError(ValidationError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class UnsupportedStructureError(ValidationError):
    """Model lacks the structure an operation requires (e.g. not bipartite)."""


class NumericalError(RuntimeError):
    """A numerical computation failed or produced inconsistent results."""


class ConvergenceError(NumericalError):
    """Eigensolver or refinement loop failed to converge."""


class SingularModelError(NumericalError):
    """Degenerate coupling combination (vanishing leading coefficient)."""


class AtTransitionError(NumericalError):
    """Quantity undefined exactly at a phase transition (zero on contour)."""


class DerivativeIllDefinedError(NumericalError):
    """Eigenvalue crossing inside a finite-difference stencil."""


class DegenerateSteadyStateError(DerivativeIllDefinedError):
    """Steady-state eigenvalue is degenerate, so no steady state exists."""


class BoundUndefinedError(NumericalError):
    """Fisher matrix too close to singular to invert for a precision bound."""
