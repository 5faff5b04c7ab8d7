"""Exception types shared across the package."""


class GupnlseError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GupnlseError):
    """Argument left the validity domain of a deformation function.

    Raised e.g. when z >= 1/(4 beta) where the induced nonlinearity W
    turns complex, or when w is evaluated past its increasing branch.
    """


class ZeroFieldError(GupnlseError):
    """Wavefunction norm too small to normalize."""


class SupportError(GupnlseError):
    """Grid does not adequately cover the support of a state or density."""


class CommensurabilityError(GupnlseError):
    """Wavevector does not fit an integer number of periods in the box."""


class ConvergenceError(GupnlseError):
    """Iterative solver failed to reach its tolerance."""


class NodeError(GupnlseError):
    """Phase unwrapping would cross a near-zero of |psi|."""


class ParseError(GupnlseError):
    """Malformed configuration document."""


class ValidationError(GupnlseError, ValueError):
    """Argument or configuration value violates a precondition.  The value
    types raise it from their own checks, which the command line reuses by
    building them; as a ValueError, it is also caught as the standard type."""
