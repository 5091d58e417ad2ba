"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError (and subclasses) exit 2,
MathematicalError exit 3, ResourceCapExceeded exit 4, and an
IllConditionedWarning turned into an error (``python -W error``) exit 3.
"""


class DeconvError(Exception):
    """Base class for all package errors."""


class ConfigError(DeconvError):
    """Malformed configuration, observable, measurement or report input."""


class ParseError(ConfigError):
    """Text input that failed to parse; message includes line/column."""


class ResourceCapExceeded(DeconvError):
    """Requested qubit count exceeds a documented dense-representation cap."""


class MathematicalError(DeconvError):
    """A mathematically invalid request (non-invertible map, bad state, ...)."""


class DimensionMismatch(MathematicalError, ValueError):
    """Operands act on different Hilbert spaces."""


class NotTracePreserving(MathematicalError, ValueError):
    """Kraus set or transfer matrix violates trace preservation."""


class InvalidProbability(MathematicalError, ValueError):
    """Probability vector with negative entries or wrong normalization."""


class InvalidCorrelation(MathematicalError, ValueError):
    """Correlation parameter outside [0, 1]."""


class InvalidState(MathematicalError, ValueError):
    """Density matrix input that is not unit-trace positive semidefinite,
    or an expectation value corrupted beyond numerical tolerance."""


class NotPauliDiagonal(MathematicalError, ValueError):
    """Channel required to have a diagonal transfer matrix does not."""


class NonInvertibleChannel(MathematicalError):
    """A needed diagonal transfer-matrix entry is (numerically) zero."""


class SingularPTM(MathematicalError):
    """Transfer matrix has no numerical inverse."""


class MissingMeasurement(MathematicalError):
    """A required noisy expectation value was not supplied."""


class IdentityProbe(MathematicalError, ValueError):
    """Probe state requested for the identity basis element (k = 0)."""


class NonUnitalChannel(MathematicalError):
    """Channel does not preserve the maximally mixed state."""


class ProbabilityOutOfRange(MathematicalError):
    """Sampling probability derived from an expectation value outside [-1, 1]."""


class IllConditionedWarning(UserWarning):
    """Transfer-matrix inversion requested on an ill-conditioned matrix, or
    deconvolution weights that amplify the observable beyond the threshold."""
