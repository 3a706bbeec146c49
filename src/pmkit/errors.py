"""Exception types shared across the package."""


class PmkitError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(PmkitError):
    """A pivot fell below the singularity threshold during elimination."""


class NoConvergenceError(PmkitError):
    """The eigenvalue iteration failed to converge or verify."""


class InvalidIndexError(PmkitError):
    """An index set member is out of range, duplicated, or empty."""


class DimensionTooLargeError(PmkitError):
    """The matrix dimension exceeds the documented cap for this operation."""


class PreconditionViolatedError(PmkitError):
    """A documented operation precondition does not hold for the input."""


class NotConjugationClosedError(PmkitError):
    """A candidate spectrum has a non-real value without its conjugate."""


class ZeroElementInP0CheckError(PmkitError):
    """The P0 wedge bound requires every value to be nonzero."""


class NotAPSetError(PmkitError):
    """The candidate spectrum is not a P-set."""


class NotAPMatrixError(PmkitError):
    """The input matrix fails the principal-minor positivity test."""


class NonPositiveDiagonalError(PmkitError):
    """A diagonal factor must have strictly positive diagonal entries."""


class RuleUndefinedError(PmkitError):
    """The operator coefficient rule is unknown or missing parameters."""


class NonDiagonalSpecError(PmkitError):
    """The operation requires a diagonal operator specification."""


class NonPositiveEigenvalueError(PmkitError):
    """A diagonal coefficient expected to be positive is not."""


class NonPositiveSectionError(PmkitError):
    """The operation requires an entrywise positive finite section."""


class PreconditionNotEstablishedError(PmkitError):
    """Neither precondition oracle certified the input pair."""


class LcpCycleError(PmkitError):
    """Lemke pivoting came back to a basis it had left (anomaly)."""


class FloatRangeError(PmkitError):
    """A reported float left the float64 range: an LCP solve's z or w
    entry or an eigenvalue came out inf or NaN, an LCP matrix's row sums
    overflow, or an exact quotient (a kernel refutation's d_i) is too large
    for a float, so no result can be reported from it."""


class ValidationFailedError(PmkitError):
    """A generated matrix failed its own class oracle (generator bug)."""


class UnknownSuiteError(PmkitError):
    """The requested property-suite name is not defined."""
