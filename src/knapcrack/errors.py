"""Exception hierarchy shared across the toolkit."""


class KnapcrackError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidInput(KnapcrackError, ValueError):
    """Caller input the library refuses (the CLI's exit 2); a plain ValueError is a bug."""


class DependentColumns(KnapcrackError):
    """A basis operation hit linearly dependent columns."""


class InvalidAlpha(InvalidInput):
    """The LLL quality parameter must satisfy 1/4 < alpha < 1."""


class RankDeficient(KnapcrackError):
    """A coefficient matrix is not of full row rank."""


class SingularE(KnapcrackError):
    """The E block of a kernel decomposition is singular."""


class EscalationExhausted(KnapcrackError):
    """The zero block never appeared, even after enlarging N."""


class InvalidN(InvalidInput):
    """Scaling integer N violates its lower bound."""


class DimensionMismatch(KnapcrackError):
    """Vector/matrix dimensions do not line up."""


class InvalidParams(InvalidInput):
    """Disaggregation parameters must satisfy 0 < t < M."""


class InvalidRow(InvalidInput):
    """Row index outside the system."""


class NotASolution(KnapcrackError):
    """The supplied vector does not solve the equation."""


class SizeLimit(KnapcrackError):
    """An enumeration would exceed its configured cap."""


class GenerationBudgetExceeded(KnapcrackError):
    """Random instance generation ran out of resample attempts."""


class SearchExhausted(KnapcrackError):
    """The t-search ended without finding a binary solution.

    Carries the best short non-binary verdict seen, if any.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ParseError(KnapcrackError):
    """Malformed instance/system text file."""
