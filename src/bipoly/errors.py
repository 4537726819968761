"""Exception hierarchy shared by all bipoly modules.

Everything derives from BipolyError so callers can catch the whole family.
The CLI maps these onto exit codes: parameter/validation problems -> 1,
decode failures -> 2, impossible simulation configs -> 3.
"""


class BipolyError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeModulusError(BipolyError):
    """The requested field order is composite (or out of the supported range)."""


class ZeroInverseError(BipolyError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatchError(BipolyError):
    """Matrix operands have incompatible shapes."""


class ParameterError(BipolyError):
    """A scheme parameter violates one of its invariants."""


class IndivisibleDimensionsError(BipolyError):
    """Matrix dimensions are not divisible by the requested partition counts."""


class InvalidOrderError(BipolyError):
    """A derivative order outside [0, m-1] was requested."""


class FieldTooSmallError(BipolyError):
    """The field has too few elements to give every worker a usable point."""


class NotEnoughResponsesError(BipolyError):
    """Fewer results than the recovery threshold were offered to the decoder."""


class OrderViolationError(BipolyError):
    """A response set breaks the in-order computation contract for a worker."""


class ResponseContractError(BipolyError):
    """A response set is inconsistent, e.g. one worker reports two points."""


class DecodeSingularError(BipolyError):
    """The interpolation matrix is singular for the drawn evaluation points."""


class BudgetTooSmallError(BipolyError):
    """An upload budget below two matrix partitions cannot host any scheme."""


class UnsupportedRegimeError(BipolyError):
    """Baseline threshold parameters fall outside the tabulated cases."""


class DuplicatePointsError(BipolyError):
    """Evaluation points expected to be pairwise distinct are not."""


class TooLargeToEnumerateError(BipolyError):
    """An exhaustive enumeration was requested for an infeasible state space."""


class IncompletableError(BipolyError):
    """The worker pool cannot produce enough sub-task results to decode."""


class WireFormatError(BipolyError):
    """Serialized share/result bytes are malformed."""
