"""Exception types shared across the package."""


class TacnodeError(Exception):
    """Base class for numerical and I/O failures raised by this package."""


class SingularResolventError(TacnodeError):
    """det(I - K) fell below the supported floor; solves would lose too many digits."""


class UnsupportedRangeError(TacnodeError):
    """Requested shift or Airy argument is outside the supported range."""


class TruncationInsufficientError(TacnodeError):
    """A truncated integral still carries mass beyond its cutoff."""


class MultiTimeUnsupportedError(TacnodeError):
    """Operation is defined for equal times only."""


class MismatchedParamsError(TacnodeError):
    """A paired-parameter operation received an inconsistent pair."""


class CacheInvalidError(TacnodeError):
    """A cached resolvent file failed validation and must be rebuilt."""
