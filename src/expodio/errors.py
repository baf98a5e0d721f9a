"""Exception hierarchy shared by all expodio modules."""


class ExpodioError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ExpodioError):
    """Instance document is structurally malformed."""


class ValidationError(ExpodioError):
    """Instance document is well-formed but violates a system invariant."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ZeroInverse(ExpodioError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class NotInvertible(ExpodioError):
    """A nonzero element had no inverse: the promised-irreducible minimal
    polynomial is in fact reducible."""


class IsRootOfUnity(ExpodioError):
    """Operation requires a base that is not a root of unity."""


class NotASolution(ExpodioError):
    """Candidate vector does not solve the system."""


class InvalidInstance(ExpodioError):
    """Combinatorial problem instance violates its defining constraints."""


class ResourceLimitExceeded(ExpodioError):
    """Candidate or time budget was exhausted before the search space."""


class TooManyVariables(ExpodioError):
    """Variable count exceeds the configured exhaustive-search maximum."""


class InternalError(ExpodioError):
    """An internal invariant failed: a bug in expodio, not in the input."""
