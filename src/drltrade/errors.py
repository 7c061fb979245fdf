"""Exception types shared across the package.

Validation problems subclass ValueError, runtime/IO problems subclass
RuntimeError, so callers can catch broadly without importing this module.
"""


class MalformedRow(ValueError):
    """A kline row is missing a field or carries a non-numeric value."""


class InvariantViolation(ValueError):
    """Data breaks a structural invariant (e.g. high < low, unordered time)."""


class EmptyInput(ValueError):
    """An operation received zero rows where at least one is required."""


class TooShort(ValueError):
    """A series is shorter than the operation's minimum length."""


class EmptyRange(ValueError):
    """A fetch range contained no bars."""


class NetworkError(RuntimeError):
    """An HTTP request failed after bounded retries."""


class RateLimited(NetworkError):
    """The exchange kept returning HTTP 429 past the retry budget."""


class PeriodZero(ValueError):
    """An indicator period must be >= 1."""


class RangeTooSmall(ValueError):
    """A fit range must span at least two rows."""


class RangeTouchesWarmup(ValueError):
    """A fit range may not include warm-up rows with undefined values."""


class ColumnMismatch(ValueError):
    """Feature columns do not match the normalizer they are used with."""


class WindowUnderflow(ValueError):
    """Not enough history before t to assemble a full observation window."""


class NonPositivePrice(ValueError):
    """Trade execution requires a strictly positive price."""


class SteppedAfterDone(RuntimeError):
    """step() was called on a finished episode."""


class DimensionMismatch(ValueError):
    """Input dimension does not match the network or checkpoint."""


class ShapeMismatch(ValueError):
    """Parameter and gradient shapes disagree in an optimizer step."""


class EmptyBuffer(ValueError):
    """Advantage estimation requires a non-empty rollout."""


class BufferTooSmall(ValueError):
    """The replay buffer has fewer transitions than the warm-up threshold."""


class EmptyDataset(ValueError):
    """An expert dataset ended up with zero (obs, action) pairs."""


class DivergenceDetected(RuntimeError):
    """Training produced a non-finite statistic or parameter; the networks are attached."""

    def __init__(self, message, **artifacts):
        super().__init__(message)
        self.artifacts = artifacts


class ZeroBegin(ValueError):
    """Profit metrics are undefined for a zero begin value."""
