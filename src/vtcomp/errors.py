"""Exception types raised across the package.

Every error carries a short stable ``kind`` string that the CLI prints as
``error: <kind>: <message>`` on stderr, so scripts can match on it.
"""


class VtcompError(Exception):
    """Base class for all package errors."""

    kind = "error"


class ConfigError(VtcompError):
    """A configuration value violates its invariant."""

    kind = "flag"


class DimensionMismatchError(VtcompError):
    """A tensor's shape or layout is unusable.

    Raised when flat data length does not equal frames * tokens * dim, for
    a tensor that is not 3-axis float32 or has an empty axis, and when
    writing a ``.vtok`` whose axis exceeds its header's 2^32 - 1.
    """

    kind = "dimension-mismatch"


class NonFiniteError(VtcompError):
    """A tensor element is NaN or infinite."""

    kind = "non-finite"

    def __init__(self, flat_index: int, message: str | None = None):
        self.flat_index = flat_index
        super().__init__(message or f"non-finite value at flat index {flat_index}")


class LengthMismatchError(VtcompError):
    """Two vectors that must share a length do not."""

    kind = "length-mismatch"


class ShapeMismatchError(VtcompError):
    """Arrays whose shapes must agree (score grids, pools, counts) do not."""

    kind = "shape-mismatch"


class WindowOutOfRangeError(VtcompError):
    """Pooling window is not in 1..frames."""

    kind = "window-out-of-range"


class KExceedsMError(VtcompError):
    """Requested top-k is larger than the number of candidates."""

    kind = "k-exceeds-m"


class VtokFormatError(VtcompError):
    """Base class for binary tensor file format errors."""

    kind = "io"


class BadMagicError(VtokFormatError):
    """File does not start with the expected magic bytes."""

    kind = "bad-magic"


class BadVersionError(VtokFormatError):
    """File declares an unsupported format version."""

    kind = "bad-version"


class TruncatedPayloadError(VtokFormatError):
    """File is shorter than its header-declared payload."""

    kind = "truncated-payload"


class OversizedPayloadError(VtokFormatError):
    """File is longer than its header-declared payload."""

    kind = "oversized-payload"
