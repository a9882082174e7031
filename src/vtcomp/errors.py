"""Exception types raised across the package, and the integer, choice and array checks.

Every error carries a short stable ``kind`` string that the CLI prints as
``error: <kind>: <message>`` on stderr, so scripts can match on it.
:func:`int_in`, :func:`enum_in` and :func:`array_in` live here, beside the
kinds they raise, so that every module (the kernels in :mod:`vtcomp.accum`
included) can check an integer, a choice or an array the same way.
"""

import math
import numbers

import numpy as np


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


def int_in(name: str, value, low=None, high=None, error=ConfigError) -> int:
    """``value`` as a plain int in ``low..high`` (either bound optional), numpy
    integers included.  A bool, a non-integer or an int out of range, of any
    size, is an ``error`` naming the field, its range and the :func:`shown` value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or low is not None and value < low or high is not None and value > high:
        span = (f" in {low}..{high}" if None not in (low, high) else
                f" >= {low}" if low is not None else f" <= {high}" if high is not None else "")
        raise error(f"{name} must be an int{span}, got {shown(value)}")
    return int(value)


def enum_in(name: str, value, kind):
    """``value`` as a member of the ``Enum`` ``kind`` (a member or its value).
    Anything else is a ``ConfigError`` naming the field and its valid values."""
    try:
        return kind(value)
    except ValueError:
        valid = ", ".join(repr(member.value) for member in kind)
        raise ConfigError(f"{name} must be one of {valid}, got {shown(value)}") from None


def array_in(name: str, value, axes: tuple[str, ...] | None = None, shape: tuple | None = None,
             dtype=np.float64) -> np.ndarray:
    """The array rule: ``value`` as one C-ordered ``dtype`` array (float64 by
    default, its own dtype when None), with no copy for one already.

    It must have one axis per name in ``axes`` (any number when None) and,
    when given, the ``shape``: anything else, or a value that is not one
    array of real numbers (a ragged list, complex values), is a
    ``ShapeMismatchError`` naming ``name``.  A NaN or +-inf element is a
    ``NonFiniteError`` at the C-order flat index of the first
    (:func:`first_non_finite`), placed on ``axes``; an array of integers or
    objects holds none.
    """
    try:
        if np.iscomplexobj(value):  # numpy would drop the imaginary parts with a warning
            raise TypeError
        array = np.asarray(value, dtype=dtype, order="C")
    except (OverflowError, TypeError, ValueError):
        raise ShapeMismatchError(f"{name} must be one array of real numbers") from None
    if axes is not None and array.ndim != len(axes) or shape is not None and array.shape != shape:
        wanted = f"shape {shape}" if shape is not None else f"axes ({', '.join(axes)})"
        raise ShapeMismatchError(f"expected {name} with {wanted}, got shape {array.shape}")
    if array.dtype.kind == "f" and (index := first_non_finite(array)) is not None:
        place = "" if axes is None else " (" + ", ".join(
            f"{axis} {i}" for axis, i in zip(axes, np.unravel_index(index, array.shape))) + ")"
        raise NonFiniteError(index, f"non-finite value in {name} at flat index {index}{place}")
    return array


def first_non_finite(array: np.ndarray) -> int | None:
    """The C-order flat index of ``array``'s first NaN or +-inf, None if it has none."""
    finite = np.isfinite(array)
    return None if finite.all() else int(np.argmin(finite))


def shown(value) -> str:
    """``repr(value)``, but an int past 60 digits by its sign and power of ten."""
    big = isinstance(value, numbers.Integral) and abs(int(value)) >= 10**60
    return f"about {'-' * (value < 0)}10**{math.log10(abs(value)):.0f}" if big else repr(value)
