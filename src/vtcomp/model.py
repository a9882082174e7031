"""Shared data types and numeric conventions.

Tensors are dense frames x tokens x channels blocks of 32-bit floats.  All
internal accumulation is performed in 64-bit with a fixed, documented order
(see :mod:`vtcomp.accum`), so results are reproducible bit-for-bit across
runs and thread counts.  Every type here is immutable after construction and
safe to share read-only between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import accum
from .errors import (
    MAX_AXIS,
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
    array_in,
    enum_in,
    first_non_finite,
    int_in,
    shown,
)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TokenTensor:
    """A frames x tokens x channels block of float32 token embeddings.

    Index order is (frame, token, channel), so the C-order flat view is the
    canonical row-major serialization order.  :meth:`from_array` and
    :meth:`from_flat` copy and validate: use them for a tensor the caller
    keeps.  The raw constructor wraps ``values`` with no copy and no check,
    the plug-in form for one call: every reader of a tensor checks it by
    the tensor rule (:func:`token_values`, :func:`finite_frame_sums`).
    """

    values: np.ndarray

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def tokens_per_frame(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    @classmethod
    def from_array(cls, array) -> "TokenTensor":
        """Build from any (T, M, D') array-like, casting to float32.

        The data is always copied so the tensor cannot alias caller memory.
        An array-like whose ``__array__`` honours ``copy=True`` by returning
        a new array is not copied twice on numpy >= 2: that array becomes
        the values.  numpy 1.x copies it once more, to the same bytes.  A
        value past the float32 range becomes inf, which validation rejects.
        """
        with np.errstate(over="ignore"):
            values = np.array(array, dtype=np.float32, order="C", copy=True)
        tensor = cls(_freeze(values))
        validate(tensor)
        return tensor

    @classmethod
    def from_flat(cls, frames: int, tokens_per_frame: int, dim: int, data) -> "TokenTensor":
        """Build from a row-major flat buffer: check the axes and the length
        exactly, then copy and validate through :meth:`from_array`.

        Each axis goes through :func:`int_in` first: a bool, a non-integer or
        an int below 1, of any size, is a ``DimensionMismatchError`` naming
        the axis, as is a length other than the axes' product.
        """
        axes = {"frames": frames, "tokens_per_frame": tokens_per_frame, "dim": dim}
        shape = tuple(int_in(name, n, 1, error=DimensionMismatchError) for name, n in axes.items())
        with np.errstate(over="ignore"):  # inf, rejected as in from_array
            flat = np.asarray(data, dtype=np.float32).reshape(-1)
        if flat.size != (expected := math.prod(shape)):
            raise DimensionMismatchError(
                f"flat data has {flat.size} values, expected frames*tokens_per_frame*dim"
                f" = {'*'.join(map(shown, shape))} = {shown(expected)}"
            )
        return cls.from_array(flat.reshape(shape))


def validate(tensor: TokenTensor) -> None:
    """Check every tensor invariant, raising on the first violation.

    Raises ``DimensionMismatchError`` for a bad shape or dtype and
    ``NonFiniteError`` (carrying the first offending flat index) when any
    element is NaN or infinite.
    """
    values = token_values(tensor, cast=False)
    if min(values.shape) < 1:
        raise DimensionMismatchError(f"every axis must be >= 1, got shape {values.shape}")
    finite_frame_sums(values)


def token_values(tensor: TokenTensor, cast: bool = True) -> np.ndarray:
    """The layout rule: ``tensor``'s values as one C-ordered float32
    (T, M, D') array, the values themselves when they already are one.

    Values of any other number of axes are a ``DimensionMismatchError``.  So
    is a dtype other than float32, unless ``cast`` allows a real one: it is
    then copied as :meth:`TokenTensor.from_array` copies it, a value past the
    float32 range becoming inf.
    """
    values = np.asarray(tensor.values)
    if values.ndim != 3:
        raise DimensionMismatchError(f"expected 3 axes, got {values.ndim}")
    if values.dtype != np.float32 and not (cast and values.dtype.kind in "biuf"):
        raise DimensionMismatchError(f"expected float32 data, got {values.dtype}")
    with np.errstate(over="ignore"):  # inf, rejected by finite_frame_sums
        return np.ascontiguousarray(values, dtype=np.float32)


def finite_frame_sums(values: np.ndarray) -> np.ndarray:
    """The finiteness rule: the (T, D') float64 ``accum.frame_token_sums``
    of :func:`token_values`' array, or a ``NonFiniteError`` at the C-order
    flat index of the first NaN or +-inf element.

    Such an element makes its frame's float64 sum non-finite, and a finite
    float32 sum over M <= 2**32 tokens cannot overflow float64, so only the
    first non-finite frame is searched.
    """
    with np.errstate(invalid="ignore"):  # the numpy body warns on inf + -inf
        frame_sums = accum.frame_token_sums(values)
    if (index := first_non_finite(frame_sums)) is not None:
        t = index // frame_sums.shape[1]
        raise NonFiniteError(t * values[t].size + first_non_finite(values[t]))
    return frame_sums


def cosine(a, b) -> float:
    """Cosine similarity with a zero-norm convention and clamped output.

    Accumulates the dot product and squared norms left to right over the
    channels in float64, each vector first scaled by the power of two of its
    largest magnitude (exact; no square overflows or underflows).  A
    zero-norm vector gives 0.0 (neutral), and the result is clamped to
    [-1, 1] so floating-point overshoot cannot leak out of the range.  Each
    vector, of any shape, is read by the array rule (:func:`~vtcomp.errors.array_in`):
    a NaN or +-inf element raises ``NonFiniteError`` naming the vector (``a``
    or ``b``) and the flat index of its first such element.
    """
    av, bv = array_in("a", a).reshape(-1), array_in("b", b).reshape(-1)
    if av.size != bv.size:
        raise LengthMismatchError(f"vector lengths differ: {av.size} vs {bv.size}")
    if av.size == 0:
        return 0.0
    av, bv = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (av, bv))
    na, nb = (math.sqrt(float(accum.ordered_sums(v * v))) for v in (av, bv))
    if na == 0.0 or nb == 0.0:
        return 0.0
    s = float(accum.ordered_sums(av * bv)) / (na * nb)
    return min(1.0, max(-1.0, s))


class Adjustment(str, Enum):
    """How per-frame retention ratios are derived from the preset ratio."""

    ADAPTIVE = "adaptive"
    UNIFORM = "uniform"


class Aggregation(str, Enum):
    """How per-token video scores aggregate into one score per frame."""

    MEAN = "mean"
    MAX = "max"


class ScoreMode(str, Enum):
    """Which per-token score drives the top-k selection."""

    COMBINED = "combined"
    FRAME_ONLY = "frame_only"
    VIDEO_ONLY = "video_only"
    POSITIVE_FRAME = "positive_frame"
    POSITIVE_VIDEO = "positive_video"


@dataclass(frozen=True)
class RetentionConfig:
    """Knobs for the two-stage compression pipeline.

    ``ratio`` is the average fraction of tokens kept per frame, in (0, 1].
    ``temperature`` sharpens the frame-weight softmax and ``epsilon``
    stabilizes its denominator.  ``window`` is either ``"global"`` (one
    pooled vector for the whole video) or a chunk size in 1..frames.
    ``alpha``/``beta`` weight the frame-level and video-level uniqueness
    scores in combined mode.  Real fields are stored as plain floats within
    their ``REAL_BOUNDS`` entry (:func:`real_in`), with the pair rule of
    :func:`weight_sum_in`, integer fields as plain ints (:func:`int_in`) and
    choice fields as their ``Enum`` members (:func:`enum_in`): a bool, a
    non-number, NaN, +-inf, an int too large for a float, a value out of
    range or an unknown choice is a ``ConfigError`` that names the field.
    """

    ratio: float = 0.25
    temperature: float = 0.01
    epsilon: float = 1e-8
    window: int | str = "global"
    adjustment: Adjustment = Adjustment.ADAPTIVE
    frame_aggregation: Aggregation = Aggregation.MEAN
    score_mode: ScoreMode = ScoreMode.COMBINED
    alpha: float = 1.0
    beta: float = 1.0
    min_tokens_per_frame: int = 1

    def __post_init__(self):
        for name, kind in (("adjustment", Adjustment), ("frame_aggregation", Aggregation),
                           ("score_mode", ScoreMode)):
            object.__setattr__(self, name, enum_in(name, getattr(self, name), kind))
        for name in REAL_BOUNDS:
            object.__setattr__(self, name, real_in(name, getattr(self, name)))
        weight_sum_in(self.alpha, self.beta)
        object.__setattr__(self, "min_tokens_per_frame",
                           int_in("min_tokens_per_frame", self.min_tokens_per_frame, 1))
        if self.window != "global":
            object.__setattr__(self, "window", int_in("window", self.window, 1))


# The bound of each real RetentionConfig field, written once: a test on the
# finite float and the phrase that states it.  The stage functions that take
# one of these values as a parameter check it by the same entry.
REAL_BOUNDS = {
    "ratio": (lambda x: 0.0 < x <= 1.0, "in (0, 1]"),
    "temperature": (lambda x: x > 0.0, "positive"),
    "epsilon": (lambda x: x > 0.0, "positive"),
    "alpha": (lambda x: x >= 0.0, "non-negative"),
    "beta": (lambda x: x >= 0.0, "non-negative"),
}


def real_in(field: str, value, name: str | None = None) -> float:
    """``value`` as a plain float within ``field``'s bound in ``REAL_BOUNDS``:
    :func:`finite_float` first, then the bound.  Each ``ConfigError`` names
    ``name``, the parameter that took the value (the field by default)."""
    name = name or field
    number = finite_float(name, value)
    holds, bound = REAL_BOUNDS[field]
    if not holds(number):
        raise ConfigError(f"{name} must be {bound}, got {number}")
    return number


def weight_sum_in(alpha: float, beta: float) -> None:
    """The pair rule on two checked weights: 0 < alpha + beta < inf."""
    # |alpha*u_f + beta*u_v| <= fl(alpha + beta): a finite sum cannot overflow.
    if not 0.0 < (total := alpha + beta) < math.inf:
        raise ConfigError(f"alpha + beta must be positive and finite, got {total}")


def finite_float(name: str, value) -> float:
    """``value`` as a plain finite float; a bool, a non-number, NaN, +-inf or
    an int too large for a float is a ``ConfigError`` that names the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int or fraction past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite as a float, got {number}")
    return number


@dataclass(frozen=True)
class BudgetAllocation:
    """Stage-1 output: per-frame retention ratios and integer token budgets.

    ``per_frame_ratio`` keeps the raw ratio formula output (it may exceed 1
    for a dominant frame); only the integer ``per_frame_count`` is clamped to
    [min_tokens, M].  The scores behind the budgets are in :class:`ScoreReport`.
    """

    per_frame_ratio: np.ndarray
    per_frame_count: np.ndarray

    def __post_init__(self):
        _freeze(self.per_frame_ratio)
        _freeze(self.per_frame_count)

    @property
    def frames(self) -> int:
        return self.per_frame_ratio.shape[0]

    @property
    def total_kept(self) -> int:
        return int(self.per_frame_count.sum())


@dataclass(frozen=True)
class CompressedSelection:
    """Per-frame kept token indices plus the extracted token vectors.

    Indices within a frame are strictly increasing; extracted vectors are
    bit-identical float32 copies of the source tokens, frame t holding
    exactly counts[t] of them.
    """

    kept_indices: tuple[np.ndarray, ...]
    compressed: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in self.kept_indices + self.compressed:
            _freeze(arr)

    @classmethod
    def from_mask(cls, values: np.ndarray, keep: np.ndarray) -> "CompressedSelection":
        """Select the true cells of a (T, M) keep mask from (T, M, D') values.

        One boolean gather copies every kept row at once; frame t's
        ``kept_indices`` and ``compressed`` are read-only views of that
        frozen row buffer and of its frozen token-index buffer.
        """
        index = _freeze(np.flatnonzero(keep) % keep.shape[1])
        rows = _freeze(values[keep])
        edges = [0, *np.cumsum(np.count_nonzero(keep, axis=1)).tolist()]
        return cls(*(tuple(buf[a:b] for a, b in zip(edges, edges[1:])) for buf in (index, rows)))

    @property
    def frames(self) -> int:
        return len(self.kept_indices)

    @property
    def counts(self) -> np.ndarray:
        return np.array([idx.shape[0] for idx in self.kept_indices], dtype=np.int64)

    @property
    def total_kept(self) -> int:
        return int(self.counts.sum())

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Return a dense (T, max_k, D') float32 block plus per-frame counts.

        Rows past a frame's own count are zero padding with no meaning;
        consumers must use the returned counts (or the sidecar indices) to
        ignore them.
        """
        counts = self.counts
        dim = self.compressed[0].shape[1] if self.compressed else 0
        out = np.zeros((self.frames, int(counts.max(initial=0)), dim), dtype=np.float32)
        for t, block in enumerate(self.compressed):
            out[t, : block.shape[0]] = block
        return out, counts


@dataclass(frozen=True)
class ScoreReport:
    """Every uniqueness score the pipeline computed, for export/inspection.

    ``video_score``/``frame_score``/``combined_score`` are (T, M) grids;
    ``frame_uniqueness`` and ``frame_weight`` are the per-frame stage-1
    quantities.  Video and frame scores lie in [-1, 1].
    """

    video_score: np.ndarray
    frame_score: np.ndarray
    combined_score: np.ndarray
    frame_uniqueness: np.ndarray
    frame_weight: np.ndarray

    def __post_init__(self):
        for arr in (self.video_score, self.frame_score, self.combined_score,
                    self.frame_uniqueness, self.frame_weight):
            _freeze(arr)

    @property
    def frames(self) -> int:
        return self.video_score.shape[0]
