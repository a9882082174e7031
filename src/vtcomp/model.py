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

from .accum import ordered_sums
from .errors import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
)


# Elements per finiteness block in ``validate``; a block never splits a frame.
_FINITE_BLOCK = 1 << 16


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TokenTensor:
    """A frames x tokens x channels block of float32 token embeddings.

    ``values`` is C-contiguous with index order (frame, token, channel); the
    flat view is therefore the canonical row-major serialization order.  The
    raw constructor performs no checks so that deliberately broken tensors
    can be built for validation tests; use :meth:`from_array` /
    :meth:`from_flat` to construct validated instances.
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
        A value past the float32 range becomes inf, which validation rejects.
        """
        with np.errstate(over="ignore"):
            values = np.array(array, dtype=np.float32, order="C", copy=True)
        tensor = cls(_freeze(values))
        validate(tensor)
        return tensor

    @classmethod
    def from_flat(cls, frames: int, tokens_per_frame: int, dim: int, data) -> "TokenTensor":
        """Build from a row-major flat buffer: check the length exactly, then
        copy and validate through :meth:`from_array`."""
        with np.errstate(over="ignore"):  # inf, rejected as in from_array
            flat = np.asarray(data, dtype=np.float32).reshape(-1)
        expected = frames * tokens_per_frame * dim
        if flat.size != expected:
            raise DimensionMismatchError(
                f"flat data has {flat.size} values, expected "
                f"{frames}*{tokens_per_frame}*{dim} = {expected}"
            )
        return cls.from_array(flat.reshape(frames, tokens_per_frame, dim))


def validate(tensor: TokenTensor) -> None:
    """Check every tensor invariant, raising on the first violation.

    Raises ``DimensionMismatchError`` for a bad shape or dtype and
    ``NonFiniteError`` (carrying the first offending flat index) when any
    element is NaN or infinite.
    """
    values = tensor.values
    if values.ndim != 3:
        raise DimensionMismatchError(f"expected 3 axes, got {values.ndim}")
    if values.dtype != np.float32:
        raise DimensionMismatchError(f"expected float32 data, got {values.dtype}")
    if min(values.shape) < 1:
        raise DimensionMismatchError(f"every axis must be >= 1, got shape {values.shape}")
    # A block of whole frames at a time, so the mask stays about one frame's
    # size rather than the whole tensor's.
    frame_size = values.shape[1] * values.shape[2]
    step = max(1, _FINITE_BLOCK // frame_size)
    for t in range(0, values.shape[0], step):
        finite = np.isfinite(values[t : t + step])
        if not finite.all():
            raise NonFiniteError(t * frame_size + int(np.argmin(finite.reshape(-1))))


def cosine(a, b) -> float:
    """Cosine similarity with a zero-norm convention and clamped output.

    Accumulates the dot product and squared norms left to right over the
    channels in float64.  If either vector has zero norm the similarity is
    defined as 0.0 (neutral), and the result is clamped to [-1, 1] so that
    floating-point overshoot cannot leak out of the mathematical range.
    """
    av = np.asarray(a, dtype=np.float64).reshape(-1)
    bv = np.asarray(b, dtype=np.float64).reshape(-1)
    if av.size != bv.size:
        raise LengthMismatchError(f"vector lengths differ: {av.size} vs {bv.size}")
    if av.size == 0:
        return 0.0
    na = math.sqrt(float(ordered_sums(av * av)))
    nb = math.sqrt(float(ordered_sums(bv * bv)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    s = float(ordered_sums(av * bv)) / (na * nb)
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
    scores in combined mode.
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
        object.__setattr__(self, "adjustment", Adjustment(self.adjustment))
        object.__setattr__(self, "frame_aggregation", Aggregation(self.frame_aggregation))
        object.__setattr__(self, "score_mode", ScoreMode(self.score_mode))
        if not (0.0 < self.ratio <= 1.0):
            raise ConfigError(f"ratio must be in (0, 1], got {self.ratio}")
        for name in ("temperature", "epsilon"):
            if not 0.0 < (value := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name in ("alpha", "beta"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite, got {value}")
        # |alpha*u_f + beta*u_v| <= fl(alpha + beta): a finite sum cannot overflow.
        if not 0.0 < (total := self.alpha + self.beta) < math.inf:
            raise ConfigError(f"alpha + beta must be positive and finite, got {total}")
        object.__setattr__(self, "min_tokens_per_frame",
                           int_at_least("min_tokens_per_frame", self.min_tokens_per_frame, 1))
        if self.window != "global":
            object.__setattr__(self, "window", int_at_least("window", self.window, 1))


def int_at_least(name: str, value, low: int) -> int:
    """``value`` as a plain int >= ``low``; numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")
    return int(value)


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
        cuts = np.cumsum(np.count_nonzero(keep, axis=1))[:-1]
        return cls(tuple(np.split(index, cuts)), tuple(np.split(rows, cuts)))

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
        width = int(counts.max()) if len(counts) else 0
        dim = self.compressed[0].shape[1]
        out = np.zeros((self.frames, width, dim), dtype=np.float32)
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
