"""Stage 1: frame uniqueness scoring and per-frame budget allocation.

A pooled video summary is compared against every token; tokens that look
unlike the summary are "unique", frames dense in unique tokens get a larger
share of the retention budget.  The softmax weighting keeps the average
retention ratio at the preset value while shifting tokens between frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accum
from .errors import WindowOutOfRangeError
from .model import Aggregation, BudgetAllocation, TokenTensor, _freeze


@dataclass(frozen=True)
class PoolAssignment:
    """Pooled vectors plus the pool index each frame is scored against."""

    vectors: np.ndarray  # (pools, D') float64
    frame_pool_index: np.ndarray  # (T,) int64

    def __post_init__(self):
        _freeze(self.vectors)
        _freeze(self.frame_pool_index)

    def per_frame(self) -> np.ndarray:
        """Expand to one (T, D') row per frame."""
        return self.vectors[self.frame_pool_index]


def window_edges(frames: int, window: int | str) -> list[tuple[int, int]]:
    """Contiguous chunk bounds for a window size, validating the range.

    ``"global"`` (or window == frames) yields the single chunk [0, frames);
    otherwise frames partition into [0, w), [w, 2w), ... with a shorter tail.
    """
    if window == "global":
        return [(0, frames)]
    if not isinstance(window, int) or isinstance(window, bool) or not (1 <= window <= frames):
        raise WindowOutOfRangeError(
            f"window must be 'global' or an int in 1..{frames}, got {window!r}"
        )
    return [(a, min(a + window, frames)) for a in range(0, frames, window)]


def global_pool(tensor: TokenTensor, window: int | str = "global") -> PoolAssignment:
    """Mean-pool the video into per-chunk summary vectors.

    Each chunk's vector is the mean over its frames' tokens, computed as
    per-frame token sums folded in ascending frame order then divided by the
    chunk's token count.  ``window == frames`` is bit-identical to
    ``"global"`` because both fold the same per-frame subtotals.
    """
    frames, tokens, _ = tensor.values.shape
    edges = window_edges(frames, window)
    frame_sums = accum.frame_token_sums(tensor.values)
    return pools_from_frame_sums(frame_sums, tokens, edges)


def pools_from_frame_sums(frame_sums: np.ndarray, tokens: int,
                          edges: list[tuple[int, int]]) -> PoolAssignment:
    """Build chunk pools from precomputed per-frame channel sums."""
    frames = frame_sums.shape[0]
    vectors = np.empty((len(edges), frame_sums.shape[1]), dtype=np.float64)
    index = np.empty(frames, dtype=np.int64)
    for i, (a, b) in enumerate(edges):
        vectors[i] = accum.fold_rows(frame_sums, a, b) / ((b - a) * tokens)
        index[a:b] = i
    return PoolAssignment(vectors, index)


def video_uniqueness(tensor: TokenTensor, pools: PoolAssignment) -> np.ndarray:
    """Per-token video-level uniqueness: minus the cosine to the pool.

    Lower similarity to the pooled summary means higher uniqueness, so the
    grid lies in [-1, 1] with -1 for tokens aligned with the summary.
    """
    return accum.uniqueness_grids(tensor.values, [pools.per_frame()])[0]


def frame_uniqueness(u_video: np.ndarray, aggregation: Aggregation = Aggregation.MEAN) -> np.ndarray:
    """Aggregate each frame's token scores into one frame score.

    Mean is the default (uniqueness density); max is the ablation variant
    that keys on the single most distinctive token.
    """
    grid = np.asarray(u_video, dtype=np.float64)
    if Aggregation(aggregation) is Aggregation.MEAN:
        return accum.row_sequential_sums(grid) / grid.shape[1]
    return np.max(grid, axis=1)


def softmax_weights(u, tau: float, eps: float) -> np.ndarray:
    """Shift-by-max softmax over frame scores with a stabilizing epsilon.

    Weights sum to S/(S+eps) where S >= 1, so they fall short of 1 by at
    most eps/(1+eps).  Computed with scalar ``math.exp`` and a left-to-right
    sum; the shift makes overflow impossible.
    """
    scores = [float(v) for v in np.asarray(u, dtype=np.float64)]
    top = max(scores)
    exps = [math.exp((v - top) / tau) for v in scores]
    total = 0.0
    for e in exps:
        total = total + e
    denom = total + eps
    return np.array([e / denom for e in exps], dtype=np.float64)


def allocate(
    sigma,
    ratio: float,
    tokens_per_frame: int,
    min_tokens: int = 1,
    frame_uniqueness=None,
) -> BudgetAllocation:
    """Turn frame weights into retention ratios and integer budgets.

    r_t = ratio * (1 + sigma_t - 1/T) exactly as written, unclamped; the
    integer budget is k_t = min(M, max(min_tokens, ceil(r_t * M))).
    ``frame_uniqueness`` is carried through for reporting only.
    """
    weights = np.asarray(sigma, dtype=np.float64)
    frames = weights.shape[0]
    ratios = np.array(
        [ratio * (1.0 + float(s) - 1.0 / frames) for s in weights], dtype=np.float64
    )
    counts = np.array(
        [
            min(tokens_per_frame, max(min_tokens, math.ceil(r * tokens_per_frame)))
            for r in ratios
        ],
        dtype=np.int64,
    )
    if frame_uniqueness is None:
        uniq = np.zeros(frames, dtype=np.float64)
    else:
        uniq = np.asarray(frame_uniqueness, dtype=np.float64).copy()
    return BudgetAllocation(ratios, counts, uniq, weights.copy())


def allocate_uniform(
    frames: int,
    ratio: float,
    tokens_per_frame: int,
    min_tokens: int = 1,
    frame_uniqueness=None,
    frame_weight=None,
) -> BudgetAllocation:
    """Fixed-ratio allocation: every frame keeps ceil(ratio * M) tokens.

    The uniqueness/weight arrays, when supplied, are reported unchanged but
    play no part in the budgets.
    """
    ratios = np.full(frames, float(ratio), dtype=np.float64)
    count = min(tokens_per_frame, max(min_tokens, math.ceil(ratio * tokens_per_frame)))
    counts = np.full(frames, count, dtype=np.int64)
    uniq = (np.zeros(frames) if frame_uniqueness is None
            else np.asarray(frame_uniqueness, dtype=np.float64).copy())
    weights = (np.zeros(frames) if frame_weight is None
               else np.asarray(frame_weight, dtype=np.float64).copy())
    return BudgetAllocation(ratios, counts, uniq, weights)
