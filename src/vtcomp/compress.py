"""Stage 2: per-token uniqueness scoring and top-k extraction.

Builds on stage 1: tokens are scored against their own frame's mean and the
video-level pool, the two uniqueness scores combine into one ranking, and
each frame keeps its budgeted top-k tokens in original order.  ``compress``
runs both stages end to end and returns every intermediate artifact; a
caller that varies only budgets and selection over a few windows can call
``score_windows`` once and ``select_mask`` per configuration.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import accum
from .budget import (
    allocate,
    allocate_uniform,
    frame_uniqueness,
    pools_from_frame_sums,
    softmax_weights,
    window_edges,
)
from .errors import KExceedsMError, ShapeMismatchError
from .model import (
    Adjustment,
    BudgetAllocation,
    CompressedSelection,
    RetentionConfig,
    ScoreMode,
    ScoreReport,
    TokenTensor,
)


class CompressResult(NamedTuple):
    selection: CompressedSelection
    allocation: BudgetAllocation
    report: ScoreReport


def frame_pool(tensor: TokenTensor) -> np.ndarray:
    """Per-frame mean token vector: (T, D') float64."""
    return accum.frame_token_sums(tensor.values) / tensor.tokens_per_frame


def frame_token_uniqueness(tensor: TokenTensor, pools: np.ndarray) -> np.ndarray:
    """Per-token frame-level uniqueness: minus cosine to the frame pool."""
    rows = np.asarray(pools, dtype=np.float64)
    if rows.shape != (tensor.frames, tensor.dim):
        raise ShapeMismatchError(f"expected {(tensor.frames, tensor.dim)} pools, got {rows.shape}")
    return accum.uniqueness_grids(tensor.values, [rows])[0]


def combine_scores(u_frame, u_video, mode: ScoreMode = ScoreMode.COMBINED,
                   alpha: float = 1.0, beta: float = 1.0) -> np.ndarray:
    """Merge frame-level and video-level scores into the selection score.

    Combined mode computes alpha*frame + beta*video (defaults weight them
    equally); the single-score modes pass one grid through, and the
    positive variants flip its sign to prefer redundant tokens instead.
    """
    uf = np.asarray(u_frame, dtype=np.float64)
    uv = np.asarray(u_video, dtype=np.float64)
    if uf.shape != uv.shape:
        raise ShapeMismatchError(f"score shapes differ: {uf.shape} vs {uv.shape}")
    mode = ScoreMode(mode)
    if mode is ScoreMode.COMBINED:
        return np.multiply(uf, alpha) + np.multiply(uv, beta)
    if mode is ScoreMode.FRAME_ONLY:
        return uf.copy()
    if mode is ScoreMode.VIDEO_ONLY:
        return uv.copy()
    if mode is ScoreMode.POSITIVE_FRAME:
        return -uf
    return -uv


def topk_select(scores, k):
    """Indices of the k largest scores, ascending, ties to the lower index.

    The ascending output preserves the tokens' original order for downstream
    consumers that rely on positional structure.  Given a (T, M) grid and
    one count per row, returns the (T, M) boolean keep mask whose row t is
    true exactly at ``topk_select(scores[t], k[t])``.
    """
    grid = np.asarray(scores, dtype=np.float64)
    row = grid.ndim != 2
    if row:
        grid, k = grid.reshape(1, -1), [k]
    frames, tokens = grid.shape
    counts = np.asarray(k)
    if counts.shape != (frames,):
        raise ShapeMismatchError(f"expected {frames} counts, got shape {counts.shape}")
    bad = (counts < 0) | (counts > tokens)
    if bad.any():
        raise KExceedsMError(f"k={counts[bad][0]} outside 0..{tokens}")
    order = np.argsort(-grid, axis=1, kind="stable")
    keep = np.zeros(grid.shape, dtype=bool)
    np.put_along_axis(keep, order, np.arange(tokens) < counts[:, None], axis=1)
    return np.flatnonzero(keep[0]) if row else keep


def score_windows(tensor: TokenTensor, windows: list, threads: int = 1
                  ) -> tuple[np.ndarray, dict]:
    """Frame-level uniqueness plus one video-level grid per pooling window.

    The scoring pass of :func:`compress`, shared by every window: frame
    sums, one pool matrix per distinct window, then one ``uniqueness_grids``
    call that reduces every token against all pools and the frame means at
    once.  Each grid is bit-identical to the one a single-window call
    gives.  Returns ``(u_frame, {window: u_video})``; every window is
    validated before any work starts.
    """
    values = tensor.values
    frames, tokens, dim = values.shape
    edges = {window: window_edges(frames, window) for window in windows}

    frame_sums = np.zeros((frames, dim), dtype=np.float64)

    def sum_phase(a: int, b: int) -> None:
        frame_sums[a:b] = accum.frame_token_sums(values[a:b])

    accum.run_chunked(threads, frames, sum_phase)

    pools = [pools_from_frame_sums(frame_sums, tokens, e).per_frame() for e in edges.values()]
    *u_videos, u_frame = accum.uniqueness_grids(values, pools + [frame_sums / tokens], threads)
    return u_frame, dict(zip(edges, u_videos))


def select_mask(config: RetentionConfig, u_frame: np.ndarray, u_video: np.ndarray
                ) -> tuple[np.ndarray, BudgetAllocation, ScoreReport]:
    """Budgets and the (T, M) keep mask from precomputed uniqueness grids.

    Aggregates ``u_video`` per frame, softmax-allocates per-frame budgets
    around the preset ratio (uniform adjustment keeps the preset ratio
    everywhere instead), combines both grids and ranks them in one call.
    ``u_video`` must come from ``config.window``'s pools.  Returns
    ``(keep, allocation, report)``; no token vector is touched.
    """
    frames, tokens = u_video.shape
    u_t = frame_uniqueness(u_video, config.frame_aggregation)
    sigma = softmax_weights(u_t, config.temperature, config.epsilon)
    if config.adjustment is Adjustment.ADAPTIVE:
        allocation = allocate(sigma, config.ratio, tokens, config.min_tokens_per_frame)
    else:
        allocation = allocate_uniform(frames, config.ratio, tokens, config.min_tokens_per_frame)

    combined = combine_scores(u_frame, u_video, config.score_mode,
                              config.alpha, config.beta)
    keep = topk_select(combined, allocation.per_frame_count)
    return keep, allocation, ScoreReport(u_video, u_frame, combined, u_t, sigma)


def compress(tensor: TokenTensor, config: RetentionConfig | None = None,
             threads: int = 1) -> CompressResult:
    """Run the full two-stage pipeline on a validated tensor.

    Stage 1 pools the video (optionally in frame windows), scores video-level
    token uniqueness, aggregates it per frame, and softmax-allocates
    per-frame budgets.  Stage 2 adds frame-level uniqueness, combines the
    scores, and extracts each frame's top-k tokens.  Returns the selection
    plus the budget and score intermediates.
    """
    if config is None:
        config = RetentionConfig()
    u_frame, u_video = score_windows(tensor, [config.window], threads)
    keep, allocation, report = select_mask(config, u_frame, u_video[config.window])
    return CompressResult(CompressedSelection.from_mask(tensor.values, keep), allocation, report)
