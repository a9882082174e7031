"""Stage 2: per-token uniqueness scoring and top-k extraction.

Builds on stage 1: tokens are scored against their own frame's mean and the
video-level pool, the two uniqueness scores combine into one ranking, and
each frame keeps its budgeted top-k tokens in original order.  ``compress``
runs both stages end to end and returns every intermediate artifact.
Ranking and counting are separate steps, and ``keep_top(ranks, counts)`` is
the one cut from a ranking and per-frame counts to a keep mask: for
``select_mask`` (through ``topk_select``), the random policy and each
``ablate`` cell.  So a caller that varies budgets and score modes over a few
windows calls ``score_windows`` once, ``select_budgets`` once per distinct
budget (``budget_key``) and ``token_ranks`` once per distinct combined grid
(``grid_key``), then cuts each config's ranking at its counts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import accum
from .budget import (
    allocate,
    allocate_uniform,
    frame_uniqueness,
    global_pool,
    pools_from_frame_sums,
    softmax_weights,
    video_uniqueness,
    window_edges,
)
from .errors import ConfigError, KExceedsMError, ShapeMismatchError
from .model import (
    Adjustment,
    Aggregation,
    BudgetAllocation,
    CompressedSelection,
    RetentionConfig,
    ScoreMode,
    ScoreReport,
    TokenTensor,
    check_finite,
    enum_in,
    int_in,
    real_in,
    shown,
    weight_sum_in,
)


class CompressResult(NamedTuple):
    selection: CompressedSelection
    allocation: BudgetAllocation
    report: ScoreReport


def frame_pool(tensor: TokenTensor) -> np.ndarray:
    """Per-frame mean token vector, (T, D') float64: the window-1 pools."""
    return global_pool(tensor, 1)


# The frame level is video uniqueness against the window-1 pools.
frame_token_uniqueness = video_uniqueness


def combine_scores(u_frame, u_video, mode: ScoreMode = ScoreMode.COMBINED,
                   alpha: float = 1.0, beta: float = 1.0) -> np.ndarray:
    """Merge frame-level and video-level scores into the selection score.

    Combined mode computes alpha*frame + beta*video (defaults weight them
    equally); the single-score modes pass one grid through, and the
    positive variants flip its sign to prefer redundant tokens instead.
    In every mode ``alpha`` and ``beta`` are checked as ``RetentionConfig``
    checks them, the pair rule included (:func:`~vtcomp.model.real_in`,
    :func:`~vtcomp.model.weight_sum_in`), and so is ``mode``
    (:func:`~vtcomp.errors.enum_in`).
    """
    alpha, beta = real_in("alpha", alpha), real_in("beta", beta)
    weight_sum_in(alpha, beta)
    uf = np.asarray(u_frame, dtype=np.float64)
    uv = np.asarray(u_video, dtype=np.float64)
    if uf.shape != uv.shape:
        raise ShapeMismatchError(f"score shapes differ: {uf.shape} vs {uv.shape}")
    mode = enum_in("mode", mode, ScoreMode)
    if mode is ScoreMode.COMBINED:
        return np.multiply(uf, alpha) + np.multiply(uv, beta)
    if mode is ScoreMode.FRAME_ONLY:
        return uf.copy()
    if mode is ScoreMode.VIDEO_ONLY:
        return uv.copy()
    if mode is ScoreMode.POSITIVE_FRAME:
        return -uf
    return -uv


def grid_key(mode: ScoreMode, window) -> tuple:
    """The (mode, window) whose combined grid equals this one's, bit for bit.

    Of the grids ``combine_scores(grids[1], grids[window], mode)`` gives,
    ``frame_only`` and ``positive_frame`` read only the frame level, which
    is the video level at window 1, so they are the ``video_only`` and
    ``positive_video`` grids at window 1 whatever the window.
    """
    if mode is ScoreMode.FRAME_ONLY:
        return ScoreMode.VIDEO_ONLY, 1
    if mode is ScoreMode.POSITIVE_FRAME:
        return ScoreMode.POSITIVE_VIDEO, 1
    return mode, window


def budget_key(aggregation: Aggregation, adjustment: Adjustment, window) -> tuple:
    """The (aggregation, adjustment, window) whose budgets equal this one's, bit for bit.

    Of the configs that differ only in these three fields, ``select_budgets``
    reads the aggregation and the window only for adaptive budgets: uniform
    budgets keep the preset ratio in every frame, so every uniform config
    gets the budgets of the mean-aggregated uniform config at window 1.
    """
    if adjustment is Adjustment.ADAPTIVE:
        return aggregation, adjustment, window
    return Aggregation.MEAN, Adjustment.UNIFORM, 1


def token_ranks(grid) -> np.ndarray:
    """Each token's position in its row's stable descending order: (T, M).

    Rank 0 is the row's largest score; equal scores rank by lower index
    first, and -0.0 ties with 0.0.  One ``argsort`` and one scatter.
    """
    grid = np.asarray(grid, dtype=np.float64)
    order = np.argsort(-grid, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(grid.shape[1]), axis=1)
    return ranks


def _whole(count):
    """One count as a plain int (+-inf as it is: whole, but past any M).  A
    bool, or anything that is not a whole number (NaN, 0.5,
    ``Fraction(1, 2)``, a str), is a ``ConfigError``."""
    try:
        whole = int(count)
    except OverflowError:
        return count
    except (TypeError, ValueError):  # NaN or not a number
        whole = None
    if isinstance(count, (bool, np.bool_)) or whole is None or whole != count:
        raise ConfigError(f"counts must be whole numbers, got {shown(count)}")
    return whole


def keep_top(ranks: np.ndarray, counts) -> np.ndarray:
    """The (T, M) keep mask of the ``counts[t]`` best-ranked tokens of row t.

    Row t of ``ranks`` places each token, 0 first, so one ranking serves
    any number of count vectors.  Counts have shape ``(T,)``.  An integer
    numpy array is used as it is; any other input is converted once, item
    by item: a bool, or a number that is not whole (NaN, 0.5,
    ``Fraction(1, 2)``), is a ``ConfigError``, and a whole float, fraction
    or decimal becomes its int.  A count outside 0..M, of any size or
    infinite, is a ``KExceedsMError`` naming the first.
    """
    frames, tokens = ranks.shape
    array = counts if isinstance(counts, np.ndarray) else np.asarray(counts, dtype=object)
    if array.shape != (frames,):
        raise ShapeMismatchError(f"expected {frames} counts, got shape {array.shape}")
    if array.dtype.kind not in "iu":
        array = np.array([_whole(c) for c in array.tolist()], dtype=object)
    bad = (array < 0) | (array > tokens)
    if bad.any():
        raise KExceedsMError(f"k={shown(array[bad][:1].tolist()[0])} outside 0..{tokens}")
    return ranks < array.astype(np.int64, copy=False)[:, None]


def topk_select(scores, k):
    """Indices of the k largest scores, ascending, ties to the lower index.

    The ascending output preserves the tokens' original order for downstream
    consumers that rely on positional structure.  Given a (T, M) grid and
    one count per row, returns the (T, M) boolean keep mask whose row t is
    true exactly at ``topk_select(scores[t], k[t])``: that is
    ``keep_top(token_ranks(scores), k)``.  Scores of any other rank raise
    ``ShapeMismatchError``.
    """
    grid = np.asarray(scores, dtype=np.float64)
    if grid.ndim == 2:
        return keep_top(token_ranks(grid), k)
    if grid.ndim != 1:
        raise ShapeMismatchError(f"expected 1-D or 2-D scores, got shape {grid.shape}")
    return np.flatnonzero(keep_top(token_ranks(grid.reshape(1, -1)), [k])[0])


def score_windows(tensor: TokenTensor, windows: list) -> dict:
    """One uniqueness grid per distinct pooling window: ``{window: grid}``.

    The scoring pass of :func:`compress`: the frame sums, the (P, T, D')
    stack of one pool matrix per window, then one ``uniqueness_grids`` call
    whose (P, T, M) rows are the windows' grids, all on the calling thread.
    Window 1 pools each frame alone, so its grid is the frame level.  Each
    grid is bit-identical to the one a single-window call gives; every
    window is validated before any work, and an empty list gives ``{}``
    without a scoring pass.  A NaN or +-inf element, which an unvalidated
    ``TokenTensor`` may hold, raises ``NonFiniteError`` at the index
    ``validate`` gives, found from the frame sums.
    """
    windows = list(dict.fromkeys(windows))
    for window in windows:  # every window is checked before any work
        window_edges(tensor.frames, window)
    if not windows:
        return {}
    values = np.ascontiguousarray(tensor.values, dtype=np.float32)  # one copy for both passes
    with np.errstate(invalid="ignore"):  # the numpy body warns on inf + -inf
        frame_sums = accum.frame_token_sums(values)
    check_finite(values, frame_sums)
    pools = np.array([pools_from_frame_sums(frame_sums, values.shape[1], window)
                      for window in windows])
    return dict(zip(windows, accum.uniqueness_grids(values, pools)))


def select_budgets(config: RetentionConfig, grids: dict
                   ) -> tuple[BudgetAllocation, np.ndarray, np.ndarray]:
    """Per-frame budgets from precomputed uniqueness grids.

    Aggregates the video level ``grids[config.window]`` per frame and
    softmax-allocates budgets around the preset ratio (uniform adjustment
    keeps it everywhere instead).  Returns ``(allocation, u_t, sigma)``.
    """
    u_video = grids[config.window]
    frames, tokens = u_video.shape
    u_t = frame_uniqueness(u_video, config.frame_aggregation)
    sigma = softmax_weights(u_t, config.temperature, config.epsilon)
    if config.adjustment is Adjustment.ADAPTIVE:
        allocation = allocate(sigma, config.ratio, tokens, config.min_tokens_per_frame)
    else:
        allocation = allocate_uniform(frames, config.ratio, tokens, config.min_tokens_per_frame)
    return allocation, u_t, sigma


def select_mask(config: RetentionConfig, grids: dict
                ) -> tuple[np.ndarray, BudgetAllocation, ScoreReport]:
    """Budgets and the (T, M) keep mask from precomputed uniqueness grids.

    Reads :func:`score_windows` grids: ``grids[1]`` is the frame level and
    ``grids[config.window]`` the video level.  Takes the budgets from
    :func:`select_budgets`, combines both grids and ranks them in one call.
    Returns ``(keep, allocation, report)``.
    """
    u_frame, u_video = grids[1], grids[config.window]
    allocation, u_t, sigma = select_budgets(config, grids)
    combined = combine_scores(u_frame, u_video, config.score_mode,
                              config.alpha, config.beta)
    keep = topk_select(combined, allocation.per_frame_count)
    return keep, allocation, ScoreReport(u_video, u_frame, combined, u_t, sigma)


def compress(tensor: TokenTensor, config: RetentionConfig | None = None,
             threads: int = 1) -> CompressResult:
    """Run the full two-stage pipeline on a validated tensor.

    Stage 1 pools the video (optionally in frame windows), scores video-level
    token uniqueness, aggregates it per frame, and softmax-allocates
    per-frame budgets.  Stage 2 adds frame-level uniqueness (the window-1
    pool), combines the scores, and extracts each frame's top-k tokens.
    Returns the selection plus the budget and score intermediates.  Every
    step runs on the calling thread: ``threads`` has no effect, but must be
    an int >= 1.
    """
    int_in("threads", threads, 1)
    if config is None:
        config = RetentionConfig()
    # One C-ordered float32 copy (none for C-ordered input) serves both the
    # scoring pass and the gather of the kept rows.
    values = np.ascontiguousarray(tensor.values, dtype=np.float32)
    grids = score_windows(TokenTensor(values), [1, config.window])
    keep, allocation, report = select_mask(config, grids)
    return CompressResult(CompressedSelection.from_mask(values, keep), allocation, report)
