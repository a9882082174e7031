"""Stage 1: frame uniqueness scoring and per-frame budget allocation.

A pooled video summary is compared against every token; tokens that look
unlike the summary are "unique", frames dense in unique tokens get a larger
share of the retention budget.  The softmax weighting keeps the average
retention ratio at the preset value while shifting tokens between frames.
"""

from __future__ import annotations

import math

import numpy as np

from . import accum
from .errors import DimensionMismatchError, ShapeMismatchError, WindowOutOfRangeError, array_in
from .model import (MAX_AXIS, Aggregation, BudgetAllocation, TokenTensor, enum_in,
                    finite_frame_sums, int_in, real_in, token_values)


def window_edges(frames: int, window: int | str) -> list[tuple[int, int]]:
    """Contiguous chunk bounds for a window size, validated.

    ``"global"`` (or window == frames) yields the single chunk [0, frames);
    otherwise frames partition into [0, w), [w, 2w), ... with a shorter tail.
    Any other window goes through ``int_in``: a bool, a non-integer or an int
    outside 1..frames, of any size, is a ``WindowOutOfRangeError`` naming it.
    """
    if window == "global":
        return [(0, frames)]
    window = int_in("window", window, 1, frames, WindowOutOfRangeError)
    return [(a, min(a + window, frames)) for a in range(0, frames, window)]


def global_pool(tensor: TokenTensor, window: int | str = "global") -> np.ndarray:
    """Mean-pool the video in frame windows: row t is frame t's pool, (T, D').

    Each chunk's vector is the mean over its frames' tokens, computed as
    per-frame token sums folded in ascending frame order then divided by the
    chunk's token count.  ``window == frames`` is bit-identical to
    ``"global"`` because both fold the same per-frame subtotals, and window
    1 is each frame's own mean (``frame_pool``).  The tensor is read by the
    tensor rule (:func:`~vtcomp.model.finite_frame_sums`).
    """
    values = token_values(tensor)
    return pools_from_frame_sums(finite_frame_sums(values), values.shape[1], window)


def pool_axes_in(frames: int, tokens: int) -> None:
    """A pool is a mean over frames and tokens: no frames or no tokens is a
    ``DimensionMismatchError``."""
    if frames < 1 or tokens < 1:
        raise DimensionMismatchError(
            f"a pool needs frames and tokens >= 1, got {frames} and {tokens}")


def pools_from_frame_sums(frame_sums: np.ndarray, tokens: int,
                          window: int | str) -> np.ndarray:
    """The (T, D') pool rows of ``window`` from precomputed per-frame sums.

    The equal-width chunks fold in one pass, frame j of every chunk added
    in ascending j (the bits of a per-chunk ``ordered_sums``); a shorter
    tail folds alone.  Window 1 folds nothing: the frame means.  The
    (T, D') sums are read by the array rule (:func:`~vtcomp.errors.array_in`)
    and ``tokens`` must be an int in 0..``MAX_AXIS`` (:func:`~vtcomp.errors.int_in`);
    a mean over no frames or no tokens is a ``DimensionMismatchError``
    (:func:`pool_axes_in`).
    """
    frame_sums = array_in("frame_sums", frame_sums, ("frame", "channel"))
    frames, tokens = frame_sums.shape[0], int_in("tokens", tokens, 0, MAX_AXIS)
    pool_axes_in(frames, tokens)
    width = window_edges(frames, window)[0][1]
    full = frames - frames % width
    chunks = frame_sums[:full].reshape(full // width, width, -1)
    sums = chunks[:, 0].copy()
    for j in range(1, width):
        sums += chunks[:, j]
    vectors = sums / (width * tokens)
    if full < frames:
        tail = accum.ordered_sums(frame_sums[full:], axis=0) / ((frames - full) * tokens)
        vectors = np.vstack([vectors, tail])
    return vectors[np.arange(frames) // width]


def video_uniqueness(tensor: TokenTensor, pools: np.ndarray) -> np.ndarray:
    """Per-token uniqueness: minus the cosine to the token's frame pool row.

    Lower similarity to the pooled summary means higher uniqueness, so the
    grid lies in [-1, 1] with -1 for tokens aligned with the summary.
    ``pools`` is a (T, D') matrix such as :func:`global_pool` gives; with
    the window-1 pools this is the frame level.  The tensor is read by the
    tensor rule (:func:`~vtcomp.model.finite_frame_sums`) and the pools by
    the array rule, in ``accum.uniqueness_grids``.
    """
    values = token_values(tensor)
    finite_frame_sums(values)
    return accum.uniqueness_grids(values, [pools])[0]


def frame_uniqueness(u_video: np.ndarray, aggregation: Aggregation = Aggregation.MEAN) -> np.ndarray:
    """Aggregate each frame's token scores into one frame score.

    Mean is the default (uniqueness density); max is the ablation variant
    that keys on the single most distinctive token.  ``u_video`` is read
    by the array rule (:func:`~vtcomp.errors.array_in`) as a (T, M) grid, and
    M must be >= 1 (``ShapeMismatchError`` otherwise); an unknown
    ``aggregation`` is a ``ConfigError`` (:func:`~vtcomp.errors.enum_in`).
    """
    grid = array_in("u_video", u_video, ("frame", "token"))
    if grid.shape[1] == 0:
        raise ShapeMismatchError(f"expected a (T, M) grid with M >= 1, got shape {grid.shape}")
    if enum_in("aggregation", aggregation, Aggregation) is Aggregation.MEAN:
        return accum.ordered_sums(grid) / grid.shape[1]
    return np.max(grid, axis=1)


def softmax_weights(u, tau: float, eps: float) -> np.ndarray:
    """Shift-by-max softmax over frame scores with a stabilizing epsilon.

    Weights sum to S/(S+eps) where S >= 1, so they fall short of 1 by at
    most eps/(1+eps).  Uses libm's ``math.exp`` (numpy's may differ in the
    last bit) and a left-to-right sum; the shift keeps every exponent <= 0.
    ``tau`` is checked as ``temperature`` and ``eps`` as ``epsilon``
    (:func:`~vtcomp.model.real_in`): a value a ``RetentionConfig`` would
    reject is a ``ConfigError`` naming the parameter.  The (T,) scores are
    read by the array rule (:func:`~vtcomp.errors.array_in`), so a NaN or
    ±inf score raises ``NonFiniteError`` carrying the index of the first.
    No frames give no weights.
    """
    tau, eps = real_in("temperature", tau, "tau"), real_in("epsilon", eps, "eps")
    scores = array_in("u", u, ("frame",))
    with np.errstate(over="ignore"):  # an overflowed shift is -inf: weight 0
        shifted = (scores - scores.max(initial=-math.inf)) / tau
    exps = np.array([math.exp(v) for v in shifted.tolist()], dtype=np.float64)
    return exps / (accum.ordered_sums(exps) + eps)


def frame_counts(ratios: np.ndarray, tokens_per_frame: int, min_tokens: int) -> np.ndarray:
    """Integer budgets k_t = min(M, max(min_tokens, ceil(r_t * M))).

    ``tokens_per_frame`` must be an int in 0..``MAX_AXIS`` and ``min_tokens``
    an int >= 1 (:func:`~vtcomp.model.int_in`, a ``ConfigError`` naming the
    parameter otherwise); ``min_tokens`` of any size is capped at M before
    numpy sees it.  The (T,) ratios are read by the array rule
    (:func:`~vtcomp.errors.array_in`), so a non-finite r_t raises
    ``NonFiniteError`` carrying the index of the first rather than become a
    count; a finite r_t outside [0, 1] is clipped before it scales, so no
    product overflows.
    """
    tokens_per_frame = int_in("tokens_per_frame", tokens_per_frame, 0, MAX_AXIS)
    min_tokens = int_in("min_tokens", min_tokens, 1)
    ratios = array_in("ratios", ratios, ("frame",))
    wanted = np.ceil(np.clip(ratios, 0.0, 1.0) * tokens_per_frame)
    return np.clip(wanted, min(min_tokens, tokens_per_frame), tokens_per_frame).astype(np.int64)


def allocate(sigma, ratio: float, tokens_per_frame: int, min_tokens: int = 1) -> BudgetAllocation:
    """Turn frame weights into retention ratios and integer budgets.

    r_t = ratio * (1 + sigma_t - 1/T) exactly as written, unclamped; the
    integer budget follows :func:`frame_counts`.  ``ratio`` is checked as
    ``RetentionConfig.ratio`` is (:func:`~vtcomp.model.real_in`), and the
    (T,) weights by the array rule (:func:`~vtcomp.errors.array_in`).  No
    frames give empty budgets, as :func:`allocate_uniform` gives them.
    """
    ratio = real_in("ratio", ratio)
    weights = array_in("sigma", sigma, ("frame",))
    ratios = ratio * (1.0 + weights - 1.0 / max(weights.shape[0], 1))
    return BudgetAllocation(ratios, frame_counts(ratios, tokens_per_frame, min_tokens))


def allocate_uniform(frames: int, ratio: float, tokens_per_frame: int,
                     min_tokens: int = 1) -> BudgetAllocation:
    """Fixed-ratio allocation: every frame keeps ceil(ratio * M) tokens.

    ``frames`` must be an int in 0..``MAX_AXIS`` and ``ratio`` is checked as
    ``RetentionConfig.ratio`` is; the other two follow :func:`frame_counts`.
    """
    frames, ratio = int_in("frames", frames, 0, MAX_AXIS), real_in("ratio", ratio)
    ratios = np.full(frames, ratio, dtype=np.float64)
    return BudgetAllocation(ratios, frame_counts(ratios, tokens_per_frame, min_tokens))
