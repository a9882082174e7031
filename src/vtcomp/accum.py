"""Deterministic accumulation kernels.

Everything that sums floats in this package goes through the helpers below,
which pin one accumulation order so results are reproducible bit-for-bit
across runs, platforms with IEEE-754 doubles, and any frame-chunked thread
split:

  * per-frame channel sums add tokens in ascending token order;
  * video-level sums fold the per-frame subtotals in ascending frame order;
  * channel reductions (dot products, squared norms) add channels strictly
    left to right;
  * inputs are float32 and every accumulator is float64 (the widening is
    exact, so casting inside a kernel equals casting up front).

The kernels are vectorized so that each float64 accumulator still sees the
exact same sequence of IEEE additions a scalar loop would produce: a token
loop adds whole channel rows, a channel loop adds whole token planes, and
``np.cumsum`` provides left-to-right running sums along a row.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def frame_token_sums(values: np.ndarray) -> np.ndarray:
    """Per-frame channel sums: (T, M, D') float32 -> (T, D') float64.

    Accumulates tokens in ascending order within each frame.
    """
    frames, tokens, dim = values.shape
    sums = np.zeros((frames, dim), dtype=np.float64)
    for m in range(tokens):
        np.add(sums, values[:, m, :], out=sums)
    return sums


def fold_rows(rows: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Sequential sum of rows[start:stop] in ascending row order."""
    acc = np.zeros(rows.shape[1], dtype=np.float64)
    for i in range(start, stop):
        np.add(acc, rows[i], out=acc)
    return acc


def row_sequential_sums(grid: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each row of a 2-D float64 array."""
    return np.cumsum(grid, axis=1)[:, -1]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, squares added left to right."""
    return np.sqrt(np.cumsum(rows * rows, axis=1)[:, -1])


def transpose_tokens(values: np.ndarray, out: np.ndarray | None = None,
                     start: int = 0, stop: int | None = None) -> np.ndarray:
    """Repack (T, M, D') float32 into channel-major (D', T*M) float32.

    Works frame by frame so each source block stays cache-resident.  With
    ``out``/``start``/``stop`` a worker can fill just its own frame range.
    """
    frames, tokens, dim = values.shape
    if out is None:
        out = np.empty((dim, frames * tokens), dtype=np.float32)
    if stop is None:
        stop = frames
    for t in range(start, stop):
        out[:, t * tokens : (t + 1) * tokens] = values[t].T
    return out


def token_reductions(
    channel_major: np.ndarray,
    frames: int,
    tokens: int,
    pool_rows: list[np.ndarray],
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Squared norms and pooled-vector dot products for every token.

    ``channel_major`` is the (D', T*M) float32 layout from
    :func:`transpose_tokens`; each entry of ``pool_rows`` is a (T, D')
    float64 matrix holding the vector each frame's tokens are compared
    against.  Returns the (T, M) squared-norm grid and one (T, M) dot grid
    per pool matrix, all accumulated left to right over channels.  The
    optional frame range lets threaded callers compute disjoint slices.
    """
    if stop is None:
        stop = frames
    dim = channel_major.shape[0]
    span = stop - start

    # (D', span, M) view of this frame range; each [c] is one contiguous
    # channel plane.  (D', span, 1) pool columns broadcast per channel.
    planes = channel_major.reshape(dim, frames, tokens)[:, start:stop, :]
    pool_cols = [
        np.ascontiguousarray(rows[start:stop].T).reshape(dim, span, 1)
        for rows in pool_rows
    ]

    sq = np.zeros((span, tokens), dtype=np.float64)
    dots = [np.zeros((span, tokens), dtype=np.float64) for _ in pool_rows]
    mul, add, mov = np.multiply, np.add, np.copyto

    # Channels are processed four planes per ufunc call to amortize call
    # overhead; each accumulator still receives its addends one channel at
    # a time in ascending order, so the result is bit-identical to a plain
    # per-channel loop.
    width = 4
    chan = np.empty((width, span, tokens), dtype=np.float64)
    prod = np.empty((width, span, tokens), dtype=np.float64)
    main = dim - dim % width
    for c0 in range(0, main, width):
        mov(chan, planes[c0 : c0 + width])
        mul(chan, chan, out=prod)
        for j in range(width):
            add(sq, prod[j], out=sq)
        for cols64, acc in zip(pool_cols, dots):
            mul(chan, cols64[c0 : c0 + width], out=prod)
            for j in range(width):
                add(acc, prod[j], out=acc)
    one_chan, one_prod = chan[0], prod[0]
    for c in range(main, dim):
        mov(one_chan, planes[c])
        mul(one_chan, one_chan, out=one_prod)
        add(sq, one_prod, out=sq)
        for cols64, acc in zip(pool_cols, dots):
            mul(one_chan, cols64[c], out=one_prod)
            add(acc, one_prod, out=acc)
    return sq, dots


def clamped_cosines(dots: np.ndarray, token_norms: np.ndarray,
                    pool_norms: np.ndarray) -> np.ndarray:
    """Cosines from precomputed dots and norms, elementwise.

    Zero-norm pairs map to 0.0 and the output is clamped to [-1, 1].
    ``pool_norms`` broadcasts against the (T, M) grids (one norm per frame).
    """
    denom = token_norms * pool_norms
    out = np.zeros_like(dots)
    np.divide(dots, denom, out=out, where=denom > 0.0)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def run_chunked(workers: int, frames: int, phase) -> None:
    """Run phase(start, stop) over contiguous frame chunks.

    Every per-frame quantity is computed independently of the chunking, so
    output is bit-identical for any worker count; with one worker the phase
    runs inline.
    """
    workers = min(max(1, workers), frames)
    if workers == 1:
        phase(0, frames)
        return
    bounds = [(frames * i // workers, frames * (i + 1) // workers) for i in range(workers)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(phase, a, b) for a, b in bounds]:
            future.result()


def uniqueness_grids(values: np.ndarray, pool_rows: list[np.ndarray],
                     threads: int = 1) -> list[np.ndarray]:
    """Minus the clamped cosine of every token to each pool matrix.

    The one scoring pass: ``values`` (T, M, D') float32 is transposed and
    reduced frame chunk by frame chunk against every (T, D') float64 matrix
    in ``pool_rows`` at once, then each dot grid becomes one (T, M) grid of
    uniqueness scores in [-1, 1].
    """
    frames, tokens, dim = values.shape
    channel_major = np.empty((dim, frames * tokens), dtype=np.float32)
    sq = np.empty((frames, tokens), dtype=np.float64)
    dots = [np.empty((frames, tokens), dtype=np.float64) for _ in pool_rows]

    def reduce_phase(a: int, b: int) -> None:
        transpose_tokens(values, out=channel_major, start=a, stop=b)
        part_sq, parts = token_reductions(channel_major, frames, tokens, pool_rows, a, b)
        sq[a:b] = part_sq
        for grid, part in zip(dots, parts):
            grid[a:b] = part

    run_chunked(threads, frames, reduce_phase)

    token_norms = np.sqrt(sq)
    return [-clamped_cosines(grid, token_norms, row_norms(rows)[:, None])
            for grid, rows in zip(dots, pool_rows)]
