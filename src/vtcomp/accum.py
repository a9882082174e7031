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
loop adds whole channel rows and a channel loop adds whole token planes.
Every other float sum goes through ``ordered_sums``, in ascending order.

``frame_token_sums``, ``transpose_tokens`` and ``token_reductions`` also
have a C body in ``_accum.c`` that keeps the same order bit for bit.  It is
compiled once, at import, into ``__pycache__`` (named by a hash of source
and flags, so later imports only load it) and called through ``ctypes``,
which releases the GIL for the frame-chunked threads.  ``KERNEL`` says
which body runs: ``"c"`` when the library built and loaded, ``"numpy"``
when it did not (no compiler, an unwritable cache directory, a failed
load).  The numpy bodies are the fallback and the parity reference; they
also run for inputs that are not C-contiguous float32.  Building at import
keeps the one-time compile out of the first timed call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# No -march=native and no fast-math: the library must give the same bits as
# numpy on any host.  -ffp-contract=off forbids fusing a multiply and an add
# into one FMA, which rounds once instead of twice.
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# Channel-major block one scoring worker transposes and reduces at a time:
# small enough to stay in a per-core L2 between the two passes.
_BLOCK_BYTES = 1 << 20


def _load_library():
    """Build ``_accum.c`` unless a build of this source and these flags is
    cached, then load it; None when any step fails."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_accum.c")
    try:
        with open(source, "rb") as fh:
            key = hashlib.sha256(fh.read() + " ".join(_FLAGS).encode()).hexdigest()[:16]
        target = os.path.join(here, "__pycache__", f"_accum.{key}.so")
        if not os.path.exists(target):
            _build(source, target)
        lib = ctypes.CDLL(target)
    except OSError:
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    lib.frame_token_sums.argtypes = [ptr, size, size, size, ptr]
    lib.transpose_tokens.argtypes = [ptr, size, size, size, size, ptr]
    lib.token_reductions.argtypes = [ptr, size, size, size, size, ptr, size, ptr, ptr]
    for fn in (lib.frame_token_sums, lib.transpose_tokens, lib.token_reductions):
        fn.restype = None
    return lib


def _build(source: str, target: str) -> None:
    """Compile into a pid-named temp file, then move it into place, so a
    concurrent import never loads a half-written library.  Raises OSError
    on any failure."""
    import subprocess  # only an import that builds needs it

    os.makedirs(os.path.dirname(target), exist_ok=True)
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        subprocess.run(["cc", *_FLAGS, "-o", temp, source], check=True,
                       capture_output=True, timeout=300)
        os.replace(temp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc could not build {target}") from exc
    finally:
        if os.path.exists(temp):
            os.remove(temp)


_lib = _load_library()
KERNEL = "numpy" if _lib is None else "c"


def _f32c(array: np.ndarray) -> bool:
    return array.dtype == np.float32 and array.flags.c_contiguous


def _pointers(arrays) -> ctypes.Array:
    return (ctypes.c_void_p * len(arrays))(*[a.ctypes.data for a in arrays])


def frame_token_sums(values: np.ndarray) -> np.ndarray:
    """Per-frame channel sums: (T, M, D') float32 -> (T, D') float64.

    Accumulates tokens in ascending order within each frame.
    """
    frames, tokens, dim = values.shape
    if _lib is not None and _f32c(values):
        sums = np.empty((frames, dim), dtype=np.float64)
        _lib.frame_token_sums(values.ctypes.data, frames, tokens, dim, sums.ctypes.data)
        return sums
    sums = np.zeros((frames, dim), dtype=np.float64)
    for m in range(tokens):
        np.add(sums, values[:, m, :], out=sums)
    return sums


def ordered_sums(array: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` in ascending index order: the last running sum of
    ``np.cumsum``, which adds one element at a time (``np.sum`` pairs them)."""
    return np.cumsum(array, axis=axis).take(-1, axis=axis)


def transpose_tokens(values: np.ndarray, out: np.ndarray | None = None,
                     start: int = 0, stop: int | None = None) -> np.ndarray:
    """Repack frames [start, stop) of (T, M, D') float32 into channel-major
    (D', (stop - start)*M) float32.

    Works frame by frame so each source block stays cache-resident.  With
    ``out``/``start``/``stop`` a worker fills a block holding just its own
    frame range; the default is every frame.
    """
    frames, tokens, dim = values.shape
    if stop is None:
        stop = frames
    if not 0 <= start <= stop <= frames:
        raise ValueError(f"frame range [{start}, {stop}) outside 0..{frames}")
    if out is None:
        out = np.empty((dim, (stop - start) * tokens), dtype=np.float32)
    if (_lib is not None and _f32c(values) and _f32c(out)
            and out.shape == (dim, (stop - start) * tokens)):
        _lib.transpose_tokens(values.ctypes.data, tokens, dim, start, stop, out.ctypes.data)
        return out
    for t in range(start, stop):
        col = (t - start) * tokens
        out[:, col : col + tokens] = values[t].T
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

    ``channel_major`` is the (D', (stop - start)*M) float32 block that
    :func:`transpose_tokens` fills for frames [start, stop) (by default all
    T frames); each entry of ``pool_rows`` is a (T, D') float64 matrix
    holding the vector each frame's tokens are compared against, indexed by
    absolute frame.  Returns the (stop - start, M) squared-norm grid and one
    such dot grid per pool matrix, all accumulated left to right over
    channels.  The frame range lets threaded callers compute disjoint
    slices.
    """
    if stop is None:
        stop = frames
    if not 0 <= start <= stop <= frames:
        raise ValueError(f"frame range [{start}, {stop}) outside 0..{frames}")
    dim = channel_major.shape[0]
    span = stop - start

    if _lib is not None and _f32c(channel_major) \
            and channel_major.shape == (dim, span * tokens):
        pools = [np.ascontiguousarray(rows, dtype=np.float64) for rows in pool_rows]
        if all(rows.shape == (frames, dim) for rows in pools):
            sq = np.empty((span, tokens), dtype=np.float64)
            dots = [np.empty((span, tokens), dtype=np.float64) for _ in pools]
            _lib.token_reductions(channel_major.ctypes.data, dim, tokens, start, stop,
                                  _pointers(pools), len(pools), sq.ctypes.data,
                                  _pointers(dots))
            return sq, dots

    # (D', span, M) view of this frame range; each [c] is one contiguous
    # channel plane.  (D', span, 1) pool columns broadcast per channel.
    planes = channel_major.reshape(dim, span, tokens)
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
    reduced frame block by frame block against every (T, D') float64 matrix
    in ``pool_rows`` at once, then each dot grid becomes one (T, M) grid of
    uniqueness scores in [-1, 1].  Each worker reuses one channel-major
    buffer of about ``_BLOCK_BYTES`` for its frame chunk; the numpy bodies
    pay per call, so they take the whole chunk as one block.
    """
    frames, tokens, dim = values.shape
    sq = np.empty((frames, tokens), dtype=np.float64)
    dots = [np.empty((frames, tokens), dtype=np.float64) for _ in pool_rows]
    frame_size = tokens * dim
    if _lib is not None and _f32c(values):
        block = max(1, _BLOCK_BYTES // (4 * frame_size))
    else:
        block = frames

    def reduce_phase(a: int, b: int) -> None:
        step = min(block, b - a)
        buf = np.empty(step * frame_size, dtype=np.float32)
        for t0 in range(a, b, step):
            t1 = min(t0 + step, b)
            channel_major = buf[: (t1 - t0) * frame_size].reshape(dim, (t1 - t0) * tokens)
            transpose_tokens(values, out=channel_major, start=t0, stop=t1)
            part_sq, parts = token_reductions(channel_major, frames, tokens, pool_rows, t0, t1)
            sq[t0:t1] = part_sq
            for grid, part in zip(dots, parts):
                grid[t0:t1] = part

    run_chunked(threads, frames, reduce_phase)

    token_norms = np.sqrt(sq)
    return [-clamped_cosines(grid, token_norms, np.sqrt(ordered_sums(rows * rows))[:, None])
            for grid, rows in zip(dots, pool_rows)]
