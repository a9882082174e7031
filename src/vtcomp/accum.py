"""Deterministic accumulation kernels.

Everything that sums floats in this package goes through the helpers below,
which pin one accumulation order so results are reproducible bit-for-bit
across runs, platforms with IEEE-754 doubles, and any split of the frames
into blocks:

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
and flags, so later imports only load it) and called through ``ctypes``.
The body is picked once per process: ``KERNEL`` is ``"c"`` when the
library built and loaded, and the C body then runs for every input; it is
``"numpy"`` when it did not (no compiler, an unwritable cache directory, a
failed load), and only then do the numpy bodies, also the parity
reference, run.  Inputs are copied to C order where needed.  Building at
import keeps the compile out of timing.

On x86-64 glibc builds the library carries a second, AVX2 body of each C
kernel and picks one at load time from the CPU it runs on; the bits are
the same either way.  ``KERNEL_ISA`` names the pick: ``"avx2"`` or
``"baseline"`` (every other host and CPU), and None under numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os

import numpy as np

from .errors import ShapeMismatchError, int_in

# No -march=native and no fast-math: the library must give the same bits as
# numpy on any host, and the cached build must load on any x86-64 CPU that
# shares the directory (the AVX2 bodies are chosen at run time instead).
# -ffp-contract=off forbids fusing a multiply and an add into one FMA, which
# rounds once instead of twice.
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# Channel-major block the scoring pass transposes and reduces at a time:
# small enough to stay in a per-core L2 between the two passes.
_BLOCK_BYTES = 1 << 20


def _load_library():
    """The package's ``_accum.c``, built into ``__pycache__`` unless a build
    of this source and these flags is cached there; None when any step fails."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        return _build(os.path.join(here, "_accum.c"), os.path.join(here, "__pycache__"))
    except OSError:
        return None


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Set the argument and result types of the library's entry points."""
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    lib.frame_token_sums.argtypes = [ptr, size, size, size, ptr]
    lib.transpose_tokens.argtypes = [ptr, size, size, size, size, ptr]
    lib.token_reductions.argtypes = [ptr, size, size, size, size, size, ptr, size, ptr, ptr]
    for fn in (lib.frame_token_sums, lib.transpose_tokens, lib.token_reductions):
        fn.restype = None
    lib.kernel_isa.argtypes = []
    lib.kernel_isa.restype = ctypes.c_char_p
    return lib


def _build(source, directory, defines=()) -> ctypes.CDLL:
    """``source`` built with ``_FLAGS`` and ``defines``, loaded and declared.

    The build lives in ``directory`` under a hash of source and flags, so
    it compiles once.  It compiles into a pid-named temp file, then moves
    into place, so a concurrent build never loads a half-written library.
    Raises OSError on any failure.
    """
    flags = (*_FLAGS, *defines)
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(flags).encode()).hexdigest()[:16]
    target = os.path.join(directory, f"_accum.{key}.so")
    if not os.path.exists(target):
        import subprocess  # only a call that compiles needs it

        os.makedirs(directory, exist_ok=True)
        temp = f"{target}.{os.getpid()}.tmp"
        try:
            subprocess.run(["cc", *flags, "-o", temp, source], check=True,
                           capture_output=True, timeout=300)
            os.replace(temp, target)
        except subprocess.SubprocessError as exc:
            raise OSError(f"cc could not build {target}") from exc
        finally:
            if os.path.exists(temp):
                os.remove(temp)
    return _declare(ctypes.CDLL(target))


_lib = _load_library()
KERNEL = "numpy" if _lib is None else "c"
KERNEL_ISA = None if _lib is None else _lib.kernel_isa().decode()


def frame_token_sums(values: np.ndarray) -> np.ndarray:
    """Per-frame channel sums: (T, M, D') float32 -> (T, D') float64.

    Accumulates tokens in ascending order within each frame.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    frames, tokens, dim = values.shape
    sums = np.zeros((frames, dim), dtype=np.float64)
    if _lib is not None:
        _lib.frame_token_sums(values.ctypes.data, frames, tokens, dim, sums.ctypes.data)
    else:
        for m in range(tokens):
            np.add(sums, values[:, m, :], out=sums)
    return sums


def _stacked_pools(pool_rows, frames: int, dim: int) -> np.ndarray:
    """P (T, D') matrices, listed or stacked, as one C-ordered (P, T, D') float64
    array; each is checked first, as numpy raises ValueError on a ragged list."""
    for rows in pool_rows:
        if np.shape(rows) != (frames, dim):
            raise ShapeMismatchError(f"expected {(frames, dim)} pools, got {np.shape(rows)}")
    return np.ascontiguousarray(pool_rows, dtype=np.float64).reshape(len(pool_rows), frames, dim)


def ordered_sums(array: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` in ascending index order: the last running sum of
    ``np.cumsum``, which adds one element at a time (``np.sum`` pairs them).
    An empty axis sums to 0.0, as ``np.sum`` gives it."""
    if np.shape(array)[axis] == 0:
        return np.sum(array, axis=axis)
    return np.cumsum(array, axis=axis).take(-1, axis=axis)


def transpose_tokens(values: np.ndarray, out: np.ndarray | None = None,
                     start: int = 0, stop: int | None = None) -> np.ndarray:
    """Repack frames [start, stop) of (T, M, D') float32 into channel-major
    (D', (stop - start)*M) float32.

    Works frame by frame so each source block stays cache-resident.  With
    ``out``/``start``/``stop`` a caller fills a block holding just one frame
    range; the default is every frame.  ``start`` must be an int in
    0..T and ``stop`` one in start..T (:func:`~vtcomp.errors.int_in`), and
    any ``out`` but a writable C-ordered float32 array of that shape
    raises ``ShapeMismatchError`` too.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    frames, tokens, dim = values.shape
    start = int_in("start", start, 0, frames, ShapeMismatchError)
    stop = frames if stop is None else int_in("stop", stop, start, frames, ShapeMismatchError)
    shape = (dim, (stop - start) * tokens)
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    if out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous \
            or not out.flags.writeable:
        raise ShapeMismatchError(f"expected writable C-ordered float32 {shape}, got {out.dtype}")
    if _lib is not None:
        _lib.transpose_tokens(values.ctypes.data, tokens, dim, start, stop, out.ctypes.data)
    else:
        for t in range(start, stop):
            col = (t - start) * tokens
            out[:, col : col + tokens] = values[t].T
    return out


def token_reductions(
    channel_major: np.ndarray,
    frames: int,
    tokens: int,
    pool_rows,
    start: int = 0,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms and pooled-vector dot products for every token.

    ``channel_major`` is the (D', (stop - start)*M) float32 block that
    :func:`transpose_tokens` fills for frames [start, stop) (by default all
    T frames); ``pool_rows`` is a (P, T, D') float64 array (or a list of P
    (T, D') matrices) whose row [p, t] is a vector frame t's tokens are
    compared against.  Returns the (stop - start, M) squared-norm grid and
    the (P, stop - start, M) dot grids, all accumulated left to right over
    channels.  The frame range lets a caller reduce one block at a time.
    A ``start`` that is not an int in 0..T, a ``stop`` that is not
    one in start..T (:func:`~vtcomp.errors.int_in`), or a block or pool
    matrix of any other shape raises ``ShapeMismatchError``.
    """
    start = int_in("start", start, 0, frames, ShapeMismatchError)
    stop = frames if stop is None else int_in("stop", stop, start, frames, ShapeMismatchError)
    block = np.ascontiguousarray(channel_major, dtype=np.float32)
    dim = block.shape[0]
    span = stop - start
    if block.shape != (dim, span * tokens):
        raise ShapeMismatchError(f"expected a {(dim, span * tokens)} block, got {block.shape}")
    pools = _stacked_pools(pool_rows, frames, dim)
    sq = np.zeros((span, tokens), dtype=np.float64)
    dots = np.zeros((len(pools), span, tokens), dtype=np.float64)

    if _lib is not None:
        _lib.token_reductions(block.ctypes.data, frames, tokens, dim, start, stop,
                              pools.ctypes.data, len(pools), sq.ctypes.data,
                              dots.ctypes.data)
        return sq, dots

    # (D', span, M) view of this frame range; each [c] is one contiguous
    # channel plane.  (D', P, span, 1) pool columns broadcast per channel.
    planes = block.reshape(dim, span, tokens)
    pool_cols = np.ascontiguousarray(pools[:, start:stop].transpose(2, 0, 1))[..., None]
    for c in range(dim):
        chan = planes[c].astype(np.float64)
        sq += chan * chan
        dots += chan * pool_cols[c]
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


def uniqueness_grids(values: np.ndarray, pool_rows) -> np.ndarray:
    """Minus the clamped cosine of every token to each pool matrix.

    The one scoring pass: ``values`` (T, M, D') float32 is transposed and
    reduced frame block by frame block against all P (T, D') pool matrices
    at once (``pool_rows``, a (P, T, D') array or a list), then the dot
    grids become the (P, T, M) array of uniqueness scores in [-1, 1].  The
    pass runs on the calling thread and reuses one channel-major buffer of
    about ``_BLOCK_BYTES``; the numpy bodies pay per call, so they take
    every frame as one block.  A pool matrix of any other shape raises
    ``ShapeMismatchError``.
    """
    values = np.ascontiguousarray(values, dtype=np.float32)
    frames, tokens, dim = values.shape
    pools = _stacked_pools(pool_rows, frames, dim)
    sq = np.empty((frames, tokens), dtype=np.float64)
    dots = np.empty((len(pools), frames, tokens), dtype=np.float64)
    frame_size = tokens * dim
    block = _BLOCK_BYTES // max(1, 4 * frame_size) if _lib is not None else frames
    step = max(1, min(block, frames))  # a frameless tensor walks no block
    buf = np.empty(step * frame_size, dtype=np.float32)
    for t0 in range(0, frames, step):
        t1 = min(t0 + step, frames)
        channel_major = buf[: (t1 - t0) * frame_size].reshape(dim, (t1 - t0) * tokens)
        transpose_tokens(values, out=channel_major, start=t0, stop=t1)
        sq[t0:t1], dots[:, t0:t1] = token_reductions(channel_major, frames, tokens, pools, t0, t1)

    pool_norms = np.empty((len(pools), frames, 1), dtype=np.float64)
    for norms, rows in zip(pool_norms, pools):  # one ordered_sums on the stack is slower
        norms[:, 0] = np.sqrt(ordered_sums(rows * rows))
    return -clamped_cosines(dots, np.sqrt(sq), pool_norms)
