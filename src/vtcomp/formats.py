"""On-disk formats: the .vtok binary tensor container and CSV score exports.

.vtok layout (all little-endian, regardless of host):

    bytes 0..3    magic "VTK1"
    bytes 4..5    uint16 version, currently 1
    bytes 6..9    uint32 frame count T
    bytes 10..13  uint32 tokens per frame M
    bytes 14..17  uint32 channel count D'
    bytes 18..    T*M*D' float32 values, row-major (frame, token, channel)

A valid file is exactly 18 + 4*T*M*D' bytes; round-trips are bit-exact.

The payload is copied once each way.  ``read_vtok`` reads it from the file
straight into the array ``TokenTensor.from_array`` validates, with no
mapping and no bytes object of the file; ``write_vtok`` writes the header
and then the tensor's own buffer.  A file that ends before its declared
payload does, even one cut short while it is read, is a truncated payload.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    DimensionMismatchError,
    OversizedPayloadError,
    ShapeMismatchError,
    TruncatedPayloadError,
)
from .model import MAX_AXIS, BudgetAllocation, ScoreReport, TokenTensor, token_values

MAGIC = b"VTK1"
VERSION = 1
HEADER = struct.Struct("<4sHIII")


def write_vtok(tensor: TokenTensor, path) -> None:
    """Write a tensor as header plus payload, with no staging copy.

    The payload is :func:`~vtcomp.model.token_values`' C-ordered float32
    array, the tensor's own buffer when it is one, written straight from
    memory as little-endian.  The values are not checked for finiteness:
    the bytes go out as they are, and :func:`read_vtok` rejects a
    non-finite one.  Raises ``DimensionMismatchError``, before the file is
    opened, for values that do not have 3 axes and for an axis the header
    cannot hold.
    """
    shape = np.shape(tensor.values)
    if max(shape, default=0) > MAX_AXIS:  # before token_values would copy it
        raise DimensionMismatchError(
            f"shape {shape} has an axis above the .vtok limit {MAX_AXIS}")
    payload = token_values(tensor).astype("<f4", copy=False)
    header = HEADER.pack(MAGIC, VERSION, *payload.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def read_vtok(path) -> TokenTensor:
    """Read and fully validate a .vtok file.

    The header is read and checked first; the payload is then read from
    the file straight into the tensor's own array, so it is copied once,
    from the file into the validated tensor, and the tensor does not
    depend on the file afterwards.

    Raises BadMagicError / BadVersionError for a foreign or newer file,
    TruncatedPayloadError / OversizedPayloadError when the byte count does
    not match the header exactly (also when the file shrinks while it is
    read), and the tensor validation errors (e.g. NonFiniteError) for a
    structurally sound file with bad values.
    """
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        size = os.fstat(fh.fileno()).st_size
        if len(head) >= 4 and head[:4] != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, got {head[:4]!r}")
        if len(head) < HEADER.size:
            raise TruncatedPayloadError(
                f"file has {size} bytes, shorter than the {HEADER.size}-byte header"
            )
        _, version, frames, tokens, dim = HEADER.unpack(head)
        if version != VERSION:
            raise BadVersionError(f"unsupported version {version}, expected {VERSION}")
        expected = HEADER.size + 4 * frames * tokens * dim
        if size < expected:
            raise TruncatedPayloadError(
                f"header declares {expected} bytes, file has only {size}"
            )
        if size > expected:
            raise OversizedPayloadError(
                f"header declares {expected} bytes, file has {size}"
            )
        return TokenTensor.from_array(_Payload(fh, (frames, tokens, dim)))


class _Payload:
    """The payload of an open .vtok file, read when numpy asks for it.

    ``from_array`` converts it with ``copy=True``; the array ``__array__``
    returns is new, so numpy >= 2 keeps it as the tensor's values.
    """

    def __init__(self, fh, shape):
        self._fh, self._shape = fh, shape

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self._shape, dtype="<f4")
        buffer = out.reshape(-1).view(np.uint8)
        filled = 0
        while filled < buffer.size:
            got = self._fh.readinto(buffer[filled:])
            if not got:
                raise TruncatedPayloadError(
                    f"header declares {HEADER.size + buffer.size} bytes, file ended "
                    f"after {HEADER.size + filled}")
            filled += got
        return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def export_scores(report: ScoreReport, allocation: BudgetAllocation, path) -> None:
    """Write the per-frame stage-1 table as CSV.

    Columns: frame, u_t, sigma_t, r_t, k_t — one row per frame, six
    significant digits, LF line endings.
    """
    if report.frames != allocation.frames:
        raise ShapeMismatchError(
            f"report covers {report.frames} frames, allocation {allocation.frames}"
        )
    lines = ["frame,u_t,sigma_t,r_t,k_t"]
    for t in range(report.frames):
        lines.append(
            f"{t},{_fmt(report.frame_uniqueness[t])},{_fmt(report.frame_weight[t])},"
            f"{_fmt(allocation.per_frame_ratio[t])},{int(allocation.per_frame_count[t])}"
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def export_token_scores(report: ScoreReport, path) -> None:
    """Write the per-token score grids as CSV (frame, token, three scores)."""
    lines = ["frame,token,u_video,u_frame,u_combined"]
    frames, tokens = report.video_score.shape
    for t in range(frames):
        for m in range(tokens):
            lines.append(
                f"{t},{m},{_fmt(report.video_score[t, m])},"
                f"{_fmt(report.frame_score[t, m])},{_fmt(report.combined_score[t, m])}"
            )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def export_indices(selection, path) -> None:
    """Write per-frame kept indices as CSV rows of (frame, kept_index)."""
    lines = ["frame,kept_index"]
    for t, idx in enumerate(selection.kept_indices):
        for i in idx:
            lines.append(f"{t},{int(i)}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
