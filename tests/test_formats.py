import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import (
    BadMagicError,
    BadVersionError,
    DimensionMismatchError,
    NonFiniteError,
    OversizedPayloadError,
    RetentionConfig,
    ShapeMismatchError,
    TokenTensor,
    TruncatedPayloadError,
    compress,
    export_indices,
    export_scores,
    export_token_scores,
    read_vtok,
    write_vtok,
)
from vtcomp import formats
from vtcomp.formats import HEADER, MAGIC, VERSION


def make_file(path, frames=2, tokens=2, dim=2, *, magic=b"VTK1", version=1,
              payload=None):
    header = struct.pack("<4sHIII", magic, version, frames, tokens, dim)
    if payload is None:
        payload = np.arange(frames * tokens * dim, dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    return path


class TestVtokRoundTrip:
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 4)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, tmp_path_factory, shape, seed):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20)).astype(np.float32)
        tensor = TokenTensor.from_array(values)
        path = tmp_path_factory.mktemp("vtok") / "t.vtok"
        write_vtok(tensor, path)
        back = read_vtok(path)
        assert back.values.tobytes() == tensor.values.tobytes()
        assert (back.frames, back.tokens_per_frame, back.dim) == shape

    def test_degenerate_smallest_tensor(self, tmp_path):
        t = TokenTensor.from_flat(1, 1, 1, [-0.0])
        path = tmp_path / "one.vtok"
        write_vtok(t, path)
        back = read_vtok(path)
        assert back.values.tobytes() == t.values.tobytes()

    def test_file_size_formula(self, tmp_path, rng):
        values = rng.standard_normal((3, 5, 7)).astype(np.float32)
        path = tmp_path / "s.vtok"
        write_vtok(TokenTensor.from_array(values), path)
        assert path.stat().st_size == 18 + 4 * 3 * 5 * 7

    def test_extreme_float32_values_survive(self, tmp_path):
        finfo = np.finfo(np.float32)
        values = np.array(
            [[[finfo.max, finfo.min, finfo.tiny, -finfo.tiny, 0.0, -0.0]]],
            dtype=np.float32,
        )
        path = tmp_path / "x.vtok"
        write_vtok(TokenTensor.from_array(values), path)
        assert read_vtok(path).values.tobytes() == values.tobytes()


class TestVtokBuffers:
    """The reader copies the file once and maps nothing; the writer adds no copy."""

    def test_read_is_a_frozen_copy_of_the_file(self, tmp_path, rng):
        values = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "a.vtok"
        write_vtok(TokenTensor.from_array(values), path)
        back = read_vtok(path)
        with open(path, "r+b") as fh:
            fh.seek(HEADER.size)
            fh.write(np.full(values.size, 7.0, dtype="<f4").tobytes())
        assert back.values.tobytes() == values.tobytes()
        assert not back.values.flags.writeable

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc")
    @pytest.mark.parametrize("case", ["valid", "non-finite", "no-frames"])
    def test_no_mapping_outlives_the_read(self, tmp_path, case):
        path = tmp_path / "m.vtok"
        if case == "no-frames":
            make_file(path, frames=0, payload=b"")
        else:
            payload = np.arange(8, dtype="<f4")
            if case == "non-finite":
                payload[3] = np.inf
            make_file(path, payload=payload.tobytes())

        def mappings():
            name = os.path.realpath(path)
            with open("/proc/self/maps") as fh:
                return [line for line in fh if line.rstrip().endswith(name)]

        if case == "valid":
            back = read_vtok(path)
            assert mappings() == []
            assert back.values.tobytes() == np.arange(8, dtype="<f4").tobytes()
        else:
            error = NonFiniteError if case == "non-finite" else DimensionMismatchError
            with pytest.raises(error):
                read_vtok(path)
            assert mappings() == []

    @pytest.mark.parametrize("strided", [False, True])
    def test_write_is_header_then_payload(self, tmp_path, rng, strided):
        block = rng.standard_normal((3, 8, 5)).astype(np.float32)
        values = block[:, ::2, :] if strided else block
        assert values.flags.c_contiguous is not strided
        path = tmp_path / "w.vtok"
        write_vtok(TokenTensor(values), path)
        assert path.read_bytes() == (HEADER.pack(MAGIC, VERSION, *values.shape)
                                     + values.astype("<f4").tobytes())


class TestVtokErrors:
    def test_bad_magic(self, tmp_path):
        with pytest.raises(BadMagicError):
            read_vtok(make_file(tmp_path / "b.vtok", magic=b"XXXX"))

    def test_bad_version(self, tmp_path):
        with pytest.raises(BadVersionError):
            read_vtok(make_file(tmp_path / "b.vtok", version=2))

    def test_truncated_payload(self, tmp_path):
        path = make_file(tmp_path / "b.vtok")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedPayloadError):
            read_vtok(path)

    def test_header_declaring_more_than_file_has(self, tmp_path):
        small_payload = np.zeros(8, dtype="<f4").tobytes()  # 2x2x2 worth
        path = make_file(tmp_path / "b.vtok", frames=100, payload=small_payload)
        with pytest.raises(TruncatedPayloadError):
            read_vtok(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = make_file(tmp_path / "b.vtok")
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(OversizedPayloadError):
            read_vtok(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "b.vtok"
        path.write_bytes(b"VTK1\x01")
        with pytest.raises(TruncatedPayloadError):
            read_vtok(path)

    def test_nonfinite_payload(self, tmp_path):
        payload = np.array([1.0, np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype="<f4")
        path = make_file(tmp_path / "b.vtok", payload=payload.tobytes())
        with pytest.raises(NonFiniteError) as err:
            read_vtok(path)
        assert err.value.flat_index == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.vtok"
        path.write_bytes(b"")
        with pytest.raises(TruncatedPayloadError):
            read_vtok(path)

    def test_file_shrunk_after_the_size_check(self, tmp_path, monkeypatch):
        # The size check sees the declared size; the payload read meets the
        # end of a file 8 bytes shorter, as if it were cut while read.
        path = make_file(tmp_path / "b.vtok")
        declared = path.stat()
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(formats.os, "fstat", lambda fd: declared)
        with pytest.raises(TruncatedPayloadError, match="file ended after 42"):
            read_vtok(path)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_axis_past_the_header_writes_nothing(self, tmp_path, axis):
        # A zero-stride view: 2**32 elements along one axis, one float stored.
        shape = [1, 1, 1]
        shape[axis] = 2**32
        values = np.lib.stride_tricks.as_strided(np.zeros(1, dtype=np.float32),
                                                 shape=tuple(shape), strides=(0, 0, 0))
        with pytest.raises(DimensionMismatchError, match="limit 4294967295"):
            write_vtok(TokenTensor(values), tmp_path / "big.vtok")
        assert list(tmp_path.iterdir()) == []

class TestScoreExport:
    def _result(self, rng, frames=2, tokens=3):
        values = rng.standard_normal((frames, tokens, 2)).astype(np.float32)
        return compress(TokenTensor.from_array(values), RetentionConfig(ratio=0.5))

    def test_header_and_row_count(self, tmp_path, rng):
        result = self._result(rng)
        out = tmp_path / "scores.csv"
        export_scores(result.report, result.allocation, out)
        lines = out.read_bytes().decode().split("\n")
        assert lines[0] == "frame,u_t,sigma_t,r_t,k_t"
        assert len(lines) == 4 and lines[-1] == ""  # header + 2 rows + final LF

    def test_lf_endings_and_six_digits(self, tmp_path, rng):
        result = self._result(rng)
        out = tmp_path / "scores.csv"
        export_scores(result.report, result.allocation, out)
        blob = out.read_bytes()
        assert b"\r" not in blob
        row = blob.decode().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(result.report.frame_uniqueness[0], rel=1e-5)
        assert row[4] == str(int(result.allocation.per_frame_count[0]))

    def test_uniform_video_equal_rows(self, tmp_path):
        values = np.tile(np.array([1.0, 2.0], dtype=np.float32), (3, 4, 1))
        result = compress(TokenTensor.from_array(values), RetentionConfig())
        out = tmp_path / "scores.csv"
        export_scores(result.report, result.allocation, out)
        rows = [line.split(",", 1)[1] for line in
                out.read_text().strip().split("\n")[1:]]
        assert len(set(rows)) == 1

    def test_frame_count_mismatch(self, tmp_path, rng):
        a = self._result(rng, frames=2)
        b = self._result(rng, frames=3)
        with pytest.raises(ShapeMismatchError):
            export_scores(a.report, b.allocation, tmp_path / "x.csv")

    def test_token_scores_export(self, tmp_path, rng):
        result = self._result(rng, frames=2, tokens=3)
        out = tmp_path / "tok.csv"
        export_token_scores(result.report, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "frame,token,u_video,u_frame,u_combined"
        assert len(lines) == 1 + 2 * 3

    def test_indices_export(self, tmp_path, rng):
        result = self._result(rng)
        out = tmp_path / "idx.csv"
        export_indices(result.selection, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "frame,kept_index"
        assert len(lines) == 1 + result.selection.total_kept
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[1]) == int(result.selection.kept_indices[0][0])
