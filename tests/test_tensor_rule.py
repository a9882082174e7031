"""The tensor rule: every function that reads a ``TokenTensor`` checks it by
``model.token_values`` (the layout) and ``model.finite_frame_sums`` (the
finiteness), so a raw ``TokenTensor(a)`` is the plug-in call and never
escapes as a bare error."""

import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from vtcomp import (
    DimensionMismatchError,
    NonFiniteError,
    Policy,
    RetentionConfig,
    TokenTensor,
    accum,
    cli,
    compress,
    frame_pool,
    frame_token_uniqueness,
    global_pool,
    uniform_topk,
    validate,
    video_uniqueness,
)
from vtcomp.compress import score_windows
from vtcomp.formats import read_vtok, write_vtok
from vtcomp.model import CompressedSelection

SHAPE = (4, 5, 3)
BAD_AT = (2, 3, 1)
BAD_INDEX = 40  # the C-order flat index of BAD_AT in SHAPE

READERS = {
    "validate": validate,
    "score_windows": lambda t: score_windows(t, [1, 2]),
    "compress": compress,
    "random": lambda t: Policy("random", seed=1).run(t),
    "uniform": uniform_topk,
    "global_pool": global_pool,
    "frame_pool": frame_pool,
    "video_uniqueness": lambda t: video_uniqueness(t, np.ones((SHAPE[0], SHAPE[2]))),
    "frame_token_uniqueness":
        lambda t: frame_token_uniqueness(t, np.ones((SHAPE[0], SHAPE[2]))),
}

LAYOUT_CASES = {"2-D": (4, 5), "4-D": (2, 4, 5, 3)}
VALUE_CASES = {"nan": (np.float32, np.nan), "+inf": (np.float32, np.inf),
               "-inf": (np.float32, -np.inf), "float64-1e300": (np.float64, 1e300)}


def _bad_values(case):
    dtype, bad = VALUE_CASES[case]
    values = np.ones(SHAPE, dtype=dtype)
    values[BAD_AT] = bad
    return values


@pytest.mark.filterwarnings("error")
class TestReaderTable:
    @pytest.mark.parametrize("case", LAYOUT_CASES)
    @pytest.mark.parametrize("reader", READERS)
    def test_wrong_axes_are_a_dimension_mismatch(self, reader, case):
        shape = LAYOUT_CASES[case]
        with pytest.raises(DimensionMismatchError, match=f"expected 3 axes, got {len(shape)}"):
            READERS[reader](TokenTensor(np.ones(shape, dtype=np.float32)))

    @pytest.mark.parametrize("case", VALUE_CASES)
    @pytest.mark.parametrize("reader", READERS)
    def test_non_finite_values_fail_at_from_arrays_index(self, reader, case):
        values = _bad_values(case)
        with pytest.raises(NonFiniteError) as validated:
            TokenTensor.from_array(values)
        assert validated.value.flat_index == BAD_INDEX
        if reader == "validate" and values.dtype != np.float32:
            with pytest.raises(DimensionMismatchError, match="expected float32 data"):
                validate(TokenTensor(values))
            return
        with pytest.raises(NonFiniteError) as read:
            READERS[reader](TokenTensor(values))
        assert read.value.flat_index == BAD_INDEX

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_write_vtok_checks_the_axes_before_it_opens_the_file(self, tmp_path, case):
        values = np.ones(LAYOUT_CASES[case], dtype=np.float32)
        with pytest.raises(DimensionMismatchError, match="expected 3 axes"):
            write_vtok(TokenTensor(values), tmp_path / "x.vtok")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", VALUE_CASES)
    def test_write_vtok_moves_non_finite_bytes_that_read_vtok_rejects(self, tmp_path, case):
        path = tmp_path / "x.vtok"
        write_vtok(TokenTensor(_bad_values(case)), path)
        with pytest.raises(NonFiniteError) as err:
            read_vtok(path)
        assert err.value.flat_index == BAD_INDEX

    @pytest.mark.parametrize("reader", READERS)
    def test_each_reader_sums_the_frames_once(self, reader, monkeypatch):
        tensor = TokenTensor.from_array(np.ones(SHAPE, dtype=np.float32))
        calls = []
        kernel = accum.frame_token_sums
        monkeypatch.setattr(accum, "frame_token_sums",
                            lambda values: calls.append(values.shape) or kernel(values))
        READERS[reader](tensor)
        assert calls == [SHAPE]


def test_one_frame_sum_call_site_outside_the_kernels():
    package = Path(accum.__file__).parent
    sites = [(path.name, line) for path in sorted(package.glob("*.py")) if path.name != "accum.py"
             for line in path.read_text().splitlines()
             if re.search(r"frame_token_sums\(", line)]
    assert [name for name, _ in sites] == ["model.py"], sites


@pytest.mark.filterwarnings("error")
class TestEmptyAxes:
    @pytest.mark.parametrize("pool", [global_pool, frame_pool])
    @pytest.mark.parametrize("shape", [(0, 5, 3), (4, 0, 3)])
    def test_a_pool_over_nothing_is_a_dimension_mismatch(self, pool, shape):
        with pytest.raises(DimensionMismatchError, match="a pool needs frames and tokens"):
            pool(TokenTensor(np.ones(shape, dtype=np.float32)))

    @pytest.mark.parametrize("reader", ["compress", "score_windows", "uniform"])
    def test_scoring_no_tokens_is_a_dimension_mismatch(self, reader):
        with pytest.raises(DimensionMismatchError, match="a pool needs frames and tokens"):
            READERS[reader](TokenTensor(np.ones((4, 0, 3), dtype=np.float32)))

    @pytest.mark.parametrize("reader", ["compress", "score_windows", "uniform", "vidcom2"])
    def test_scoring_no_frames_is_a_dimension_mismatch_before_any_window(self, reader):
        # Not "window must be an int in 1..0": the frame-level window 1 is not the caller's.
        call = READERS.get(reader) or (lambda t: Policy(reader).run(t))
        with pytest.raises(DimensionMismatchError,
                           match=r"a pool needs frames and tokens >= 1, got 0 and 5"):
            call(TokenTensor(np.ones((0, 5, 3), dtype=np.float32)))

    def test_a_pool_over_no_channels_is_empty(self):
        assert global_pool(TokenTensor(np.ones((4, 5, 0), dtype=np.float32))).shape == (4, 0)

    @pytest.mark.parametrize("numpy_body", [False, True])
    def test_random_selects_no_frames_from_none(self, numpy_body, monkeypatch):
        if numpy_body:
            monkeypatch.setattr(accum, "_lib", None)
        values = np.ones((0, 5, 3), dtype=np.float32)
        got = Policy("random").run(TokenTensor(values))
        want = CompressedSelection.from_mask(values, np.zeros((0, 5), dtype=bool))
        assert got.frames == want.frames == 0
        assert got.kept_indices == want.kept_indices and got.compressed == want.compressed


@pytest.fixture(scope="module")
def baseline_lib(tmp_path_factory):
    """``_accum.c`` built with its x86 dispatch compiled out."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return accum._build(Path(accum.__file__).with_name("_accum.c"),
                        tmp_path_factory.mktemp("baseline"), ("-DVTCOMP_BASELINE_ONLY",))


@pytest.fixture(params=["loaded", "baseline", "numpy"])
def body(request, monkeypatch):
    """Each kernel body in turn: the loaded library, its baseline-only build
    and the numpy bodies."""
    if request.param != "numpy" and accum._lib is None:
        pytest.skip("compiled kernel not loaded")
    if request.param == "baseline":
        monkeypatch.setattr(accum, "_lib", request.getfixturevalue("baseline_lib"))
    elif request.param == "numpy":
        monkeypatch.setattr(accum, "_lib", None)
    return request.param


def _layouts(x):
    wide = np.zeros(x.shape[:2] + (2 * x.shape[2],), dtype=np.float32)
    wide[:, :, 1::2] = x
    return {"c": x.copy(), "fortran": np.asfortranarray(x), "strided": wide[:, :, 1::2],
            "float64": x.astype(np.float64)}


def _outputs(result):
    return [a.tobytes() for a in (
        *vars(result.report).values(), result.allocation.per_frame_ratio,
        result.allocation.per_frame_count, *result.selection.kept_indices,
        *result.selection.compressed)]


@pytest.mark.filterwarnings("error")
class TestPlugInCall:
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "float64"])
    def test_equals_the_from_array_form_byte_for_byte(self, body, layout):
        assert (accum._lib is None) == (body == "numpy")
        x = np.random.default_rng(34).standard_normal((6, 37, 70)).astype(np.float32)
        values = _layouts(x)[layout]
        config = RetentionConfig(ratio=0.4, window=2)
        expected = _outputs(compress(TokenTensor.from_array(values), config))
        assert _outputs(compress(TokenTensor(values), config)) == expected

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "float64"])
    @pytest.mark.parametrize("policy", ["vidcom2", "random"])
    def test_no_result_aliases_the_callers_array(self, layout, policy):
        x = np.random.default_rng(35).standard_normal((5, 9, 7)).astype(np.float32)
        values = _layouts(x)[layout]
        if policy == "vidcom2":
            result = compress(TokenTensor(values))
            arrays = [*vars(result.report).values(), *result.selection.compressed]
        else:
            arrays = list(Policy("random").run(TokenTensor(values)).compressed)
        before = [a.tobytes() for a in arrays]
        values[...] = 0.0
        assert [a.tobytes() for a in arrays] == before
        assert not any(np.shares_memory(a, values) for a in arrays)


def test_bench_takes_no_threads(capsys):
    # Scoring runs on the calling thread, so bench neither takes nor reports threads.
    flags = ["bench", "--frames", "2", "--tokens", "4", "--dim", "4", "--iters", "1"]
    assert cli.main(flags + ["--threads", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: flag: unrecognized arguments: --threads")
    assert cli.main(flags) == 0
    assert "thread" not in capsys.readouterr().out
    assert cli.main(flags + ["--format", "csv"]) == 0
    header, _ = capsys.readouterr().out.strip().split("\n")
    assert "threads" not in header.split(",")
