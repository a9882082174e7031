"""The array rule: every stage function that reads a score grid, a per-frame
vector, frame sums or pools from its caller checks it through
``errors.array_in``.  A wrong rank or shape is a ``ShapeMismatchError``
naming the parameter, and a NaN or ±inf a ``NonFiniteError`` at the C-order
flat index of the first: never a silent -0.0 or NaN, a RuntimeWarning or a
bare numpy error."""

import re
from pathlib import Path

import numpy as np
import pytest

from vtcomp import (
    NonFiniteError,
    RetentionConfig,
    ShapeMismatchError,
    TokenTensor,
    accum,
    allocate,
    combine_scores,
    cosine,
    frame_token_uniqueness,
    frame_uniqueness,
    softmax_weights,
    topk_select,
    video_uniqueness,
)
from vtcomp.budget import frame_counts, pools_from_frame_sums
from vtcomp.compress import keep_top, select_budgets, token_ranks
from vtcomp.errors import array_in

T, M, D = 3, 4, 5
VALUES = np.ones((T, M, D), dtype=np.float32)

# Each reader: its call on the array under test, the parameter the errors
# name, the shape it accepts, and a shape of another rank (None when every
# rank is accepted).
READERS = {
    "token_ranks": (token_ranks, "scores", (T, M), (M,)),
    "topk_select-row": (lambda a: topk_select(a, 2), "scores", (M,), (1, 1, M)),
    "topk_select-grid": (lambda a: topk_select(a, [1] * T), "scores", (T, M), (T, M, 1)),
    "keep_top": (lambda a: keep_top(a, [1] * T), "ranks", (T, M), (T * M,)),
    "frame_uniqueness": (frame_uniqueness, "u_video", (T, M), (T,)),
    "combine_scores-u_frame":
        (lambda a: combine_scores(a, np.zeros((T, M))), "u_frame", (T, M), None),
    "combine_scores-u_video":
        (lambda a: combine_scores(np.zeros((T, M)), a), "u_video", (T, M), (T, M, 1)),
    "softmax_weights": (lambda a: softmax_weights(a, 0.01, 1e-8), "u", (T,), (T, 1)),
    "allocate": (lambda a: allocate(a, 0.25, M), "sigma", (T,), (T, 1)),
    "frame_counts": (lambda a: frame_counts(a, M, 1), "ratios", (T,), (1, T)),
    "pools_from_frame_sums":
        (lambda a: pools_from_frame_sums(a, M, 1), "frame_sums", (T, D), (T * D,)),
    "uniqueness_grids":
        (lambda a: accum.uniqueness_grids(VALUES, a), "pool_rows", (2, T, D), (2, T, D, 1)),
    "video_uniqueness":
        (lambda a: video_uniqueness(TokenTensor(VALUES), a), "pool_rows", (T, D), (T * D,)),
    "frame_token_uniqueness":
        (lambda a: frame_token_uniqueness(TokenTensor(VALUES), a), "pool_rows", (T, D), (T,)),
    "cosine-a": (lambda a: cosine(a, np.ones(a.shape)), "a", (T, M), None),
    "cosine-b": (lambda a: cosine(np.ones(a.shape), a), "b", (T, M), None),
}
RANKED = [name for name, entry in READERS.items() if entry[3] is not None]
BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@pytest.mark.filterwarnings("error")
class TestReaderTable:
    @pytest.mark.parametrize("reader", RANKED)
    def test_another_rank_is_a_shape_mismatch_naming_the_parameter(self, reader):
        call, name, _, wrong = READERS[reader]
        with pytest.raises(ShapeMismatchError, match=name) as err:
            call(np.ones(wrong))
        assert type(err.value) is ShapeMismatchError

    @pytest.mark.parametrize("case", BAD)
    @pytest.mark.parametrize("reader", READERS)
    def test_a_non_finite_element_fails_at_the_first(self, reader, case):
        call, name, shape, _ = READERS[reader]
        array = np.ones(shape)
        first = array.size // 2
        array.reshape(-1)[[first, -1]] = BAD[case]  # the last one is not reported
        with pytest.raises(NonFiniteError, match=f"in {name} at flat index {first}\\b") as err:
            call(array)
        assert err.value.flat_index == first

    @pytest.mark.parametrize("reader", READERS)
    def test_the_accepted_shape_is_read(self, reader):
        call, _, shape, _ = READERS[reader]
        call(np.zeros(shape))


@pytest.mark.filterwarnings("error")
class TestEscapesClosed:
    def test_nan_pools_are_not_a_negative_zero_score(self):
        pools = np.ones((T, D))
        pools[1, 2] = np.nan
        with pytest.raises(NonFiniteError, match=r"\(pool 0, frame 1, channel 2\)") as err:
            accum.uniqueness_grids(VALUES, [pools])
        assert err.value.flat_index == 7

    def test_a_per_frame_error_names_the_frame(self):
        with pytest.raises(NonFiniteError, match=r"in sigma at flat index 1 \(frame 1\)"):
            allocate([0.5, np.inf, np.nan], 0.25, 10)

    @pytest.mark.parametrize("call", [
        lambda: token_ranks(np.zeros(3)),
        lambda: keep_top(np.zeros(3, dtype=np.int64), [1]),
        lambda: softmax_weights(np.zeros((2, 2)), 0.01, 1e-8),
        lambda: allocate(np.zeros((2, 2)), 0.25, 10),
        lambda: frame_counts(np.zeros((2, 2)), 5, 1),
        lambda: pools_from_frame_sums(np.zeros(3), 2, 1),
        lambda: softmax_weights(0.5, 0.01, 1e-8),
        lambda: topk_select(np.float64(0.5), 1),
        lambda: topk_select([[1.0, 2.0], [3.0]], [1, 1]),
        lambda: combine_scores(np.zeros((2, 3)), np.zeros((3, 2))),
        lambda: select_budgets(RetentionConfig(), {"global": np.zeros(3)}),
        lambda: combine_scores(np.array([[1 + 1j, 0.0]]), np.zeros((1, 2))),
    ], ids=["ranks-1d", "keep-top-1d", "softmax-2d", "allocate-2d", "frame-counts-2d",
            "frame-sums-1d", "softmax-0d", "topk-0d", "topk-ragged", "combine-transposed",
            "select-budgets-1d", "combine-complex"])
    def test_each_is_a_shape_mismatch(self, call):
        with pytest.raises(ShapeMismatchError) as err:
            call()
        assert type(err.value) is ShapeMismatchError


@pytest.mark.filterwarnings("error")
class TestAcceptedShapesKeepTheirBytes:
    GRID = np.array([[0.5, -0.0, 0.0, 2.0], [1.0, 1.0, -1.0, 0.25], [3.0, 2.0, 1.0, 0.0]])

    @pytest.mark.parametrize("form", ["list", "float32", "fortran", "strided"])
    @pytest.mark.parametrize("reader", ["token_ranks", "frame_uniqueness", "combine_scores",
                                        "topk_select-grid"])
    def test_any_layout_or_real_dtype_reads_as_the_c_ordered_float64_grid(self, reader, form):
        call = {"token_ranks": token_ranks, "frame_uniqueness": frame_uniqueness,
                "combine_scores": lambda a: combine_scores(a, a),
                "topk_select-grid": lambda a: topk_select(a, [2, 1, 3])}[reader]
        wide = np.zeros((T, 2 * M))
        wide[:, ::2] = self.GRID
        given = {"list": self.GRID.tolist(), "float32": self.GRID.astype(np.float32),
                 "fortran": np.asfortranarray(self.GRID), "strided": wide[:, ::2]}[form]
        assert call(given).tobytes() == call(self.GRID).tobytes()

    def test_one_row_selects_its_ascending_indices(self):
        assert topk_select([0.5, -0.0, 0.0, 2.0], 2).tolist() == [0, 3]
        assert topk_select([0.5, -0.0, 0.0, 2.0], 0).tolist() == []

    def test_no_frames_give_no_counts(self):
        # allocate([]) and softmax_weights([]) are tests/test_model.py's.
        assert frame_counts(np.zeros(0), 10, 1).tolist() == []

    @pytest.mark.parametrize("shape", [(0, M), (T, 0)])
    def test_empty_grids_rank_and_cut_to_empty_masks(self, shape):
        ranks = token_ranks(np.zeros(shape))
        assert ranks.shape == shape
        assert keep_top(ranks, np.zeros(shape[0], dtype=np.int64)).shape == shape
        assert combine_scores(np.zeros(shape), np.zeros(shape)).shape == shape



class TestTheRule:
    def test_a_c_ordered_float64_array_is_not_copied(self):
        grid = np.zeros((T, M))
        assert array_in("grid", grid, ("frame", "token")) is grid

    def test_integer_ranks_keep_their_dtype(self):
        ranks = np.zeros((T, M), dtype=np.int32)
        assert array_in("ranks", ranks, ("frame", "token"), dtype=None) is ranks


def test_every_finiteness_search_is_the_rules():
    package = Path(accum.__file__).parent
    sites = sorted({path.name for path in package.glob("*.py")
                    if re.search(r"np\.isfinite|argmin\(finite", path.read_text())})
    assert sites == ["errors.py"], sites
