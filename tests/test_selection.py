"""Selections checked against a per-frame reference written out here.

The reference ranks each frame with the 1-D ``topk_select`` and gathers
``values[t, idx]`` one frame at a time; the random reference walks one
PCG64 stream, one permutation per frame.  Every policy must match it byte
for byte, and every array a selection hands out must be read-only.  The
grid form of ``topk_select``, and one ``token_ranks`` ranking cut by
``keep_top`` at any count vector, must agree row by row with the 1-D form;
each selection must rank its grid once.
"""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vtcomp.cli
from vtcomp import (
    Adjustment,
    Aggregation,
    ConfigError,
    KExceedsMError,
    RetentionConfig,
    ScoreMode,
    ShapeMismatchError,
    TokenTensor,
    compress,
    random_drop,
    topk_select,
    uniform_topk,
    write_vtok,
)

# The package attribute ``vtcomp.compress`` is the function, not the module.
COMPRESS_MODULE = importlib.import_module("vtcomp.compress")

CASES = range(30)
RATIOS = (0.1, 0.25, 0.5, 1.0)


def _tensor(case: int) -> TokenTensor:
    """A small seeded tensor; odd cases are rounded so scores tie often."""
    rng = np.random.default_rng(1000 + case)
    shape = tuple(int(n) for n in (rng.integers(1, 7), rng.integers(1, 13), rng.integers(1, 10)))
    values = rng.standard_normal(shape)
    if case % 2:
        values = np.round(values)
    return TokenTensor.from_array(values.astype(np.float32))


def _configs():
    for ratio in RATIOS:
        for adjustment in Adjustment:
            for min_tokens in (1, 3):
                yield RetentionConfig(ratio=ratio, adjustment=adjustment,
                                      min_tokens_per_frame=min_tokens)


def _reference(values, combined, counts):
    kept = [topk_select(combined[t], int(k)) for t, k in enumerate(counts)]
    return kept, [values[t, idx] for t, idx in enumerate(kept)]


def _random_reference(values, ratio, seed):
    frames, tokens, _ = values.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    kept = [np.sort(rng.permutation(tokens)[: math.ceil(ratio * tokens)]) for _ in range(frames)]
    return kept, [values[t, idx] for t, idx in enumerate(kept)]


def _assert_same(selection, kept, blocks):
    assert len(selection.kept_indices) == len(kept) == len(selection.compressed)
    for got, want in zip(selection.kept_indices, kept):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.astype(np.int64).tobytes()
    for got, want in zip(selection.compressed, blocks):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _selections(tensor):
    """(selection, per-frame reference) for every policy and config."""
    values = tensor.values
    for cfg in _configs():
        result = compress(tensor, cfg)
        yield result.selection, _reference(values, result.report.combined_score,
                                           result.allocation.per_frame_count)
        uniform = compress(tensor, replace(cfg, adjustment=Adjustment.UNIFORM))
        yield uniform_topk(tensor, cfg), _reference(values, uniform.report.combined_score,
                                                     uniform.allocation.per_frame_count)
    for ratio in RATIOS:
        for seed in (0, 5):
            yield random_drop(tensor, ratio, seed), _random_reference(values, ratio, seed)


@pytest.mark.parametrize("case", CASES)
def test_every_policy_matches_the_per_frame_reference(case):
    for selection, (kept, blocks) in _selections(_tensor(case)):
        _assert_same(selection, kept, blocks)


@pytest.mark.parametrize("case", CASES)
def test_every_selection_array_is_read_only(case):
    for selection, _ in _selections(_tensor(case)):
        for array in selection.kept_indices + selection.compressed:
            assert not array.flags.writeable
            assert array.base is None or not array.base.flags.writeable


# Few distinct values, signed zeros among them, so most rows tie somewhere.
TIED = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def grids(draw):
    frames, tokens = draw(st.integers(1, 6)), draw(st.one_of(st.integers(1, 12), st.just(40)))
    cell = st.one_of(TIED, st.floats(-1e3, 1e3, allow_nan=False))
    rows = draw(st.lists(st.lists(cell, min_size=tokens, max_size=tokens),
                         min_size=frames, max_size=frames))
    count = st.one_of(st.just(0), st.just(tokens), st.integers(0, tokens))
    counts = draw(st.lists(count, min_size=frames, max_size=frames))
    return np.array(rows, dtype=np.float64), np.array(counts, dtype=np.int64)


class TestGridTopk:
    @settings(max_examples=300, deadline=None)
    @given(grids())
    def test_each_row_is_the_one_row_selection(self, case):
        grid, counts = case
        keep = topk_select(grid, counts)
        assert keep.dtype == bool and keep.shape == grid.shape
        for t, k in enumerate(counts):
            picked = np.flatnonzero(keep[t]).tolist()
            assert picked == topk_select(grid[t], int(k)).tolist()
            # largest first, ties to the lower index; -0.0 == 0.0 is a tie
            ranked = sorted(range(grid.shape[1]), key=lambda i: (-grid[t, i], i))
            assert picked == sorted(ranked[:k])

    @settings(max_examples=300, deadline=None)
    @given(grids(), st.data())
    def test_one_ranking_serves_every_count_vector(self, case, data):
        grid, counts = case
        frames, tokens = grid.shape
        ranks = COMPRESS_MODULE.token_ranks(grid)
        again = np.array(data.draw(st.lists(st.integers(0, tokens),
                                            min_size=frames, max_size=frames)))
        for k in (counts, again):
            keep = COMPRESS_MODULE.keep_top(ranks, k)
            assert keep.dtype == bool and keep.shape == grid.shape
            for t in range(frames):
                picked = np.flatnonzero(keep[t]).tolist()
                assert picked == topk_select(grid[t], int(k[t])).tolist()
                # topk_select is built on keep_top, so check a sort as well
                ranked = sorted(range(tokens), key=lambda i: (-grid[t, i], i))
                assert picked == sorted(ranked[:k[t]])

        bad = counts.copy()
        bad[data.draw(st.integers(0, frames - 1))] = data.draw(
            st.one_of(st.integers(-tokens - 2, -1), st.integers(tokens + 1, 2 * tokens + 2)))
        with pytest.raises(KExceedsMError):
            COMPRESS_MODULE.keep_top(ranks, bad)
        for wrong in (counts[:-1], np.append(counts, 0), counts[None, :]):
            with pytest.raises(ShapeMismatchError):
                COMPRESS_MODULE.keep_top(ranks, wrong)

    def test_signed_zero_ties_go_to_the_lower_index(self):
        keep = topk_select([[-0.0, 1.0, 0.0], [0.0, 0.0, -0.0]], [2, 1])
        assert keep.tolist() == [[True, True, False], [True, False, False]]

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_count_outside_zero_to_m_raises(self, bad, row):
        counts = [1, 2, 3]
        counts[row] = bad
        with pytest.raises(KExceedsMError):
            topk_select(np.zeros((3, 3)), counts)

    @pytest.mark.parametrize("counts", [[1, 1], [1, 1, 1, 1], [[1, 1, 1]], []])
    def test_count_vector_of_wrong_length_raises(self, counts):
        with pytest.raises(ShapeMismatchError):
            topk_select(np.zeros((3, 4)), counts)

    @pytest.mark.parametrize("select", [
        lambda grid: topk_select(grid[0], 2.5),
        lambda grid: topk_select(grid[0], math.nan),
        lambda grid: topk_select(grid[0], True),
        lambda grid: topk_select(grid[0], np.True_),
        lambda grid: topk_select(grid, [1.5, 2]),
        lambda grid: topk_select(grid, np.array([2.0, math.nan])),
        lambda grid: COMPRESS_MODULE.keep_top(COMPRESS_MODULE.token_ranks(grid), [1.5, 2]),
        lambda grid: COMPRESS_MODULE.keep_top(COMPRESS_MODULE.token_ranks(grid), [True, 2]),
        lambda grid: COMPRESS_MODULE.keep_top(COMPRESS_MODULE.token_ranks(grid),
                                              np.array([True, False])),
    ], ids=["2.5", "nan", "True", "np.True_", "list-1.5", "array-nan", "keep_top-1.5",
            "keep_top-list-True", "keep_top-bool-array"])
    def test_count_that_is_not_a_whole_number_raises(self, select):
        # 2.5 used to keep 3 tokens, NaN none, [1.5, 2] kept 2 in row 0 and
        # True counted as 1.
        grid = np.array([[3.0, 1.0, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
        with pytest.raises(ConfigError):
            select(grid)

    def test_whole_float_counts_are_counts(self):
        grid = np.array([[3.0, 1.0, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
        assert topk_select(grid[0], 2.0).tolist() == [0, 2]
        assert np.array_equal(topk_select(grid, np.array([1.0, 2.0])), topk_select(grid, [1, 2]))
        for k in (math.inf, -math.inf, 5.0):  # whole, but outside 0..M
            with pytest.raises(KExceedsMError):
                topk_select(grid[0], k)


class TestOneRankingPerSelection:
    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = COMPRESS_MODULE.token_ranks

        def spy(*args):
            made.append(args)
            return real(*args)

        # topk_select looks the name up in its module; cli holds its own
        for module in (COMPRESS_MODULE, vtcomp.cli):
            monkeypatch.setattr(module, "token_ranks", spy)
        return made

    def test_compress_ranks_once(self, calls):
        compress(_tensor(4), RetentionConfig(ratio=0.5))
        assert len(calls) == 1

    def test_ablate_ranks_each_distinct_grid_once(self, calls, capsys, tmp_path):
        path = tmp_path / "v.vtok"
        write_vtok(_tensor(4), path)
        for flags, rankings in [([], 10), (["--windows", "global,1,2,3"], 13)]:
            calls.clear()
            assert vtcomp.cli.main(["ablate", "-i", str(path)] + flags) == 0
            rows = capsys.readouterr().out.strip().splitlines()[1:]
            windows = {row.split(",")[3] for row in rows}
            assert len(rows) == (len(ScoreMode) * len(Aggregation) * len(Adjustment)
                                 * len(windows))
            # combined, video_only and positive_video rank one grid per
            # window; frame_only and positive_frame rank the video modes'
            # window-1 grids; one more in the base compress, which gives
            # only its grids: the base mask is the base cell's cut
            distinct = 3 * len(windows) + 2 - 2 * ("1" in windows)
            assert len(calls) == distinct + 1 == rankings
