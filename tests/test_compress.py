import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import accum, cli
from vtcomp import (
    Adjustment,
    Aggregation,
    KExceedsMError,
    NonFiniteError,
    Policy,
    RetentionConfig,
    ScoreMode,
    ShapeMismatchError,
    SyntheticSpec,
    TokenTensor,
    combine_scores,
    compress,
    frame_pool,
    frame_token_uniqueness,
    generate,
    global_pool,
    topk_select,
    video_uniqueness,
    write_vtok,
)

from oracle import reference_compress, tensor_to_lists

CASE = TokenTensor.from_array(
    np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]], dtype=np.float32)
)


class TestFramePool:
    def test_single_token_frame_is_the_token(self):
        t = TokenTensor.from_array(np.array([[[3.0, -2.0]]], dtype=np.float32))
        assert np.array_equal(frame_pool(t), np.array([[3.0, -2.0]]))

    def test_two_vector_mean(self):
        pools = frame_pool(CASE)
        assert np.array_equal(pools[0], np.array([0.5, 0.5]))
        assert np.array_equal(pools[1], np.array([1.0, 0.0]))

    def test_zero_frame_pools_to_zero(self):
        t = TokenTensor.from_array(np.zeros((1, 3, 2), dtype=np.float32))
        pools = frame_pool(t)
        assert np.array_equal(pools, np.zeros((1, 2)))
        u = frame_token_uniqueness(t, pools)
        assert np.array_equal(u, np.zeros((1, 3)))  # zero-norm cosine convention


class TestFrameTokenUniqueness:
    def test_identical_tokens_score_minus_one(self):
        # (1, 0) keeps the norm product exactly representable, so the score
        # is exactly -1; a generic token lands within one ulp of it.
        exact = np.tile(np.array([1.0, 0.0], dtype=np.float32), (2, 5, 1))
        t = TokenTensor.from_array(exact)
        assert np.array_equal(frame_token_uniqueness(t, frame_pool(t)),
                              np.full((2, 5), -1.0))
        generic = np.tile(np.array([2.0, 1.0], dtype=np.float32), (2, 5, 1))
        t = TokenTensor.from_array(generic)
        u = frame_token_uniqueness(t, frame_pool(t))
        assert np.all(u >= -1.0)
        assert u == pytest.approx(np.full((2, 5), -1.0), abs=1e-15)

    def test_diagonal_pair_scores_cos45(self):
        u = frame_token_uniqueness(CASE, frame_pool(CASE))
        assert u[0] == pytest.approx([-0.7071, -0.7071], abs=1e-4)
        ref = reference_compress(tensor_to_lists(CASE.values), 0.5)
        assert np.array_equal(u, np.array(ref["u_frame"]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            frame_token_uniqueness(CASE, np.zeros((3, 2)))


class TestCombineScores:
    def test_default_weights_sum(self):
        uv = video_uniqueness(CASE, global_pool(CASE))
        uf = frame_token_uniqueness(CASE, frame_pool(CASE))
        got = combine_scores(uf, uv)
        assert got[0, 1] == pytest.approx(-1.0233, abs=1e-4)
        assert np.array_equal(got, np.multiply(uf, 1.0) + np.multiply(uv, 1.0))

    def test_weighted_video_heavy_combination(self):
        uf = np.array([[-0.5, -0.25]])
        uv = np.array([[-0.125, -1.0]])
        got = combine_scores(uf, uv, ScoreMode.COMBINED, alpha=1.0, beta=2.0)
        assert np.array_equal(got, uf + 2.0 * uv)

    def test_single_score_modes(self):
        uf = np.array([[-0.5, -0.25]])
        uv = np.array([[-0.125, -1.0]])
        assert np.array_equal(combine_scores(uf, uv, ScoreMode.FRAME_ONLY), uf)
        assert np.array_equal(combine_scores(uf, uv, ScoreMode.VIDEO_ONLY), uv)
        assert np.array_equal(combine_scores(uf, uv, ScoreMode.POSITIVE_FRAME), -uf)
        assert np.array_equal(combine_scores(uf, uv, ScoreMode.POSITIVE_VIDEO), -uv)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            combine_scores(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("mode", list(ScoreMode))
    def test_grid_key_names_a_bit_identical_grid(self, mode):
        module = sys.modules["vtcomp.compress"]
        grids = module.score_windows(CASE, [1, 2, "global"])
        for window in grids:
            key_mode, key_window = module.grid_key(mode, window)
            got = combine_scores(grids[1], grids[key_window], key_mode, 0.5, 2.0)
            want = combine_scores(grids[1], grids[window], mode, 0.5, 2.0)
            assert got.tobytes() == want.tobytes()

    def test_budget_key_names_bit_identical_budgets(self, rng):
        module = sys.modules["vtcomp.compress"]
        values = rng.standard_normal((4, 6, 5)).astype(np.float32)
        values[1] += 2.0  # one frame apart, so the budgets are not all equal
        windows = [1, 2, "global"]
        grids = module.score_windows(TokenTensor.from_array(values), windows)
        base = RetentionConfig(ratio=0.4, temperature=0.05)
        budgets = {}
        for agg in Aggregation:
            for adj in Adjustment:
                for window in windows:
                    key = module.budget_key(agg, adj, window)
                    got = module.select_budgets(replace(
                        base, frame_aggregation=key[0], adjustment=key[1], window=key[2]),
                        grids)[0]
                    want = module.select_budgets(replace(
                        base, frame_aggregation=agg, adjustment=adj, window=window), grids)[0]
                    assert got.per_frame_ratio.tobytes() == want.per_frame_ratio.tobytes()
                    assert got.per_frame_count.tobytes() == want.per_frame_count.tobytes()
                    budgets[key] = want.per_frame_ratio.tobytes()
        # One key per adaptive (aggregation, window), one for all uniform
        # configs; and the adaptive budgets differ here, so no key may merge them.
        assert len(budgets) == len(Aggregation) * len(windows) + 1
        assert len(set(budgets.values())) == len(budgets)

    def test_constant_scores_fall_to_tie_break(self):
        values = np.tile(np.array([1.0, 1.0], dtype=np.float32), (1, 6, 1))
        t = TokenTensor.from_array(values)
        result = compress(t, RetentionConfig(ratio=0.5, score_mode=ScoreMode.FRAME_ONLY))
        assert result.selection.kept_indices[0].tolist() == [0, 1, 2]


class TestTopkSelect:
    def test_direct_top2(self):
        assert topk_select([3.0, 1.0, 2.0], 2).tolist() == [0, 2]

    def test_ties_prefer_lower_index(self):
        assert topk_select([5.0, 5.0, 5.0], 2).tolist() == [0, 1]

    def test_k_equals_m_is_identity(self):
        assert topk_select([0.5, -0.5, 0.0, 9.0], 4).tolist() == [0, 1, 2, 3]

    def test_k_zero_empty(self):
        assert topk_select([1.0, 2.0], 0).tolist() == []

    def test_k_exceeds_m(self):
        with pytest.raises(KExceedsMError):
            topk_select([1.0, 2.0], 3)
        with pytest.raises(KExceedsMError):
            topk_select([1.0, 2.0], -1)

    def test_output_sorted_ascending(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 30))
            scores = rng.standard_normal(m)
            k = int(rng.integers(0, m + 1))
            idx = topk_select(scores, k)
            assert len(idx) == k
            assert np.all(np.diff(idx) > 0) or k <= 1
            if k and k < m:
                kept_min = scores[idx].min()
                dropped_max = scores[np.setdiff1d(np.arange(m), idx)].max()
                assert kept_min >= dropped_max

    def test_signed_zero_ties(self):
        # -0.0 and 0.0 compare equal, so index order must decide.
        assert topk_select([-0.0, 1.0, 0.0], 2).tolist() == [0, 1]

    def test_scores_of_three_dimensions_rejected(self):
        # Neither one frame nor a (T, M) grid: no flattened indices.
        with pytest.raises(ShapeMismatchError):
            topk_select(np.arange(8.0).reshape(2, 2, 2), 3)


class TestCompress:
    def test_no_windows_score_nothing(self, monkeypatch):
        def scored(*args):
            raise AssertionError("an empty window list ran a scoring pass")

        monkeypatch.setattr(accum, "frame_token_sums", scored)
        monkeypatch.setattr(accum, "uniqueness_grids", scored)
        assert sys.modules["vtcomp.compress"].score_windows(CASE, []) == {}

    def test_full_ratio_uniform_keeps_everything(self, rng):
        values = rng.standard_normal((3, 5, 4)).astype(np.float32)
        t = TokenTensor.from_array(values)
        result = compress(t, RetentionConfig(ratio=1.0, adjustment=Adjustment.UNIFORM))
        assert all(idx.tolist() == list(range(5)) for idx in result.selection.kept_indices)
        assert np.array_equal(np.stack(result.selection.compressed), values)

    def test_full_ratio_adaptive_shifts_budget(self, rng):
        # The adaptive formula moves tokens toward unique frames even at
        # full ratio: the dominant frame saturates at M while frames with
        # near-zero weight keep ceil((1 - 1/T) * M).
        values = rng.standard_normal((4, 8, 3)).astype(np.float32)
        result = compress(TokenTensor.from_array(values), RetentionConfig(ratio=1.0))
        counts = result.allocation.per_frame_count
        top = int(np.argmax(result.report.frame_weight))
        assert counts[top] == 8
        assert counts.min() >= math.ceil((1.0 - 1.0 / 4) * 8)
        assert (counts >= 1).all() and (counts <= 8).all()

    def test_full_ratio_uniform_content_is_identity(self, rng):
        token = rng.standard_normal(4).astype(np.float32)
        values = np.tile(token, (3, 5, 1))
        result = compress(TokenTensor.from_array(values), RetentionConfig(ratio=1.0))
        assert all(idx.tolist() == list(range(5)) for idx in result.selection.kept_indices)
        assert np.array_equal(np.stack(result.selection.compressed), values)

    def test_reference_case_budgets_and_selection(self):
        result = compress(CASE, RetentionConfig(ratio=0.5))
        ref = reference_compress(tensor_to_lists(CASE.values), 0.5)
        assert result.allocation.per_frame_count.tolist() == ref["k"] == [2, 1]
        assert [idx.tolist() for idx in result.selection.kept_indices] == ref["kept"]
        assert np.array_equal(result.report.frame_weight, np.array(ref["sigma"]))

    def test_working_shape_uniform_budget(self):
        values = np.tile(np.array([0.25, -1.0, 0.5], dtype=np.float32), (32, 196, 1))
        t = TokenTensor.from_array(values)
        result = compress(t, RetentionConfig(ratio=0.25, adjustment=Adjustment.UNIFORM))
        assert np.array_equal(result.allocation.per_frame_count, np.full(32, 49))
        assert result.allocation.total_kept == 1568

    def test_oracle_equivalence_randomized_configs(self, rng):
        modes = list(ScoreMode)
        for trial in range(150):
            frames = int(rng.integers(1, 6))
            tokens = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 5))
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            t = TokenTensor.from_array(values)
            window = "global" if rng.random() < 0.4 else int(rng.integers(1, frames + 1))
            cfg = RetentionConfig(
                ratio=float(rng.uniform(0.05, 1.0)),
                window=window,
                adjustment=Adjustment.UNIFORM if rng.random() < 0.3 else Adjustment.ADAPTIVE,
                frame_aggregation=Aggregation.MAX if rng.random() < 0.5 else Aggregation.MEAN,
                score_mode=modes[int(rng.integers(0, len(modes)))],
                alpha=float(rng.uniform(0.0, 2.0)),
                beta=float(rng.uniform(0.0, 2.0)) if rng.random() < 0.9 else 1.0,
            )
            if cfg.alpha + cfg.beta == 0.0:
                continue
            got = compress(t, cfg)
            ref = reference_compress(
                tensor_to_lists(values),
                cfg.ratio,
                window=None if window == "global" else window,
                aggregation=cfg.frame_aggregation.value,
                score_mode=cfg.score_mode.value,
                alpha=cfg.alpha,
                beta=cfg.beta,
                adjustment=cfg.adjustment.value,
            )
            assert np.array_equal(got.report.frame_uniqueness, np.array(ref["u_t"]))
            assert np.array_equal(got.report.frame_weight, np.array(ref["sigma"]))
            assert np.array_equal(got.allocation.per_frame_ratio, np.array(ref["r"]))
            assert np.array_equal(got.allocation.per_frame_count, np.array(ref["k"]))
            assert np.array_equal(got.report.combined_score, np.array(ref["combined"]))
            assert [i.tolist() for i in got.selection.kept_indices] == ref["kept"]

    def test_selection_subset_and_exact_copies(self, rng):
        for _ in range(30):
            frames = int(rng.integers(1, 6))
            tokens = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 5))
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            t = TokenTensor.from_array(values)
            result = compress(t, RetentionConfig(ratio=float(rng.uniform(0.1, 1.0))))
            for ti, (idx, block) in enumerate(
                zip(result.selection.kept_indices, result.selection.compressed)
            ):
                assert idx.shape[0] == result.allocation.per_frame_count[ti]
                assert np.all((0 <= idx) & (idx < tokens))
                assert np.all(np.diff(idx) > 0) or idx.shape[0] <= 1
                assert np.array_equal(block, values[ti, idx, :])
                assert block.dtype == np.float32

    def test_global_power_of_two_scaling_bitwise(self, rng):
        for _ in range(25):
            values = rng.standard_normal((4, 6, 3)).astype(np.float32)
            exp = int(rng.integers(-8, 9))
            a = compress(TokenTensor.from_array(values), RetentionConfig(ratio=0.4))
            b = compress(TokenTensor.from_array(values * np.float32(2.0 ** exp)),
                         RetentionConfig(ratio=0.4))
            assert np.array_equal(a.report.combined_score, b.report.combined_score)
            assert np.array_equal(a.allocation.per_frame_count, b.allocation.per_frame_count)
            assert all(np.array_equal(x, y) for x, y in
                       zip(a.selection.kept_indices, b.selection.kept_indices))

    def test_global_generic_scaling_keeps_selection(self, rng):
        for _ in range(25):
            values = rng.standard_normal((4, 6, 3)).astype(np.float32)
            scale = np.float32(rng.uniform(0.01, 100.0))
            a = compress(TokenTensor.from_array(values), RetentionConfig(ratio=0.4))
            b = compress(TokenTensor.from_array(values * scale), RetentionConfig(ratio=0.4))
            assert np.array_equal(a.allocation.per_frame_count, b.allocation.per_frame_count)
            assert all(np.array_equal(x, y) for x, y in
                       zip(a.selection.kept_indices, b.selection.kept_indices))

    def test_within_frame_permutation_equivariance(self, rng):
        from conftest import assert_selection_equivalent

        for _ in range(25):
            frames, tokens, dim = 3, 7, 4
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            perm = rng.permutation(tokens)
            shuffled = values.copy()
            shuffled[1] = values[1, perm, :]
            a = compress(TokenTensor.from_array(values), RetentionConfig(ratio=0.5))
            b = compress(TokenTensor.from_array(shuffled), RetentionConfig(ratio=0.5))
            # position j in the shuffled frame holds original token perm[j]
            kept_mapped = [int(perm[j]) for j in b.selection.kept_indices[1]]
            assert_selection_equivalent(a.report.combined_score[1],
                                        a.selection.kept_indices[1], kept_mapped)
            for other in (0, 2):
                assert np.array_equal(a.selection.kept_indices[other],
                                      b.selection.kept_indices[other])

    def test_frame_permutation_equivariance_global_pool(self, rng):
        from conftest import assert_selection_equivalent

        for _ in range(25):
            frames, tokens, dim = 5, 4, 3
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            perm = rng.permutation(frames)
            a = compress(TokenTensor.from_array(values), RetentionConfig(ratio=0.5))
            b = compress(TokenTensor.from_array(values[perm]), RetentionConfig(ratio=0.5))
            for new_pos, old_pos in enumerate(perm):
                assert b.allocation.per_frame_count[new_pos] == \
                    a.allocation.per_frame_count[old_pos]
                assert_selection_equivalent(a.report.combined_score[old_pos],
                                            a.selection.kept_indices[old_pos],
                                            b.selection.kept_indices[new_pos])

    def test_redundant_frame_suppression(self, rng):
        # T-1 near-identical frames plus one orthogonal-content frame: the
        # distinct frame must strictly win uniqueness, weight, and budget.
        frames, tokens, dim = 6, 8, 16
        base = rng.standard_normal(dim)
        values = np.tile(base, (frames, tokens, 1))
        distinct = rng.standard_normal((tokens, dim))
        distinct -= np.outer(distinct @ base, base) / (base @ base)
        values[2] = distinct
        t = TokenTensor.from_array(values)
        result = compress(t, RetentionConfig(ratio=0.25))
        u_t = result.report.frame_uniqueness
        sigma = result.report.frame_weight
        counts = result.allocation.per_frame_count
        others = [i for i in range(frames) if i != 2]
        assert all(u_t[2] > u_t[i] for i in others)
        assert all(sigma[2] > sigma[i] for i in others)
        assert all(counts[2] > counts[i] for i in others)

    def test_thread_counts_are_bit_identical(self, rng):
        for _ in range(10):
            frames = int(rng.integers(1, 9))
            tokens = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 6))
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            t = TokenTensor.from_array(values)
            cfg = RetentionConfig(ratio=0.5, window="global")
            one = compress(t, cfg, threads=1)
            many = compress(t, cfg, threads=4)
            assert np.array_equal(one.report.combined_score, many.report.combined_score)
            assert np.array_equal(one.allocation.per_frame_ratio,
                                  many.allocation.per_frame_ratio)
            assert all(np.array_equal(x, y) for x, y in
                       zip(one.selection.compressed, many.selection.compressed))

    def test_every_kernel_call_runs_on_the_calling_thread(self, rng, monkeypatch):
        # No thread starts at any ``threads``: the frame sums are one call on
        # the whole tensor, and every block transpose and reduction is made
        # by the thread that called compress.
        values = rng.standard_normal((4, 5, 3)).astype(np.float32)
        calls, started = [], []
        for name in ("frame_token_sums", "transpose_tokens", "token_reductions"):
            def spy(*args, kernel=getattr(accum, name), name=name, **kwargs):
                calls.append((name, np.shape(args[0]), threading.get_ident()))
                return kernel(*args, **kwargs)

            monkeypatch.setattr(accum, name, spy)
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        compress(TokenTensor.from_array(values), threads=2)
        assert started == []
        assert {ident for _, _, ident in calls} == {threading.get_ident()}
        assert {name for name, _, _ in calls} == {"transpose_tokens", "token_reductions",
                                                  "frame_token_sums"}
        assert [shape for name, shape, _ in calls if name == "frame_token_sums"] == \
            [values.shape]

    @given(frames=st.integers(1, 6), tokens=st.integers(1, 7), dim=st.integers(1, 9),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]), numpy_body=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_raw_non_finite_tensor_fails_at_the_validated_index(self, frames, tokens, dim,
                                                               bad, numpy_body, seed, data):
        # compress finds a NaN or +-inf in an unvalidated TokenTensor from the
        # frame sums it scores with, and names the index from_array names.
        values = np.random.default_rng(seed).standard_normal((frames, tokens, dim))
        values = values.astype(np.float32)
        index = data.draw(st.integers(0, values.size - 1))
        values.reshape(-1)[index] = bad
        with pytest.raises(NonFiniteError) as validated:
            TokenTensor.from_array(values)
        with pytest.raises(NonFiniteError) as scored:
            _with_lib(None if numpy_body else accum._lib, compress, TokenTensor(values))
        assert scored.value.flat_index == validated.value.flat_index == index

    def test_uniform_adjustment_fixes_ratio(self, rng):
        values = rng.standard_normal((4, 10, 3)).astype(np.float32)
        result = compress(TokenTensor.from_array(values),
                          RetentionConfig(ratio=0.3, adjustment="uniform"))
        assert np.array_equal(result.allocation.per_frame_ratio, np.full(4, 0.3))
        assert np.array_equal(result.allocation.per_frame_count, np.full(4, 3))

    def test_min_tokens_respected_end_to_end(self, rng):
        values = rng.standard_normal((3, 9, 2)).astype(np.float32)
        result = compress(TokenTensor.from_array(values),
                          RetentionConfig(ratio=0.05, min_tokens_per_frame=2))
        assert (result.allocation.per_frame_count >= 2).all()
        assert all(len(i) >= 2 for i in result.selection.kept_indices)

    def test_oracle_equivalence_at_channel_widths(self, rng, monkeypatch):
        # Widths 5..70 reach the four-channel blocks of the compiled reduction
        # kernel and every tail length.  The plain numpy body runs each case
        # too, and the stage functions must match as well.
        kernels = (accum._lib, None)
        modes = list(ScoreMode)
        for _ in range(200):
            frames = int(rng.integers(1, 7))
            tokens = int(rng.integers(1, 41))
            dim = int(rng.integers(5, 71))
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            t = TokenTensor.from_array(values)
            window = "global" if rng.random() < 0.4 else int(rng.integers(1, frames + 1))
            cfg = RetentionConfig(
                ratio=float(rng.uniform(0.05, 1.0)),
                window=window,
                adjustment=Adjustment.UNIFORM if rng.random() < 0.3 else Adjustment.ADAPTIVE,
                frame_aggregation=Aggregation.MAX if rng.random() < 0.5 else Aggregation.MEAN,
                score_mode=modes[int(rng.integers(0, len(modes)))],
                alpha=float(rng.uniform(0.1, 2.0)),
                beta=float(rng.uniform(0.1, 2.0)),
            )
            threads = int(rng.integers(1, 3))
            ref = reference_compress(
                tensor_to_lists(values),
                cfg.ratio,
                window=None if window == "global" else window,
                aggregation=cfg.frame_aggregation.value,
                score_mode=cfg.score_mode.value,
                alpha=cfg.alpha,
                beta=cfg.beta,
                adjustment=cfg.adjustment.value,
            )
            for lib in kernels:
                monkeypatch.setattr(accum, "_lib", lib)
                got = compress(t, cfg, threads=threads)
                assert np.array_equal(got.report.video_score, np.array(ref["u_video"]))
                assert np.array_equal(got.report.frame_score, np.array(ref["u_frame"]))
                assert np.array_equal(got.report.combined_score, np.array(ref["combined"]))
                assert np.array_equal(got.report.frame_uniqueness, np.array(ref["u_t"]))
                assert np.array_equal(got.report.frame_weight, np.array(ref["sigma"]))
                assert np.array_equal(got.allocation.per_frame_ratio, np.array(ref["r"]))
                assert np.array_equal(got.allocation.per_frame_count, np.array(ref["k"]))
                assert [i.tolist() for i in got.selection.kept_indices] == ref["kept"]
                assert np.array_equal(video_uniqueness(t, global_pool(t, window)),
                                      np.array(ref["u_video"]))
                assert np.array_equal(frame_token_uniqueness(t, frame_pool(t)),
                                      np.array(ref["u_frame"]))

    @pytest.mark.parametrize("kernel", ["loaded", "numpy"])
    # (frames added, channels added, form): a list holding a (T+3, D') or a
    # (T, D'+1) matrix, a (P, T, D'+1) or (P, T+3, D') stack, and a bare
    # (T, D') matrix passed where the P matrices go.
    @pytest.mark.parametrize("extra", [(3, 0, "list"), (0, 1, "list"), (0, 1, "stack"),
                                       (3, 0, "stack"), (0, 0, "bare")])
    def test_wrong_pool_shape_is_an_error_in_either_body(self, rng, monkeypatch,
                                                         kernel, extra):
        if kernel == "numpy":
            monkeypatch.setattr(accum, "_lib", None)
        frames, tokens, dim = 4, 5, 6
        values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
        block = accum.transpose_tokens(values)
        good = rng.standard_normal((frames, dim))
        bad = rng.standard_normal((frames + extra[0], dim + extra[1]))
        pools = {"list": [good, bad], "stack": np.stack([bad, bad]), "bare": good}[extra[2]]
        with pytest.raises(ShapeMismatchError):
            accum.token_reductions(block, frames, tokens, pools)
        with pytest.raises(ShapeMismatchError):
            accum.uniqueness_grids(values, pools)

    @staticmethod
    def _transpose_into(out):
        return lambda values: accum.transpose_tokens(values, out=out, start=0, stop=2)

    # Each case gets a (3, 5, 4) input; frames [0, 2) fill a (4, 10) block.
    WRONG_BUFFERS = {
        "too-wide-out": _transpose_into(np.zeros((4, 20), dtype=np.float32)),
        "too-narrow-out": _transpose_into(np.zeros((4, 9), dtype=np.float32)),
        "float64-out": _transpose_into(np.zeros((4, 10), dtype=np.float64)),
        "fortran-out": _transpose_into(np.zeros((4, 10), dtype=np.float32, order="F")),
        "read-only-out": _transpose_into(
            np.frombuffer(bytes(160), dtype=np.float32).reshape(4, 10)),
        "short-block": lambda values: accum.token_reductions(
            accum.transpose_tokens(values, start=0, stop=2)[:, :-1], 3, 5,
            [np.ones((3, 4))], 0, 2),
    }

    @pytest.mark.parametrize("kernel", ["loaded", "numpy"])
    @pytest.mark.parametrize("buffer", WRONG_BUFFERS)
    def test_wrong_buffer_is_an_error_in_either_body(self, rng, monkeypatch, kernel,
                                                     buffer):
        if kernel == "numpy":
            monkeypatch.setattr(accum, "_lib", None)
        values = rng.standard_normal((3, 5, 4)).astype(np.float32)
        with pytest.raises(ShapeMismatchError):
            self.WRONG_BUFFERS[buffer](values)

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_layout_never_picks_the_body(self, rng, monkeypatch, layout):
        x = rng.standard_normal((6, 37, 70)).astype(np.float32)
        if layout == "fortran":
            values = np.asfortranarray(x)
        else:
            wide = np.zeros((6, 37, 140), dtype=np.float32)
            wide[:, :, ::2] = x
            values = wide[:, :, ::2]
        cfg = RetentionConfig(ratio=0.4, window=2)

        def outputs(result):
            return [a.tobytes() for a in (
                *vars(result.report).values(), result.allocation.per_frame_ratio,
                result.allocation.per_frame_count, *result.selection.kept_indices,
                *result.selection.compressed)]

        expected = outputs(compress(TokenTensor.from_array(x), cfg))
        spy = _LibrarySpy(accum._lib)
        monkeypatch.setattr(accum, "_lib", spy)
        assert outputs(compress(TokenTensor(values), cfg)) == expected
        assert {"frame_token_sums", "transpose_tokens", "token_reductions"} <= set(spy.calls)


class TestScaleInvariance:
    """Criterion 4's scale invariance over every config: a power-of-two
    scale changes no float bit, so budgets, kept indices and every score
    grid are byte-equal."""

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 12), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        exponent=st.integers(-12, 12),
    )
    def test_power_of_two_scale_changes_no_byte(self, shape, seed, data, exponent):
        frames, tokens, _ = shape
        values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
        cfg = RetentionConfig(
            ratio=data.draw(st.floats(0.0, 1.0, exclude_min=True)),
            window=data.draw(st.one_of(st.just("global"), st.integers(1, frames))),
            adjustment=data.draw(st.sampled_from(Adjustment)),
            frame_aggregation=data.draw(st.sampled_from(Aggregation)),
            score_mode=data.draw(st.sampled_from(ScoreMode)),
            alpha=data.draw(st.floats(0.0, 4.0)),
            beta=data.draw(st.floats(0.01, 4.0)),
            min_tokens_per_frame=data.draw(st.integers(1, 14)),
        )
        a = compress(TokenTensor.from_array(values), cfg)
        b = compress(TokenTensor.from_array(values * np.float32(2.0 ** exponent)), cfg)
        assert a.allocation.per_frame_count.tobytes() == b.allocation.per_frame_count.tobytes()
        assert [i.tobytes() for i in a.selection.kept_indices] == \
            [i.tobytes() for i in b.selection.kept_indices]
        for name in ("video_score", "frame_score", "combined_score", "frame_uniqueness",
                     "frame_weight"):
            assert getattr(a.report, name).tobytes() == getattr(b.report, name).tobytes()


class TestPermutation:
    """Exact permutation properties of the scoring kernel, pools held fixed.

    A token's grid entry reads only its own vector and its frame's row of
    each pool matrix, so reordering the pool matrices, the tokens of a
    frame or the frames (pool rows alongside) reorders the (P, T, M) grids
    bit for bit, in either body.  End to end this is not exact: frame sums
    add tokens in ascending order, so reordering tokens changes the pools.
    """

    @pytest.mark.parametrize("kernel", ["loaded", "numpy"])
    @given(
        frames=st.integers(1, 6),
        tokens=st.one_of(st.integers(1, 40), st.sampled_from([511, 513])),
        dim=st.integers(1, 70),
        pools=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutations_permute_the_grids(self, kernel, frames, tokens, dim, pools,
                                            seed):
        lib = accum._lib if kernel == "loaded" else None

        def score(values, rows):
            return _with_lib(lib, accum.uniqueness_grids, values, rows)

        rng = np.random.default_rng(seed)
        values = _scaled(rng, (frames, tokens, dim), np.float32)
        values[rng.random((frames, tokens)) < 0.1] = 0.0  # zero-norm tokens
        rows = _scaled(rng, (pools, frames, dim), np.float64)
        grids = score(values, list(rows))
        assert grids.shape == (pools, frames, tokens)

        order = rng.permutation(pools)
        assert score(values, rows[order]).tobytes() == grids[order].tobytes()

        order = np.argsort(rng.random((frames, tokens)), axis=1)  # one per frame
        shuffled = np.take_along_axis(values, order[:, :, None], axis=1)
        assert score(shuffled, rows).tobytes() == \
            np.take_along_axis(grids, order[None], axis=2).tobytes()

        order = rng.permutation(frames)
        assert score(values[order], rows[:, order]).tobytes() == grids[:, order].tobytes()


def _with_lib(lib, fn, *args, **kwargs):
    """Call an accum kernel with ``lib`` in place of the loaded library."""
    loaded = accum._lib
    accum._lib = lib
    try:
        return fn(*args, **kwargs)
    finally:
        accum._lib = loaded


class _LibrarySpy:
    """Forwards every entry point of a loaded library, recording each call's name."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        entry = getattr(self.lib, name)

        def call(*args):
            self.calls.append(name)
            return entry(*args)

        return call


def _numpy_body(fn, *args, **kwargs):
    """Call an accum kernel with the compiled library hidden."""
    return _with_lib(None, fn, *args, **kwargs)


def _scaled(rng, shape, dtype):
    """Signed values with magnitudes spread over 1e-18..1e18."""
    return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-18, 18, shape)).astype(dtype)


# Prints the kernel in use and a digest of every compress output at a shape
# that reaches the four-channel groups, their tail and a threads=2 call.
DIGEST_SCRIPT = """
import hashlib
import numpy as np
import vtcomp
from vtcomp import accum
rng = np.random.default_rng(11)
t = vtcomp.TokenTensor.from_array(rng.standard_normal((5, 37, 70)).astype(np.float32))
r = vtcomp.compress(t, vtcomp.RetentionConfig(ratio=0.4, window=2), threads=2)
h = hashlib.sha256()
for a in (*vars(r.report).values(), r.allocation.per_frame_count, *r.selection.kept_indices,
          *r.selection.compressed, accum.frame_token_sums(t.values)):
    h.update(np.ascontiguousarray(a).tobytes())
print(accum.KERNEL, h.hexdigest())
"""


def _expected_isa():
    """The body _accum.c picks here: AVX2 on x86-64 Linux CPUs that have it."""
    if platform.machine() != "x86_64":
        return "baseline"
    if not sys.platform.startswith("linux"):
        pytest.skip("CPU flags are read from /proc/cpuinfo")
    with open("/proc/cpuinfo") as fh:
        flags = next(line for line in fh if line.startswith("flags")).split()
    return "avx2" if "avx2" in flags else "baseline"


@pytest.fixture(scope="class")
def baseline_lib(tmp_path_factory):
    """``_accum.c`` built with the usual flags and its x86 dispatch compiled
    out, so the baseline bodies run on any CPU."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    return accum._build(Path(accum.__file__).with_name("_accum.c"),
                        tmp_path_factory.mktemp("baseline"), ("-DVTCOMP_BASELINE_ONLY",))


class TestCompiledKernels:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_compiler_present_means_compiled_kernel(self):
        assert accum.KERNEL == "c"

    def test_isa_names_the_body_that_runs(self):
        if accum.KERNEL == "numpy":
            assert accum.KERNEL_ISA is None
        else:
            assert accum.KERNEL_ISA == _expected_isa()

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @given(
        frames=st.integers(1, 6),
        tokens=st.one_of(st.integers(1, 40), st.sampled_from([511, 512, 513, 1100])),
        dim=st.integers(1, 70),
        pools=st.integers(1, 6),
        bounds=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_baseline_body_gives_the_same_bytes(self, baseline_lib, frames, tokens, dim,
                                                pools, bounds, seed):
        assert baseline_lib.kernel_isa() == b"baseline"
        rng = np.random.default_rng(seed)
        values = _scaled(rng, (frames, tokens, dim), np.float32)
        rows = [_scaled(rng, (frames, dim), np.float64) for _ in range(pools)]
        start, stop = sorted(min(b, frames) for b in bounds)

        def outputs(lib):
            sums = _with_lib(lib, accum.frame_token_sums, values)
            block = _with_lib(lib, accum.transpose_tokens, values, start=start, stop=stop)
            sq, dots = _with_lib(lib, accum.token_reductions, block, frames, tokens, rows,
                                 start, stop)
            return [a.tobytes() for a in (sums, block, sq, *dots)]

        assert outputs(baseline_lib) == outputs(accum._lib)

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @given(
        frames=st.integers(1, 6),
        tokens=st.one_of(st.integers(1, 40), st.sampled_from([511, 512, 513, 1100])),
        dim=st.integers(1, 70),
        pools=st.integers(1, 6),
        bounds=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_compiled_kernels_match_numpy_bodies(self, frames, tokens, dim, pools,
                                                 bounds, seed):
        rng = np.random.default_rng(seed)
        values = _scaled(rng, (frames, tokens, dim), np.float32)
        rows = [_scaled(rng, (frames, dim), np.float64) for _ in range(pools)]
        start, stop = sorted(min(b, frames) for b in bounds)

        sums = accum.frame_token_sums(values)
        assert sums.tobytes() == _numpy_body(accum.frame_token_sums, values).tobytes()

        block = accum.transpose_tokens(values, start=start, stop=stop)
        expected = _numpy_body(accum.transpose_tokens, values, start=start, stop=stop)
        assert block.tobytes() == expected.tobytes()

        sq, dots = accum.token_reductions(block, frames, tokens, rows, start, stop)
        ref_sq, ref_dots = _numpy_body(accum.token_reductions, block, frames, tokens,
                                       rows, start, stop)
        assert sq.tobytes() == ref_sq.tobytes()
        assert [d.tobytes() for d in dots] == [d.tobytes() for d in ref_dots]

        # A grid does not depend on the other pool matrices in the call.
        grids = accum.uniqueness_grids(values, rows)
        for matrix, grid in zip(rows, grids):
            assert grid.tobytes() == accum.uniqueness_grids(values, [matrix])[0].tobytes()

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @pytest.mark.parametrize("dim", [896, 1024, 3584, 3583])
    def test_pairing_rule_at_real_widths(self, baseline_lib, dim):
        # The norms ride with pools 0 and 1, further pools go in pairs and an
        # odd last pool alone; 3583 channels also reach the one-channel tail.
        # At every pool count each body gives the numpy body's norms, dots
        # and grids, and each grid equals a call with its pool alone.
        rng = np.random.default_rng(dim)
        values = _scaled(rng, (3, 7, dim), np.float32)
        rows = _scaled(rng, (5, 3, dim), np.float64)
        block = accum.transpose_tokens(values)
        for pools in range(6):
            expected = [_numpy_body(accum.token_reductions, block, 3, 7, rows[:pools]),
                        _numpy_body(accum.uniqueness_grids, values, rows[:pools])]
            for lib in (accum._lib, baseline_lib):
                sq, dots = _with_lib(lib, accum.token_reductions, block, 3, 7, rows[:pools])
                grids = _with_lib(lib, accum.uniqueness_grids, values, rows[:pools])
                assert sq.tobytes() == expected[0][0].tobytes(), (pools, lib)
                assert dots.tobytes() == expected[0][1].tobytes(), (pools, lib)
                assert grids.tobytes() == expected[1].tobytes(), (pools, lib)
                for matrix, grid in zip(rows[:pools], grids):
                    alone = _with_lib(lib, accum.uniqueness_grids, values, [matrix])
                    assert grid.tobytes() == alone[0].tobytes(), (pools, lib)

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @given(
        frames=st.integers(1, 11),
        tokens=st.integers(1, 29),
        dim=st.integers(1, 79),
        pools=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_block_loop_matches_one_block_per_chunk(self, baseline_lib, frames, tokens,
                                                    dim, pools, seed):
        # The compiled bodies walk the frames in blocks of _BLOCK_BYTES, with
        # a short last block; the numpy body takes every frame as one block.
        # Blocks of one frame, two frames and every frame must all give
        # its bytes.  _BLOCK_BYTES is restored here: hypothesis rejects a
        # function-scoped monkeypatch.
        rng = np.random.default_rng(seed)
        values = _scaled(rng, (frames, tokens, dim), np.float32)
        rows = _scaled(rng, (pools, frames, dim), np.float64)
        expected = _numpy_body(accum.uniqueness_grids, values, rows).tobytes()
        frame_bytes = 4 * tokens * dim
        default = accum._BLOCK_BYTES
        try:
            for size in (1, frame_bytes, 2 * frame_bytes + 3, 1 << 20):
                accum._BLOCK_BYTES = size
                for lib in (accum._lib, baseline_lib):
                    got = _with_lib(lib, accum.uniqueness_grids, values, rows)
                    assert got.tobytes() == expected, (size, lib)
        finally:
            accum._BLOCK_BYTES = default

    @pytest.mark.skipif(accum.KERNEL != "c", reason="compiled kernel not loaded")
    @pytest.mark.parametrize("shape", [(0, 3, 4), (2, 0, 4), (2, 3, 0)])
    def test_empty_axis_scores_on_every_body(self, baseline_lib, shape):
        # An empty axis runs no frame, no block or no channel: every body
        # gives the same (P, T, M) grids.
        frames, tokens, dim = shape
        values = np.zeros(shape, dtype=np.float32)
        rows = np.ones((2, frames, dim))
        grids = [_with_lib(lib, accum.uniqueness_grids, values, rows)
                 for lib in (accum._lib, baseline_lib, None)]
        assert {grid.shape for grid in grids} == {(2, frames, tokens)}
        assert len({grid.tobytes() for grid in grids}) == 1
        grid = video_uniqueness(TokenTensor(values), rows[0])
        assert grid.tobytes() == grids[0][0].tobytes()

    @pytest.mark.parametrize("broken", ["no-compiler", "unusable-cache"])
    def test_fallback_gives_identical_bytes(self, broken, tmp_path):
        package = Path(accum.__file__).parent
        copy = tmp_path / "vtcomp"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        if broken == "no-compiler":
            env["PATH"] = ""
        else:
            (copy / "__pycache__").write_text("a file where the cache directory goes")

        def digest(env):
            proc = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.split()

        kernel, fallback = digest(env)
        assert kernel == "numpy"
        assert not list(copy.glob("**/*.so"))
        _, reference = digest(dict(os.environ, PYTHONPATH=str(package.parent)))
        assert fallback == reference


# Real-width inputs, one per redundancy model, so the budgets spread.  At
# these sizes a 1 MiB block holds at most one frame, so every scoring pass
# walks several blocks.
REAL_WIDTH_SPECS = {
    "4x196x3584": SyntheticSpec(4, 196, 3584, model="clustered", num_clusters=2,
                                noise_sigma=0.5, seed=1),
    "4x64x896": SyntheticSpec(4, 64, 896, model="outlier", outlier_index=2,
                              noise_sigma=0.5, seed=2),
    "2x576x1024": SyntheticSpec(2, 576, 1024, model="iid", seed=3),
}
REAL_WIDTH_DIGESTS = Path(__file__).with_name("real_width_digests.json")


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def real_width_digests(tmp_path: Path) -> dict:
    """sha256 of every output at real widths, keyed by shape and config.

    Each score mode at windows 1, 2 and global hashes the five report
    arrays, the ratios and counts, the kept indices and the kept rows; one
    seeded random policy selection per shape hashes its kept indices and
    rows; and the default ``ablate`` matrix at 4x64x896 hashes its CSV.
    ``real_width_digests.json`` holds this dict as made by the tree before
    the random policy and ablate cut through ``keep_top``.
    """
    digests = {}
    for name, spec in REAL_WIDTH_SPECS.items():
        tensor = generate(spec)
        for mode in ScoreMode:
            for window in (1, 2, "global"):
                r = compress(tensor, RetentionConfig(window=window, score_mode=mode))
                digests[f"{name} {mode.value} {window}"] = _sha256((
                    *vars(r.report).values(), r.allocation.per_frame_ratio,
                    r.allocation.per_frame_count, *r.selection.kept_indices,
                    *r.selection.compressed))
        kept = Policy("random", RetentionConfig(ratio=0.1, min_tokens_per_frame=8),
                      seed=spec.seed).run(tensor)
        digests[f"{name} random"] = _sha256((*kept.kept_indices, *kept.compressed))
    source, matrix = tmp_path / "4x64x896.vtok", tmp_path / "ablate.csv"
    write_vtok(generate(REAL_WIDTH_SPECS["4x64x896"]), source)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ablate", "-i", str(source), "-o", str(matrix)]) == 0
    digests["4x64x896 ablate"] = hashlib.sha256(matrix.read_bytes()).hexdigest()
    return digests


class TestRealWidthDigests:
    """Today's bits at real widths, pinned before the kernels change."""

    @pytest.mark.parametrize("body", ["loaded", "baseline"])
    def test_outputs_match_the_committed_table(self, request, tmp_path, body):
        lib = accum._lib if body == "loaded" else request.getfixturevalue("baseline_lib")
        expected = json.loads(REAL_WIDTH_DIGESTS.read_text())
        assert _with_lib(lib, real_width_digests, tmp_path) == expected


# (shape, config) pairs at real widths and at the compiled kernels' edges:
# 3583 = 4*895 + 3 channels reach the one-channel tail and the token tail of
# the 8x8 transpose tiles, and 513 tokens run one column past a TILE run.
ORACLE_CASES = {
    "2x7x3583 window 1": ((2, 7, 3583), RetentionConfig(window=1)),
    "3x40x3584 max": ((3, 40, 3584), RetentionConfig(frame_aggregation=Aggregation.MAX)),
    "4x196x896 video_only": ((4, 196, 896), RetentionConfig(score_mode=ScoreMode.VIDEO_ONLY)),
    "2x513x896 window 1": ((2, 513, 896), RetentionConfig(window=1)),
    "2x576x1024 defaults": ((2, 576, 1024), RetentionConfig()),
}


@functools.lru_cache(maxsize=None)
def _oracle_case(name):
    """The case's tensor and the oracle's combined scores, frame weights and
    kept indices, computed once per case."""
    shape, cfg = ORACLE_CASES[name]
    values = np.random.default_rng(shape).standard_normal(shape).astype(np.float32)
    ref = reference_compress(
        tensor_to_lists(values), cfg.ratio, tau=cfg.temperature, eps=cfg.epsilon,
        window=None if cfg.window == "global" else cfg.window,
        aggregation=cfg.frame_aggregation.value, score_mode=cfg.score_mode.value,
        alpha=cfg.alpha, beta=cfg.beta, adjustment=cfg.adjustment.value,
        min_tokens=cfg.min_tokens_per_frame)
    expected = (np.array(ref["combined"]).tobytes(), np.array(ref["sigma"]).tobytes(),
                ref["kept"])
    return TokenTensor.from_array(values), expected


class TestOracleAtRealWidths:
    """Every body, at one and two threads, gives the oracle's bits where the
    compiled kernels split their work."""

    @pytest.mark.parametrize("body", ["loaded", "baseline", "numpy"])
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_bodies_match_the_oracle(self, request, name, body):
        if body == "baseline":
            lib = request.getfixturevalue("baseline_lib")
        else:
            lib = accum._lib if body == "loaded" else None
        tensor, expected = _oracle_case(name)
        for threads in (1, 2):
            r = _with_lib(lib, compress, tensor, ORACLE_CASES[name][1], threads=threads)
            got = (r.report.combined_score.tobytes(), r.report.frame_weight.tobytes(),
                   [i.tolist() for i in r.selection.kept_indices])
            assert got == expected, (body, threads)
