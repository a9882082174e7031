import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import (
    Aggregation,
    NonFiniteError,
    RetentionConfig,
    ShapeMismatchError,
    TokenTensor,
    WindowOutOfRangeError,
    allocate,
    allocate_uniform,
    compress,
    frame_pool,
    frame_token_uniqueness,
    frame_uniqueness,
    global_pool,
    random_drop,
    softmax_weights,
    video_uniqueness,
)

from vtcomp import accum
from vtcomp.budget import pools_from_frame_sums, window_edges

from oracle import reference_compress, tensor_to_lists

# Two frames of two 2-d tokens; small enough to check every number by hand
# and against the brute-force reference.
CASE = TokenTensor.from_array(
    np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]]], dtype=np.float32)
)


class TestGlobalPool:
    def test_global_mean_of_two_scalars(self):
        t = TokenTensor.from_array(np.array([[[2.0]], [[4.0]]], dtype=np.float32))
        pools = global_pool(t)
        assert pools.shape == (2, 1)
        assert np.array_equal(pools, [[3.0], [3.0]])  # one row per frame

    def test_window_one_pools_each_frame(self):
        t = TokenTensor.from_array(np.array([[[2.0]], [[4.0]]], dtype=np.float32))
        pools = global_pool(t, window=1)
        assert np.array_equal(pools, [[2.0], [4.0]])
        assert pools.tobytes() == frame_pool(t).tobytes()

    def test_window_covering_all_frames_equals_global(self, rng):
        values = rng.standard_normal((32, 196, 8)).astype(np.float32)
        t = TokenTensor.from_array(values)
        assert global_pool(t, window=32).tobytes() == global_pool(t).tobytes()

    def test_tail_chunk_shorter(self):
        values = np.arange(5 * 1 * 1, dtype=np.float32).reshape(5, 1, 1)
        t = TokenTensor.from_array(values)
        pools = global_pool(t, window=2)
        assert np.array_equal(pools, [[0.5], [0.5], [2.5], [2.5], [4.0]])  # lone tail frame
        # A numpy integer is the plain int it equals, in every function taking a window.
        grid = video_uniqueness(t, pools)
        for window in (np.int64(2), np.int32(2)):
            assert window_edges(5, window) == [(0, 2), (2, 4), (4, 5)]
            assert {type(edge) for chunk in window_edges(5, window) for edge in chunk} == {int}
            assert global_pool(t, window=window).tobytes() == pools.tobytes()
            grids = sys.modules["vtcomp.compress"].score_windows(t, [window])
            assert grids[2].tobytes() == grid.tobytes()

    @pytest.mark.parametrize("window", [0, -1, 6, 100, np.int64(6), np.int32(0), True,
                                        np.True_, 2.0, np.float64(2.0)])
    def test_window_out_of_range(self, window):
        t = TokenTensor.from_array(np.zeros((5, 2, 2), dtype=np.float32))
        with pytest.raises(WindowOutOfRangeError):
            global_pool(t, window=window)
        with pytest.raises(WindowOutOfRangeError):
            sys.modules["vtcomp.compress"].score_windows(t, [window])

    def test_the_2x2x2_pool(self):
        pools = global_pool(CASE)
        assert np.array_equal(pools, np.array([[0.75, 0.25], [0.75, 0.25]]))


def per_chunk_pools(frame_sums, tokens, edges):
    """The pool rule one chunk at a time: fold each chunk's frame sums in
    ascending frame order, divide by its token count, and give that row to
    every frame of the chunk."""
    rows = []
    for a, b in edges:
        rows += [accum.ordered_sums(frame_sums[a:b], axis=0) / ((b - a) * tokens)] * (b - a)
    return np.array(rows, dtype=np.float64)


class TestPoolsFromFrameSums:
    def test_bytes_equal_the_per_chunk_fold(self, rng):
        for _ in range(80):
            frames = int(rng.integers(1, 41))
            dim = int(rng.integers(1, 9))
            tokens = int(rng.integers(1, 300))
            shape = (frames, dim)
            sums = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-10, 10, shape)
            zeros = rng.random(shape) < 0.1
            sums[zeros] = np.copysign(0.0, sums[zeros])  # both signed zeros
            for window in ["global", *range(1, frames + 1)]:
                got = pools_from_frame_sums(sums, tokens, window)
                want = per_chunk_pools(sums, tokens, window_edges(frames, window))
                assert got.shape == shape, (frames, window)
                assert got.tobytes() == want.tobytes(), (frames, window)


class TestVideoUniqueness:
    def test_window_one_is_the_frame_level(self, rng):
        values = rng.standard_normal((5, 7, 6)).astype(np.float32)
        values[1, 3] = 0.0  # a zero-norm token
        values[4] = 0.0  # a zero frame, so a zero-norm pool
        t = TokenTensor.from_array(values)
        got = video_uniqueness(t, global_pool(t, 1))
        assert got.tobytes() == frame_token_uniqueness(t, frame_pool(t)).tobytes()


    def test_all_tokens_equal_mean_gives_minus_one(self):
        values = np.tile(np.array([1.0, 0.0], dtype=np.float32), (3, 4, 1))
        t = TokenTensor.from_array(values)
        u = video_uniqueness(t, global_pool(t))
        assert np.array_equal(u, np.full((3, 4), -1.0))

    def test_2x2x2_scores_match_reference(self):
        u = video_uniqueness(CASE, global_pool(CASE))
        ref = reference_compress(tensor_to_lists(CASE.values), 0.5)
        assert np.array_equal(u, np.array(ref["u_video"]))
        assert u == pytest.approx(
            np.array([[-0.9487, -0.3162], [-0.9487, -0.9487]]), abs=1e-4
        )

    def test_token_scaling_with_fixed_pools(self):
        # Cosine is scale invariant per token when the pool is held fixed;
        # power-of-two scaling keeps even the float bits identical.
        pools = global_pool(CASE)
        u_base = video_uniqueness(CASE, pools)
        scaled = np.asarray(CASE.values).copy()
        scaled[0, 1] *= 4.0
        u_scaled = video_uniqueness(TokenTensor.from_array(scaled), pools)
        assert u_scaled[0, 1] == u_base[0, 1]

    def test_zero_token_scores_zero(self):
        values = np.array([[[0.0, 0.0], [1.0, 0.0]]], dtype=np.float32)
        t = TokenTensor.from_array(values)
        u = video_uniqueness(t, global_pool(t))
        assert u[0, 0] == 0.0

    def test_shape_mismatch(self):
        for shape in [(3, 4, 2), (2, 4, 3)]:  # T differs, then D'
            other = TokenTensor.from_array(np.ones(shape, dtype=np.float32))
            with pytest.raises(ShapeMismatchError):
                video_uniqueness(CASE, global_pool(other, 1))


class TestFrameUniqueness:
    def test_mean_and_max_on_reference_case(self):
        u = video_uniqueness(CASE, global_pool(CASE))
        mean = frame_uniqueness(u, Aggregation.MEAN)
        mx = frame_uniqueness(u, Aggregation.MAX)
        assert mean[0] == pytest.approx(-0.6325, abs=1e-4)
        assert mx[0] == pytest.approx(-0.3162, abs=1e-4)
        ref = reference_compress(tensor_to_lists(CASE.values), 0.5)
        assert np.array_equal(mean, np.array(ref["u_t"]))

    def test_constant_video_scores(self):
        u = np.full((4, 7), -1.0)
        assert np.array_equal(frame_uniqueness(u), np.full(4, -1.0))
        assert np.array_equal(frame_uniqueness(u, Aggregation.MAX), np.full(4, -1.0))


class TestSoftmaxWeights:
    def test_constant_scores_give_uniform_weights(self):
        for frames in (1, 2, 7, 33):
            sigma = softmax_weights(np.full(frames, 0.37), tau=0.01, eps=1e-8)
            assert np.array_equal(sigma, np.full(frames, 1.0 / (frames + 1e-8)))

    def test_single_frame(self):
        sigma = softmax_weights([12.3], tau=0.5, eps=1e-8)
        assert sigma[0] == 1.0 / (1.0 + 1e-8)

    def test_two_point_closed_form(self):
        tau = 0.01
        sigma = softmax_weights([0.0, -10.0 * tau], tau=tau, eps=1e-8)
        expect = np.array([1.0, math.exp(-10.0)]) / (1.0 + math.exp(-10.0))
        assert sigma == pytest.approx(expect, abs=2e-8)

    def test_weights_sum_close_to_one(self, rng):
        for _ in range(50):
            u = rng.standard_normal(int(rng.integers(1, 20)))
            sigma = softmax_weights(u, tau=0.01, eps=1e-8)
            assert 0.0 < sigma.sum() <= 1.0
            assert 1.0 - sigma.sum() <= 1e-8 / (1 + 1e-8) + 1e-12

    def test_monotone_in_scores(self, rng):
        for _ in range(20):
            u = rng.standard_normal(6)
            if len(np.unique(u)) < 6:
                continue
            sigma = softmax_weights(u, tau=0.07, eps=1e-8)
            order_u = np.argsort(u)
            assert np.array_equal(np.argsort(sigma), order_u)

    def test_shift_invariance(self, rng):
        # The max-shift absorbs constant offsets; floats may wiggle in the
        # last ulps, so the weights get a tight tolerance and the integer
        # budgets must not move at all.
        for _ in range(50):
            frames = int(rng.integers(1, 12))
            u = rng.uniform(-1.0, 1.0, frames)
            shift = float(rng.uniform(-4.0, 4.0))
            a = softmax_weights(u, tau=0.01, eps=1e-8)
            b = softmax_weights(u + shift, tau=0.01, eps=1e-8)
            assert np.abs(a - b).max() <= 1e-12
            ka = allocate(a, 0.25, 196).per_frame_count
            kb = allocate(b, 0.25, 196).per_frame_count
            assert np.array_equal(ka, kb)

    def test_overflow_free_for_extreme_scores(self):
        sigma = softmax_weights([1e300, -1e300, 0.0], tau=0.01, eps=1e-8)
        assert np.isfinite(sigma).all()
        assert sigma[0] == pytest.approx(1.0, abs=1e-8)

    def test_shift_past_the_double_range_weighs_zero(self):
        # -1 / 5e-324 overflows to -inf: exp gives 0.0, silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = softmax_weights([0.0, -1.0], tau=5e-324, eps=1e-8)
        assert sigma.tolist() == [1.0 / (1.0 + 1e-8), 0.0]


class TestAllocate:
    def test_uniform_weights_collapse_to_preset_ratio(self):
        frames = 4
        sigma = np.full(frames, 1.0 / frames)
        alloc = allocate(sigma, 0.25, 100)
        assert alloc.per_frame_ratio == pytest.approx(np.full(frames, 0.25), abs=1e-12)

    def test_working_shape_budget(self):
        # 196 tokens at ratio 0.25 with exactly-uniform weights: 49 kept.
        alloc = allocate(np.full(32, 1.0 / 32), 0.25, 196)
        assert np.array_equal(alloc.per_frame_count, np.full(32, 49, dtype=np.int64))
        assert alloc.total_kept == 1568

    def test_reference_two_frame_arithmetic(self):
        # Frozen from the straight-line reference: note ceil(0.3*10) is 4,
        # not 3, because 0.5*(1 + 0.1 - 0.5) rounds just above 0.3.
        alloc = allocate(np.array([0.9, 0.1]), 0.5, 10)
        assert alloc.per_frame_ratio.tolist() == [0.7, 0.30000000000000004]
        assert alloc.per_frame_count.tolist() == [7, 4]

    def test_ratio_not_clamped_but_count_is(self):
        alloc = allocate(np.array([1.0, 0.0]), 0.9, 10)
        assert alloc.per_frame_ratio[0] == pytest.approx(1.35)
        assert alloc.per_frame_count[0] == 10
        assert alloc.per_frame_count[1] == 5  # ceil(0.9*0.5*10) = ceil(4.5)

    def test_min_tokens_floor(self):
        alloc = allocate(np.array([0.5, 0.5]), 0.01, 10, min_tokens=3)
        assert np.array_equal(alloc.per_frame_count, [3, 3])

    def test_budget_preservation_bound(self, rng):
        ratio, eps = 0.25, 1e-8
        for _ in range(100):
            frames = int(rng.integers(1, 16))
            u = rng.standard_normal(frames)
            sigma = softmax_weights(u, tau=0.01, eps=eps)
            alloc = allocate(sigma, ratio, 196)
            drift = abs(alloc.per_frame_ratio.sum() - ratio * frames)
            assert drift <= ratio * eps / (1 + eps) + 1e-9

    def test_ceiling_slack_bounds(self, rng):
        ratio = 0.25
        for _ in range(100):
            frames = int(rng.integers(1, 16))
            tokens = int(rng.integers(2, 64))
            sigma = softmax_weights(rng.standard_normal(frames), tau=0.05, eps=1e-8)
            alloc = allocate(sigma, ratio, tokens)
            if (alloc.per_frame_count == tokens).any():
                continue  # M-clamp hit; the bound assumes it is not
            total = alloc.total_kept
            assert total <= ratio * frames * tokens + frames + 1
            assert total >= math.floor(ratio * frames * tokens) - 1

    def test_strict_monotonicity_u_to_r(self, rng):
        for _ in range(20):
            u = rng.standard_normal(8)
            if len(np.unique(u)) < 8:
                continue
            sigma = softmax_weights(u, tau=0.5, eps=1e-8)
            alloc = allocate(sigma, 0.5, 1000)
            for a in range(8):
                for b in range(8):
                    if u[a] > u[b]:
                        assert sigma[a] > sigma[b]
                        assert alloc.per_frame_ratio[a] > alloc.per_frame_ratio[b]

    def test_allocate_uniform(self):
        alloc = allocate_uniform(5, 0.25, 196)
        assert np.array_equal(alloc.per_frame_ratio, np.full(5, 0.25))
        assert np.array_equal(alloc.per_frame_count, np.full(5, 49))


class TestStageOnePath:
    def test_window_equal_frames_is_bitwise_global(self, rng):
        for _ in range(20):
            frames = int(rng.integers(1, 7))
            tokens = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 5))
            values = rng.standard_normal((frames, tokens, dim)).astype(np.float32)
            t = TokenTensor.from_array(values)
            got = compress(t, RetentionConfig(window=frames))
            want = compress(t, RetentionConfig(window="global"))
            assert np.array_equal(got.report.frame_weight, want.report.frame_weight)
            assert np.array_equal(got.allocation.per_frame_ratio,
                                  want.allocation.per_frame_ratio)
            assert np.array_equal(got.report.combined_score, want.report.combined_score)

    def test_windowed_path_matches_reference(self, rng):
        for _ in range(20):
            frames = int(rng.integers(2, 6))
            window = int(rng.integers(1, frames + 1))
            values = rng.standard_normal((frames, 4, 3)).astype(np.float32)
            t = TokenTensor.from_array(values)
            got = compress(t, RetentionConfig(ratio=0.5, window=window))
            ref = reference_compress(tensor_to_lists(values), 0.5, window=window)
            assert np.array_equal(got.report.video_score, np.array(ref["u_video"]))
            assert np.array_equal(got.allocation.per_frame_count, np.array(ref["k"]))


# Scalar forms of the budget step, one frame at a time in plain Python
# floats.  The vector code must give the same bytes.
def scalar_softmax(u, tau, eps):
    scores = [float(v) for v in np.asarray(u, dtype=np.float64)]
    top = max(scores)
    exps = [math.exp((v - top) / tau) for v in scores]
    total = 0.0
    for e in exps:
        total = total + e
    denom = total + eps
    return np.array([e / denom for e in exps], dtype=np.float64)


def scalar_counts(ratios, tokens, min_tokens):
    return np.array([min(tokens, max(min_tokens, math.ceil(r * tokens))) for r in ratios],
                    dtype=np.int64)


def scalar_ratios(sigma, ratio):
    frames = len(sigma)
    return np.array([ratio * (1.0 + float(s) - 1.0 / frames) for s in sigma],
                    dtype=np.float64)


@st.composite
def budget_cases(draw):
    frames, tokens = draw(st.integers(1, 64)), draw(st.integers(1, 512))
    ratio = draw(st.floats(0.0, 1.0, exclude_min=True))
    min_tokens = draw(st.sampled_from([1, 2, tokens, tokens + 1, 10**30, 10**400]))
    values = st.lists(st.floats(-2.0, 2.0), min_size=frames, max_size=frames)
    tau, eps = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-12, 1.0))
    u = draw(values)
    sigma = scalar_softmax(u, tau, eps) if draw(st.booleans()) else np.array(draw(values))
    return frames, tokens, ratio, min_tokens, (u, tau, eps), sigma


class TestBudgetRules:
    """The budget step against its scalar form on many shapes and inputs."""

    @settings(max_examples=200, deadline=None)
    @given(budget_cases())
    def test_allocations_match_scalar_rules(self, case):
        frames, tokens, ratio, min_tokens, _, sigma = case
        alloc = allocate(sigma, ratio, tokens, min_tokens=min_tokens)
        ratios = scalar_ratios(sigma, ratio)
        assert alloc.per_frame_ratio.tobytes() == ratios.tobytes()
        assert np.array_equal(alloc.per_frame_count, scalar_counts(ratios, tokens, min_tokens))
        assert alloc.per_frame_count.dtype == np.int64

        uniform = allocate_uniform(frames, ratio, tokens, min_tokens=min_tokens)
        assert uniform.per_frame_ratio.tobytes() == np.full(frames, ratio).tobytes()
        want = min(tokens, max(min_tokens, math.ceil(ratio * tokens)))
        assert np.array_equal(uniform.per_frame_count, np.full(frames, want))

    @settings(max_examples=200, deadline=None)
    @given(budget_cases())
    def test_softmax_matches_scalar_loop(self, case):
        _, _, _, _, (u, tau, eps), _ = case
        assert softmax_weights(u, tau, eps).tobytes() == scalar_softmax(u, tau, eps).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(budget_cases(), st.integers(0, 2**32))
    def test_random_drop_counts_are_uniform_budgets(self, case, seed):
        frames, tokens, ratio, _, _, _ = case
        tensor = TokenTensor.from_array(np.zeros((frames, tokens, 1), dtype=np.float32))
        counts = random_drop(tensor, ratio, seed).counts
        assert np.array_equal(counts, allocate_uniform(frames, ratio, tokens).per_frame_count)

    @settings(max_examples=100, deadline=None)
    @given(budget_cases(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_non_finite_weight_is_never_a_count(self, case, bad, data):
        frames, tokens, ratio, min_tokens, _, sigma = case
        sigma = sigma.copy()
        sigma[index := data.draw(st.integers(0, frames - 1))] = bad
        with pytest.raises(NonFiniteError) as err:
            allocate(sigma, ratio, tokens, min_tokens=min_tokens)
        assert err.value.flat_index == index


@st.composite
def fca_cases(draw):
    frames, tokens = draw(st.integers(1, 64)), draw(st.integers(1, 512))
    ratio = draw(st.floats(0.0, 1.0, exclude_min=True))
    min_tokens = draw(st.sampled_from([1, 2, tokens, tokens + 1, 10**30]))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=frames, max_size=frames))
    tau, eps = draw(st.floats(1e-4, 10.0)), draw(st.floats(1e-12, 1e6))
    return frames, tokens, ratio, min_tokens, u, tau, eps


def weight_spread(sigma) -> Fraction:
    """sum_t |sigma_t - 1/T|, exact over the float weights."""
    return sum(abs(Fraction(s) - Fraction(1, len(sigma))) for s in sigma.tolist())


class TestFcaReach:
    """How far frame compression adjustment (FCA) moves budgets from uniform.

    r_t - R = R*(sigma_t - 1/T), and ceil and the clamp each move a count
    by at most 1 more, so sum_t |k_t - k_uniform| <= R*M*spread + T with
    spread = sum_t |sigma_t - 1/T|.  The weights are >= 0 and sum to at
    most 1, so for T >= 2 the spread is at most 2*(1 - 1/T).  At T = 1 it
    is 1 - sigma, which a large epsilon pushes towards 1.
    """

    @settings(max_examples=300, deadline=None)
    @given(fca_cases())
    def test_budget_shift_is_bounded_by_the_weight_spread(self, case):
        frames, tokens, ratio, min_tokens, u, tau, eps = case
        sigma = softmax_weights(u, tau, eps)
        counts = allocate(sigma, ratio, tokens, min_tokens).per_frame_count
        uniform = allocate_uniform(frames, ratio, tokens, min_tokens).per_frame_count
        spread = weight_spread(sigma)
        assert int(np.abs(counts - uniform).sum()) <= Fraction(ratio) * tokens * spread + frames
        if frames >= 2:
            assert spread <= 2 * (1 - Fraction(1, frames))

    def test_one_frame_with_a_large_epsilon(self):
        # sigma = 1/(1 + 1e6): the one frame keeps 1 token, not the uniform 50,
        # past 2*R*M*(1 - 1/T) + T = 1 but within R*M*spread + T.
        sigma = softmax_weights([0.3], 0.01, 1e6)
        assert sigma[0] == pytest.approx(1e-6, rel=1e-5)
        counts = allocate(sigma, 0.5, 100).per_frame_count
        assert counts.tolist() == [1]
        assert allocate_uniform(1, 0.5, 100).per_frame_count.tolist() == [50]
        assert 49 <= Fraction(0.5) * 100 * weight_spread(sigma) + 1

