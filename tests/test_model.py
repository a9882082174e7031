import math
import numbers
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import (
    CompressedSelection,
    ConfigError,
    DimensionMismatchError,
    KExceedsMError,
    LengthMismatchError,
    NonFiniteError,
    Policy,
    RetentionConfig,
    SyntheticSpec,
    TokenTensor,
    ShapeMismatchError,
    WindowOutOfRangeError,
    allocate,
    allocate_uniform,
    combine_scores,
    compress,
    cosine,
    generate,
    softmax_weights,
    topk_select,
    validate,
    window_edges,
)
from vtcomp import accum
from vtcomp.budget import frame_counts, frame_uniqueness, pools_from_frame_sums
from vtcomp.compress import keep_top, token_ranks
from vtcomp.formats import MAX_AXIS
from vtcomp.model import shown


class TestTokenTensor:
    def test_smallest_legal_tensor(self):
        t = TokenTensor.from_flat(1, 1, 1, [0.0])
        validate(t)
        assert (t.frames, t.tokens_per_frame, t.dim) == (1, 1, 1)

    def test_off_by_one_length(self):
        with pytest.raises(DimensionMismatchError):
            TokenTensor.from_flat(2, 2, 2, list(range(7)))

    def test_injected_nan_reports_flat_index(self):
        data = np.zeros(12, dtype=np.float32)
        data[7] = np.nan
        with pytest.raises(NonFiniteError) as err:
            TokenTensor.from_flat(2, 3, 2, data)
        assert err.value.flat_index == 7

    def test_injected_inf(self):
        data = np.zeros(8, dtype=np.float32)
        data[3] = np.inf
        with pytest.raises(NonFiniteError) as err:
            TokenTensor.from_flat(2, 2, 2, data)
        assert err.value.flat_index == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("build", [
        lambda: TokenTensor.from_array(np.full((1, 1, 1), 1e39)),
        lambda: TokenTensor.from_flat(1, 1, 1, [1e39]),
        lambda: generate(SyntheticSpec(2, 2, 2, model="clustered", num_clusters=2,
                                       noise_sigma=1e308)),
    ], ids=["from_array", "from_flat", "generate"])
    def test_overflowing_cast_is_non_finite(self, build):
        with pytest.raises(NonFiniteError) as err:
            build()
        assert err.value.flat_index == 0

    def test_from_array_requires_three_axes(self):
        with pytest.raises(DimensionMismatchError):
            TokenTensor.from_array(np.zeros((2, 3), dtype=np.float32))

    def test_values_are_read_only_and_never_alias_input(self):
        src = np.ones((2, 2, 2), dtype=np.float32)
        t = TokenTensor.from_array(src)
        src[0, 0, 0] = 5.0
        assert t.values[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 9.0

    def test_flat_is_row_major(self):
        values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        t = TokenTensor.from_array(values)
        assert np.array_equal(t.flat, np.arange(24, dtype=np.float32))

    def test_validate_fuzz_random_corruptions(self, rng):
        for _ in range(50):
            frames = int(rng.integers(1, 5))
            tokens = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 5))
            data = rng.standard_normal(frames * tokens * dim).astype(np.float32)
            validate(TokenTensor.from_flat(frames, tokens, dim, data))  # clean passes

            bad = data.copy()
            idx = int(rng.integers(0, bad.size))
            bad[idx] = np.nan if rng.random() < 0.5 else np.inf
            broken = TokenTensor(bad.reshape(frames, tokens, dim))
            with pytest.raises(NonFiniteError) as err:
                validate(broken)
            assert err.value.flat_index == idx

            with pytest.raises(DimensionMismatchError):
                TokenTensor.from_flat(frames, tokens, dim, data[:-1])

    @pytest.mark.parametrize("shape", [(5, 256, 512), (40, 8, 300)])
    def test_first_non_finite_at_frame_edges(self, shape):
        # validate checks blocks of whole frames; a fault at either edge of
        # any frame (hence of any block), up to the very last element, is
        # reported by its exact flat index, and the earlier of two wins.
        frames, tokens, dim = shape
        frame_size = tokens * dim
        values = np.zeros(shape, dtype=np.float32)
        flat = values.reshape(-1)
        for t in range(frames):
            first, last = t * frame_size, (t + 1) * frame_size - 1
            for idx in (first, last):
                flat[idx] = np.nan
                with pytest.raises(NonFiniteError) as err:
                    validate(TokenTensor(values))
                assert err.value.flat_index == idx
                flat[idx] = 0.0
            if t + 1 < frames:
                flat[last] = -np.inf
                flat[last + 1] = np.nan
                with pytest.raises(NonFiniteError) as err:
                    validate(TokenTensor(values))
                assert err.value.flat_index == last
                flat[last] = flat[last + 1] = 0.0
        validate(TokenTensor(values))

    def test_layout_never_changes_the_reported_index(self, rng):
        # A Fortran-ordered or strided copy must still name the first fault
        # in C order, also when a later C index comes first in memory.
        shape = (6, 70, 300)
        size = int(np.prod(shape))
        frame_size = shape[1] * shape[2]
        faults = [(0,), (size - 1,), (frame_size - 1, frame_size), (size - 2, 1),
                  (299, 300 * 70 * 3 + 1)] + [tuple(rng.integers(0, size, 3)) for _ in range(4)]

        def layouts(values):
            wide = np.zeros(shape[:2] + (2 * shape[2],), dtype=np.float32)
            wide[:, :, 1::2] = values
            return [values, np.asfortranarray(values), wide[:, :, 1::2]]

        clean = rng.standard_normal(shape).astype(np.float32)
        for values in layouts(clean):
            validate(TokenTensor(values))
        for fault in faults:
            flat = clean.reshape(-1).copy()
            for bad, idx in zip((np.inf, np.nan, -np.inf), fault):
                flat[idx] = bad
            for values in layouts(flat.reshape(shape)):
                with pytest.raises(NonFiniteError) as err:
                    validate(TokenTensor(values))
                assert err.value.flat_index == min(fault)


    def test_numpy_body_names_the_first_fault_without_a_warning(self, monkeypatch):
        # validate finds faults through the frame sums; the numpy body adds
        # inf + -inf in one channel there, which warns unless validate
        # silences it.  The later NaN must not be the one reported.
        monkeypatch.setattr(accum, "_lib", None)
        values = np.zeros((3, 4, 5), dtype=np.float32)
        values[1, 1, 2] = np.inf
        values[1, 3, 2] = -np.inf
        values[2, 0, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as err:
                validate(TokenTensor(values))
        assert err.value.flat_index == np.ravel_multi_index((1, 1, 2), values.shape)


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_norm_convention(self):
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_opposite_direction(self):
        # (3, 4) has an exactly representable norm (5), so the similarity
        # is exactly -1; generic vectors come within an ulp of it.
        assert cosine([3.0, 4.0], [-3.0, -4.0]) == -1.0
        assert cosine([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0, abs=1e-15)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_range_and_symmetry(self, vec):
        other = [v + 1.0 for v in vec]
        s = cosine(vec, other)
        assert -1.0 <= s <= 1.0
        assert s == cosine(other, vec)

    @given(
        st.lists(
            st.floats(-100, 100).map(lambda v: 0.0 if abs(v) < 1e-30 else v),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=-10, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, vec, exponent):
        # Exactness needs every intermediate to stay in the normal float
        # range (denormals lose mantissa bits under scaling), hence the
        # magnitude floor; float32-sourced token data always satisfies it.
        other = list(reversed(vec))
        scale = 2.0 ** exponent
        assert cosine([scale * v for v in vec], other) == cosine(vec, other)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e200, 1e-200, -1e300, 5e-320])
    def test_squares_past_the_float64_range_keep_the_answer(self, value):
        # value**2 overflows or underflows float64: the norms would be inf or 0.
        assert cosine([value], [value]) == 1.0
        assert cosine([value, 0.0], [-value, 0.0]) == -1.0
        assert cosine([value, 0.0], [0.0, value]) == 0.0

    @given(
        st.lists(st.floats(2.0**-20, 2.0**20), min_size=1, max_size=8),
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact_past_the_square_range(self, vec, signs, k, j):
        # Every element stays a normal float64 under 2**k and 2**j, though
        # its square may not.
        a = [-v if neg else v for v, neg in zip(vec, signs)]
        b = list(reversed(vec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = cosine([v * 2.0**k for v in a], [v * 2.0**j for v in b])
        assert scaled == cosine(a, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b, name, index", [
        ([math.nan], [1.0], "a", 0),
        ([math.inf], [1.0], "a", 0),
        ([1.0, math.nan], [1.0, 1.0], "a", 1),
        ([math.inf, 1.0], [math.inf, 1.0], "a", 0),
        ([1.0, 2.0], [1.0, -math.inf], "b", 1),
        ([[1.0, 2.0], [3.0, math.nan]], [[1.0] * 2] * 2, "a", 3),
    ])
    def test_a_non_finite_element_raises_naming_its_vector_and_index(self, a, b, name, index):
        # A NaN ratio passed through the clamp used to come out as -1.0, "most unique".
        with pytest.raises(NonFiniteError, match=f"in {name} at flat index {index}") as err:
            cosine(a, b)
        assert err.value.flat_index == index

    def test_generic_positive_scaling_is_close(self, rng):
        for _ in range(100):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            c = float(rng.uniform(0.01, 100.0))
            assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-12)


class TestRetentionConfig:
    def test_defaults(self):
        cfg = RetentionConfig()
        assert cfg.ratio == 0.25
        assert cfg.temperature == 0.01
        assert cfg.epsilon == 1e-8
        assert cfg.window == "global"
        assert cfg.alpha == 1.0 and cfg.beta == 1.0
        assert cfg.min_tokens_per_frame == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratio": 0.0},
            {"ratio": 1.5},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"epsilon": 0.0},
            {"alpha": -0.5},
            {"alpha": 0.0, "beta": 0.0},
            {"min_tokens_per_frame": 0},
            {"window": 0},
            {"window": "blah"},
            {"alpha": 1e308, "beta": 1e308},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetentionConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": float("nan")},
            {"epsilon": float("inf")},
            {"temperature": float("inf")},
            {"beta": float("inf")},
            {"min_tokens_per_frame": 2.5},
            {"window": np.int64(2)},
        ],
        ids=["alpha-nan", "epsilon-inf", "temperature-inf", "beta-inf",
             "min-tokens-fractional", "window-numpy-int"],
    )
    def test_undefined_values_rejected_numpy_ints_accepted(self, kwargs):
        # Non-finite weights leave the output undefined: on a 4x8x3 tensor
        # epsilon=inf flattens budgets [4,2,2,2] to [2,2,2,2] and alpha=nan
        # makes every combined score NaN.  Numpy integers are plain counts.
        (name, value), = kwargs.items()
        if isinstance(value, np.integer):
            cfg = RetentionConfig(**kwargs)
            assert getattr(cfg, name) == int(value)
            assert type(getattr(cfg, name)) is int
            values = np.random.default_rng(3).standard_normal((4, 8, 3))
            compress(TokenTensor.from_array(values), cfg)
        else:
            with pytest.raises(ConfigError):
                RetentionConfig(**kwargs)

    @pytest.mark.parametrize("name", ["ratio", "temperature", "epsilon", "alpha", "beta"])
    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "str", "none"])
    def test_real_fields_reject_bools_and_non_numbers(self, name, value):
        with pytest.raises(ConfigError, match=name):
            RetentionConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1)])
    def test_real_fields_accept_numpy_scalars(self, value):
        assert RetentionConfig(ratio=value, alpha=value).ratio == value

    def test_fraction_is_stored_as_a_plain_float(self):
        cfg = RetentionConfig(ratio=Fraction(1, 4))
        assert type(cfg.ratio) is float and cfg.ratio == 0.25
        tensor = TokenTensor.from_array(np.random.default_rng(5).standard_normal((4, 8, 3)))
        got, expected = (compress(tensor, c) for c in (cfg, RetentionConfig(ratio=0.25)))
        for a, b in ((got.report, expected.report), (got.allocation, expected.allocation)):
            assert [x.tobytes() for x in vars(a).values()] == \
                [x.tobytes() for x in vars(b).values()]
        assert [i.tolist() for i in got.selection.kept_indices] == \
            [i.tolist() for i in expected.selection.kept_indices]

    @pytest.mark.parametrize("name", ["temperature", "epsilon", "alpha", "beta"])
    def test_int_past_the_float_range_names_the_field(self, name):
        with pytest.raises(ConfigError, match=name):
            RetentionConfig(**{name: 10**400})

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1)])
    def test_numpy_scalars_are_stored_as_plain_floats(self, value):
        names = ("ratio", "temperature", "epsilon", "alpha", "beta")
        cfg = RetentionConfig(**dict.fromkeys(names, value))
        assert all(type(getattr(cfg, name)) is float for name in names)

    def test_string_enums_coerced(self):
        cfg = RetentionConfig(adjustment="uniform", frame_aggregation="max",
                              score_mode="video_only")
        assert cfg.adjustment.value == "uniform"
        assert cfg.frame_aggregation.value == "max"
        assert cfg.score_mode.value == "video_only"

    def test_unknown_enum_string_rejected(self):
        with pytest.raises(ConfigError, match="score_mode"):
            RetentionConfig(score_mode="sideways")


class TestCompressedSelection:
    def test_zero_frame_mask_has_no_frames(self):
        selection = CompressedSelection.from_mask(np.zeros((0, 5, 3), np.float32),
                                                  np.zeros((0, 5), bool))
        assert selection.frames == 0
        assert selection.kept_indices == () and selection.compressed == ()
        block, counts = selection.padded()
        assert block.shape[:2] == (0, 0) and counts.shape == (0,)

    def test_frames_are_read_only_views_of_one_gather(self):
        values = np.arange(3 * 4 * 2, dtype=np.float32).reshape(3, 4, 2)
        keep = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)
        selection = CompressedSelection.from_mask(values, keep)
        assert [i.tolist() for i in selection.kept_indices] == [[0, 2], [], [0, 1, 2, 3]]
        assert selection.counts.tolist() == [2, 0, 4]
        for t, (index, rows) in enumerate(zip(selection.kept_indices, selection.compressed)):
            assert np.array_equal(rows, values[t, index])
            assert not index.flags.writeable and not rows.flags.writeable
        for buffers in (selection.kept_indices, selection.compressed):
            assert len({id(a.base) for a in buffers}) == 1
            assert buffers[0].base is not None and buffers[0].base is not values


# Every integer entry point: (call, its error kinds, the field its message
# names, (low, high) with None for no bound).
RANKS = token_ranks(np.zeros((2, 3)))
TENSOR = TokenTensor.from_array(np.random.default_rng(0).standard_normal((4, 3, 2)))
POOLS = np.ones((4, 2))
EMPTY_BLOCK = np.zeros((2, 0), dtype=np.float32)
INTEGER_ENTRY_POINTS = {
    "spec-frames": (lambda v: SyntheticSpec(v, 3, 2), ConfigError, "frames", (1, MAX_AXIS)),
    "spec-tokens": (lambda v: SyntheticSpec(2, v, 2), ConfigError, "tokens_per_frame",
                    (1, MAX_AXIS)),
    "spec-dim": (lambda v: SyntheticSpec(2, 3, v), ConfigError, "dim", (1, MAX_AXIS)),
    "spec-seed": (lambda v: SyntheticSpec(2, 3, 2, seed=v), ConfigError, "seed", (0, None)),
    "spec-clusters": (lambda v: SyntheticSpec(4, 3, 2, model="clustered", num_clusters=v),
                      ConfigError, "num_clusters", (1, 4)),
    "spec-outlier": (lambda v: SyntheticSpec(4, 3, 2, model="outlier", outlier_index=v),
                     ConfigError, "outlier_index", (0, 3)),
    "min-tokens": (lambda v: RetentionConfig(min_tokens_per_frame=v), ConfigError,
                   "min_tokens_per_frame", (1, None)),
    "config-window": (lambda v: compress(TENSOR, RetentionConfig(window=v)),
                      (ConfigError, WindowOutOfRangeError), "window", (1, 4)),
    "policy-seed": (lambda v: Policy("random", seed=v), ConfigError, "seed", (0, None)),
    "window-edges": (lambda v: window_edges(4, v), WindowOutOfRangeError, "window", (1, 4)),
    "keep-top": (lambda v: keep_top(RANKS, [1, v]), KExceedsMError, "k=", (0, 3)),
    "topk-select": (lambda v: topk_select(np.arange(5.0), v), KExceedsMError, "k=", (0, 5)),
    "compress-threads": (lambda v: compress(TENSOR, threads=v), ConfigError, "threads",
                         (1, None)),
    # One value fills one flat cell, so each axis is accepted at 1 alone; any
    # other int is an axis below 1 or a length mismatch, both naming the axis.
    "from-flat-frames": (lambda v: TokenTensor.from_flat(v, 1, 1, [0.0]),
                         DimensionMismatchError, "frames", (1, 1)),
    "from-flat-tokens": (lambda v: TokenTensor.from_flat(1, v, 1, [0.0]),
                         DimensionMismatchError, "tokens_per_frame", (1, 1)),
    "from-flat-dim": (lambda v: TokenTensor.from_flat(1, 1, v, [0.0]),
                      DimensionMismatchError, "dim", (1, 1)),
    "transpose-start": (lambda v: accum.transpose_tokens(TENSOR.values, start=v),
                        ShapeMismatchError, "start", (0, 4)),
    "transpose-stop": (lambda v: accum.transpose_tokens(TENSOR.values, stop=v),
                       ShapeMismatchError, "stop", (0, 4)),
    # A block of zero tokens has the same (D', 0) shape for every frame range.
    "reductions-start": (lambda v: accum.token_reductions(EMPTY_BLOCK, 4, 0, [POOLS], start=v),
                         ShapeMismatchError, "start", (0, 4)),
    "reductions-stop": (lambda v: accum.token_reductions(EMPTY_BLOCK, 4, 0, [POOLS], stop=v),
                        ShapeMismatchError, "stop", (0, 4)),
    # No pool and an empty frame range reduce the same empty block at any
    # frame or token count.
    "reductions-frames": (lambda v: accum.token_reductions(EMPTY_BLOCK, v, 0, [], stop=0),
                          ShapeMismatchError, "frames", (0, MAX_AXIS)),
    "reductions-tokens": (lambda v: accum.token_reductions(EMPTY_BLOCK, 0, v, []),
                          ShapeMismatchError, "tokens", (0, MAX_AXIS)),
    "frame-counts-tokens": (lambda v: frame_counts(np.array([0.5, 1.0]), v, 1), ConfigError,
                            "tokens_per_frame", (0, MAX_AXIS)),
    "frame-counts-min": (lambda v: frame_counts(np.array([0.5, 1.0]), 10, v), ConfigError,
                         "min_tokens", (1, None)),
    # Below 1 is a pool over no tokens, a DimensionMismatchError naming them.
    "pools-tokens": (lambda v: pools_from_frame_sums(POOLS, v, 1),
                     (ConfigError, DimensionMismatchError), "tokens", (1, MAX_AXIS)),
}


def ints_of_any_size(bounds):
    """+-10**k for k in 0..6000, and each bound +-1."""
    near = [b + d for b in bounds if b is not None for d in (-1, 0, 1)]
    return st.one_of(st.builds(lambda sign, k: sign * 10**k, st.sampled_from((1, -1)),
                               st.integers(0, 6000)), st.sampled_from(near))


class TestIntegerEntryPoints:
    @pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_int_is_accepted_in_range_or_raises_its_kind(self, entry, data):
        call, kinds, field, (low, high) = INTEGER_ENTRY_POINTS[entry]
        value = data.draw(ints_of_any_size((low, high)), label="value")
        in_range = (low is None or value >= low) and (high is None or value <= high)
        try:
            call(value)
        except kinds as exc:
            assert not in_range, exc
            assert field in str(exc)
        else:
            assert in_range

    @pytest.mark.parametrize("call, kind, field", [
        (lambda: SyntheticSpec(2, 3, 2, seed=-10**5000), ConfigError, "seed"),
        (lambda: SyntheticSpec(2, 3, 2, model="clustered", num_clusters=10**5000),
         ConfigError, "num_clusters"),
        (lambda: SyntheticSpec(2, 3, 2, model="outlier", outlier_index=10**5000),
         ConfigError, "outlier_index"),
        (lambda: RetentionConfig(min_tokens_per_frame=-10**5000), ConfigError,
         "min_tokens_per_frame"),
        (lambda: Policy("random", seed=-10**5000), ConfigError, "seed"),
        (lambda: window_edges(4, 10**5000), WindowOutOfRangeError, "window"),
        (lambda: compress(TENSOR, RetentionConfig(window=10**5000)), WindowOutOfRangeError,
         "window"),
        (lambda: topk_select(np.arange(5.0), 10**5000), KExceedsMError, "k="),
        (lambda: keep_top(RANKS, [1, 10**5000]), KExceedsMError, "k="),
    ], ids=["spec-seed", "spec-clusters", "spec-outlier", "min-tokens", "policy-seed",
            "window-edges", "config-window", "topk-select", "keep-top"])
    def test_an_int_past_the_string_limit_raises_its_kind(self, call, kind, field):
        with pytest.raises(kind, match=field) as err:
            call()
        assert "10**5000" in str(err.value)  # sign and size, not 5001 digits


# Every real entry point: (call, the name its message gives, the bound an
# in-range finite float meets).  A value that is not a real number, or is
# not finite as a float, is never in range.
GRID = np.zeros((2, 3))
POSITIVE, NON_NEGATIVE = (lambda x: x > 0.0), (lambda x: x >= 0.0)
RATIO, PAIR = (lambda x: 0.0 < x <= 1.0), (lambda x: 0.0 < x + x < math.inf)
REAL_ENTRY_POINTS = {
    "config-ratio": (lambda v: RetentionConfig(ratio=v), "ratio", RATIO),
    "config-temperature": (lambda v: RetentionConfig(temperature=v), "temperature", POSITIVE),
    "config-epsilon": (lambda v: RetentionConfig(epsilon=v), "epsilon", POSITIVE),
    "config-alpha": (lambda v: RetentionConfig(alpha=v), "alpha", NON_NEGATIVE),
    "config-beta": (lambda v: RetentionConfig(beta=v), "beta", NON_NEGATIVE),
    "config-pair": (lambda v: RetentionConfig(alpha=v, beta=v), "alpha", PAIR),
    "softmax-tau": (lambda v: softmax_weights([0.1, 0.2], v, 1e-8), "tau", POSITIVE),
    "softmax-eps": (lambda v: softmax_weights([0.1, 0.2], 0.01, v), "eps", POSITIVE),
    "allocate-ratio": (lambda v: allocate([0.4, 0.6], v, 10), "ratio", RATIO),
    "allocate-uniform-ratio": (lambda v: allocate_uniform(2, v, 10), "ratio", RATIO),
    "combine-alpha": (lambda v: combine_scores(GRID, GRID, alpha=v), "alpha", NON_NEGATIVE),
    "combine-beta": (lambda v: combine_scores(GRID, GRID, beta=v), "beta", NON_NEGATIVE),
    "combine-pair": (lambda v: combine_scores(GRID, GRID, alpha=v, beta=v), "alpha", PAIR),
}
TINY, HUGE = math.nextafter(0.0, 1.0), sys.float_info.max
REAL_PROBES = [0.0, -0.0, TINY, -TINY, 0.25, math.nextafter(1.0, 0.0), 1.0,
               math.nextafter(1.0, 2.0), HUGE / 2, math.nextafter(HUGE / 2, math.inf), HUGE,
               -1.0, math.nan, math.inf, -math.inf, 10**400, -10**400, True, "0.5",
               Fraction(1, 4), np.float32(0.5)]


def finite_real(value):
    """``value`` as a finite float, or None for anything a real field rejects."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


class TestArgumentRule:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", REAL_PROBES, ids=shown)
    @pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
    def test_any_real_is_accepted_in_range_or_raises_config_error(self, entry, value):
        call, name, bound = REAL_ENTRY_POINTS[entry]
        number = finite_real(value)
        in_range = number is not None and bound(number)
        try:
            call(value)
        except ConfigError as exc:
            assert not in_range, exc
            assert name in str(exc)
        else:
            assert in_range

    def test_stages_take_a_real_as_the_float_it_equals(self):
        weights = softmax_weights([0.1, 0.2], Fraction(1, 2), 1e-8)
        assert np.array_equal(weights, softmax_weights([0.1, 0.2], 0.5, 1e-8))
        assert np.array_equal(allocate([0.4, 0.6], Fraction(1, 4), 10).per_frame_count,
                              allocate([0.4, 0.6], 0.25, 10).per_frame_count)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, kind, name", [
        (lambda: compress(TENSOR, threads=2.5), ConfigError, "threads"),
        (lambda: compress(TENSOR, threads=0), ConfigError, "threads"),
        (lambda: compress(TENSOR, threads=True), ConfigError, "threads"),
        (lambda: keep_top(token_ranks(np.zeros((2, 3))), [Fraction(1, 2), 1]), ConfigError,
         "counts"),
        (lambda: allocate_uniform(2.5, 0.25, 10), ConfigError, "frames"),
        (lambda: allocate_uniform(2, 0.25, 10.5), ConfigError, "tokens_per_frame"),
        (lambda: allocate_uniform(2, 0.25, 10, -5), ConfigError, "min_tokens"),
        (lambda: softmax_weights([0.1, 0.2], 0.0, 1e-8), ConfigError, "tau"),
        (lambda: combine_scores(GRID, GRID, alpha=float("nan")), ConfigError, "alpha"),
        (lambda: TokenTensor.from_flat(10**5000, 1, 1, [0.0]), DimensionMismatchError,
         "frames"),
        (lambda: TokenTensor.from_flat(2.0, 1, 1, [0.0, 1.0]), DimensionMismatchError,
         "frames"),
        (lambda: accum.transpose_tokens(TENSOR.values, start=0.5, stop=2), ShapeMismatchError,
         "start"),
        (lambda: accum.transpose_tokens(TENSOR.values, stop=10**5000), ShapeMismatchError,
         "stop"),
        (lambda: accum.transpose_tokens(TENSOR.values, start=3, stop=2), ShapeMismatchError,
         "stop"),
        (lambda: accum.token_reductions(EMPTY_BLOCK, 4, 0, [POOLS], start=-1),
         ShapeMismatchError, "start"),
        (lambda: accum.token_reductions(EMPTY_BLOCK, 4.0, 0, [POOLS]), ShapeMismatchError,
         "frames"),
        (lambda: accum.token_reductions(EMPTY_BLOCK, "4", 0, [POOLS]), ShapeMismatchError,
         "frames"),
        (lambda: accum.token_reductions(EMPTY_BLOCK, True, 0, [POOLS]), ShapeMismatchError,
         "frames"),
        (lambda: accum.token_reductions(EMPTY_BLOCK, 4, 0.0, [POOLS]), ShapeMismatchError,
         "tokens"),
        (lambda: pools_from_frame_sums(POOLS, 2.5, 1), ConfigError, "tokens"),
        (lambda: pools_from_frame_sums(POOLS, True, 1), ConfigError, "tokens"),
    ], ids=["compress-threads-float", "compress-threads-0", "compress-threads-bool",
            "keep-top-fraction",
            "uniform-frames-float", "uniform-tokens-float", "uniform-min-tokens-negative",
            "softmax-tau-0", "combine-alpha-nan", "from-flat-huge", "from-flat-float",
            "transpose-start-float", "transpose-stop-huge", "transpose-stop-before-start",
            "reductions-start-negative", "reductions-frames-float", "reductions-frames-str",
            "reductions-frames-bool", "reductions-tokens-float", "pools-tokens-float",
            "pools-tokens-bool"])
    def test_a_bad_scalar_raises_its_kind_naming_it(self, call, kind, name):
        with pytest.raises(kind, match=name) as err:
            call()
        assert type(err.value) is kind  # not a bare ValueError or TypeError

    @pytest.mark.parametrize("call, name, valid", [
        (lambda: RetentionConfig(adjustment="bogus"), "adjustment", "'adaptive', 'uniform'"),
        (lambda: RetentionConfig(score_mode=3), "score_mode", "'combined', 'frame_only'"),
        (lambda: RetentionConfig(frame_aggregation="x"), "frame_aggregation",
         "'mean', 'max'"),
        (lambda: combine_scores(GRID, GRID, mode="x"), "mode", "'combined', 'frame_only'"),
        (lambda: frame_uniqueness(GRID, "x"), "aggregation", "'mean', 'max'"),
    ], ids=["config-adjustment", "config-score-mode", "config-aggregation", "combine-mode",
            "frame-uniqueness-aggregation"])
    def test_an_unknown_choice_is_config_error_naming_the_field(self, call, name, valid):
        with pytest.raises(ConfigError, match=f"^{name} must be one of {valid}") as err:
            call()
        assert type(err.value) is ConfigError  # not a bare ValueError

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=shown)
    def test_a_non_finite_frame_weight_is_non_finite_error(self, bad):
        with pytest.raises(NonFiniteError, match="frame 1") as err:
            allocate([0.5, bad, math.nan], 0.25, 10)
        assert err.value.flat_index == 1

    @pytest.mark.filterwarnings("error")
    def test_a_huge_finite_frame_weight_is_a_full_frame(self):
        # The ratio is clipped before it scales, so ratio * M cannot overflow.
        allocation = allocate([1e308, -1e308], 1.0, MAX_AXIS)
        assert allocation.per_frame_count.tolist() == [MAX_AXIS, 1]

    def test_no_frames_allocate_empty_budgets(self):
        allocation = allocate([], 0.25, 10)
        assert allocation.per_frame_ratio.shape == allocation.per_frame_count.shape == (0,)
        assert allocation.per_frame_count.dtype == np.int64

    def test_no_frames_get_no_softmax_weights(self):
        weights = softmax_weights([], 0.01, 1e-8)
        assert weights.shape == (0,) and weights.dtype == np.float64

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("aggregation", ["mean", "max"])
    def test_a_frame_of_no_tokens_has_no_uniqueness(self, aggregation):
        with pytest.raises(ShapeMismatchError, match=r"\(3, 0\)"):
            frame_uniqueness(np.zeros((3, 0)), aggregation)

    @pytest.mark.parametrize("frames", [-1, 2.5, True, "2", MAX_AXIS + 1, -10**5000, 10**5000],
                             ids=shown)
    def test_allocate_uniform_frames_out_of_range_raise_config_error(self, frames):
        # Not a row of INTEGER_ENTRY_POINTS: an in-range frames allocates that
        # many floats, and the table's draws reach MAX_AXIS.
        with pytest.raises(ConfigError, match="frames"):
            allocate_uniform(frames, 0.25, 10)

    @pytest.mark.parametrize("frames", [0, 1, 3, np.int64(2)])
    def test_allocate_uniform_frames_in_range_are_accepted(self, frames):
        allocation = allocate_uniform(frames, 0.25, 10)
        assert allocation.per_frame_count.tolist() == [3] * int(frames)

    @pytest.mark.parametrize("count", [Fraction(1, 2), Decimal("0.5"), 0.5, math.nan,
                                       Decimal("NaN"), True, np.True_, "1", None, 1j])
    def test_a_count_that_is_not_a_whole_number_is_config_error(self, count):
        with pytest.raises(ConfigError, match="counts"):
            keep_top(RANKS, [count, 1])

    @pytest.mark.parametrize("count", [2, 2.0, Fraction(2, 1), Decimal(2), np.float32(2),
                                       np.int8(2), np.uint64(2)])
    def test_a_whole_count_keeps_its_int(self, count):
        assert keep_top(RANKS, [count, 1]).sum(axis=1).tolist() == [2, 1]
        assert keep_top(RANKS, np.array([count, 1])).sum(axis=1).tolist() == [2, 1]

    @pytest.mark.parametrize("count", [math.inf, -math.inf, Decimal("Infinity"), 4.0, -1,
                                       Fraction(8, 2)])
    def test_a_whole_count_outside_0_to_m_is_k_exceeds_m(self, count):
        with pytest.raises(KExceedsMError, match="k="):
            keep_top(RANKS, [count, 1])

    def test_an_integer_array_is_not_converted(self):
        counts = np.array([2, 1], dtype=np.int64)
        assert np.array_equal(keep_top(RANKS, counts), RANKS < counts[:, None])
        assert np.array_equal(keep_top(RANKS, counts.astype(np.uint8)), RANKS < counts[:, None])
