import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
    RetentionConfig,
    SyntheticSpec,
    TokenTensor,
    compress,
    cosine,
    generate,
    validate,
)


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

    def test_string_enums_coerced(self):
        cfg = RetentionConfig(adjustment="uniform", frame_aggregation="max",
                              score_mode="video_only")
        assert cfg.adjustment.value == "uniform"
        assert cfg.frame_aggregation.value == "max"
        assert cfg.score_mode.value == "video_only"

    def test_unknown_enum_string_rejected(self):
        with pytest.raises(ValueError):
            RetentionConfig(score_mode="sideways")
