import numpy as np
import pytest

from vtcomp import (
    ConfigError,
    RetentionConfig,
    SyntheticSpec,
    compress,
    generate,
)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "weird"},
            {"frames": 0},
            {"dim": 0},
            {"noise_sigma": -0.1},
            {"model": "clustered", "num_clusters": 0},
            {"model": "clustered", "num_clusters": 9},
            {"model": "outlier", "outlier_index": 8},
            {"model": "outlier", "outlier_index": -1},
        ],
    )
    def test_invalid_specs(self, kwargs):
        base = dict(frames=8, tokens_per_frame=4, dim=4)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SyntheticSpec(**base)


class TestGenerate:
    def test_same_spec_same_bits(self):
        spec = SyntheticSpec(6, 5, 8, model="clustered", num_clusters=2,
                             noise_sigma=0.3, seed=123)
        a = generate(spec)
        b = generate(spec)
        assert a.values.tobytes() == b.values.tobytes()

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(3, 4, 5, seed=1))
        b = generate(SyntheticSpec(3, 4, 5, seed=2))
        assert a.values.tobytes() != b.values.tobytes()

    def test_shape_and_dtype(self):
        t = generate(SyntheticSpec(3, 4, 5, seed=0))
        assert t.values.shape == (3, 4, 5)
        assert t.values.dtype == np.float32

    def test_single_cluster_zero_noise_is_constant(self):
        t = generate(SyntheticSpec(4, 3, 6, model="clustered", num_clusters=1,
                                   noise_sigma=0.0, seed=9))
        first = t.values[0, 0]
        assert np.array_equal(t.values, np.tile(first, (4, 3, 1)))

    def test_clusters_form_contiguous_scenes(self):
        t = generate(SyntheticSpec(6, 2, 4, model="clustered", num_clusters=2,
                                   noise_sigma=0.0, seed=5))
        v = t.values
        assert np.array_equal(v[0], v[1]) and np.array_equal(v[1], v[2])
        assert np.array_equal(v[3], v[4]) and np.array_equal(v[4], v[5])
        assert not np.array_equal(v[0], v[3])

    def test_outlier_frame_is_orthogonal_to_center(self):
        spec = SyntheticSpec(5, 6, 32, model="outlier", outlier_index=2,
                             noise_sigma=0.0, seed=11)
        t = generate(spec)
        center = t.values[0, 0].astype(np.float64)  # zero noise: others = center
        for m in range(6):
            tok = t.values[2, m].astype(np.float64)
            cosine = tok @ center / (np.linalg.norm(tok) * np.linalg.norm(center))
            assert abs(cosine) < 1e-5

    def test_outlier_frame_wins_budget_after_compress(self):
        spec = SyntheticSpec(8, 12, 24, model="outlier", outlier_index=3,
                             noise_sigma=0.05, seed=21)
        result = compress(generate(spec), RetentionConfig(ratio=0.25))
        counts = result.allocation.per_frame_count
        assert all(counts[3] > counts[i] for i in range(8) if i != 3)


class TestSeedAndNoise:
    @pytest.mark.parametrize("kwargs", [
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "3"},
        {"noise_sigma": float("nan")}, {"noise_sigma": float("inf")},
    ])
    def test_rejected_before_drawing(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(frames=2, tokens_per_frame=3, dim=2, **kwargs)

    def test_numpy_seed_is_a_plain_int(self):
        spec = SyntheticSpec(frames=2, tokens_per_frame=3, dim=2, seed=np.int64(7))
        assert type(spec.seed) is int and spec.seed == 7
