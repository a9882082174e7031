import numpy as np
import pytest

from vtcomp import (
    ConfigError,
    RetentionConfig,
    SyntheticSpec,
    TokenTensor,
    compress,
    generate,
)


def reference_generate(spec: SyntheticSpec) -> TokenTensor:
    """The float64 whole-block draw, cast once by ``from_array``: the bits
    ``generate`` must keep."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    T, M, D = spec.frames, spec.tokens_per_frame, spec.dim

    if spec.model == "iid":
        data = rng.standard_normal((T, M, D))
    elif spec.model == "clustered":
        centers = rng.standard_normal((spec.num_clusters, D))
        data = np.empty((T, M, D))
        for t in range(T):
            scene = t * spec.num_clusters // T
            noise = rng.standard_normal((M, D))
            data[t] = centers[scene] + spec.noise_sigma * noise
    else:
        center = rng.standard_normal(D)
        unit = center / np.linalg.norm(center)
        data = np.empty((T, M, D))
        for t in range(T):
            noise = rng.standard_normal((M, D))
            if t == spec.outlier_index:
                raw = rng.standard_normal((M, D))
                raw -= np.outer(raw @ unit, unit)
                data[t] = raw + spec.noise_sigma * noise
            else:
                data[t] = center + spec.noise_sigma * noise
    return TokenTensor.from_array(data)


def _random_specs(count: int, seed: int = 4417) -> list[SyntheticSpec]:
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        frames = int(rng.integers(1, 9))
        specs.append(SyntheticSpec(
            frames, int(rng.integers(1, 7)), int(rng.integers(1, 9)),
            model=("iid", "clustered", "outlier")[i % 3],
            num_clusters=int(rng.integers(1, frames + 1)),
            noise_sigma=float(rng.choice([0.0, 0.01, 0.5, 3.0])),
            outlier_index=int(rng.integers(0, frames)),
            seed=int(rng.integers(0, 2**63)),
        ))
    return specs


REFERENCE_SPECS = [
    SyntheticSpec(5, 4, 6, model="iid", seed=3),
    SyntheticSpec(1, 1, 1, model="iid", seed=0),
    SyntheticSpec(6, 3, 5, model="clustered", num_clusters=6, noise_sigma=0.2, seed=8),
    SyntheticSpec(6, 3, 5, model="clustered", num_clusters=1, noise_sigma=0.0, seed=8),
    SyntheticSpec(7, 2, 4, model="clustered", num_clusters=3, noise_sigma=1.5, seed=1),
    SyntheticSpec(5, 4, 7, model="outlier", outlier_index=0, noise_sigma=0.1, seed=4),
    SyntheticSpec(5, 4, 7, model="outlier", outlier_index=4, noise_sigma=0.1, seed=4),
    SyntheticSpec(5, 4, 7, model="outlier", outlier_index=2, noise_sigma=0.0, seed=4),
    SyntheticSpec(1, 3, 3, model="outlier", outlier_index=0, noise_sigma=0.0, seed=2),
    *_random_specs(30),
]


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
            {"frames": 2.5},
            {"tokens_per_frame": True},
            {"dim": "4"},
            {"model": "clustered", "num_clusters": 1.5},
            {"model": "clustered", "num_clusters": True},
            {"model": "outlier", "outlier_index": 1.5},
            {"model": "iid", "outlier_index": 1.5},
            {"model": "iid", "num_clusters": False},
        ],
    )
    def test_invalid_specs(self, kwargs):
        base = dict(frames=8, tokens_per_frame=4, dim=4)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SyntheticSpec(**base)


    @pytest.mark.parametrize("axis", ["frames", "tokens_per_frame", "dim"])
    def test_axis_past_the_vtok_header(self, axis):
        # The .vtok header holds each axis as uint32; no draw is made.
        shape = dict(frames=1, tokens_per_frame=1, dim=1)
        SyntheticSpec(**{**shape, axis: 2**32 - 1})
        with pytest.raises(ConfigError, match=axis):
            SyntheticSpec(**{**shape, axis: 2**32})

    def test_unaddressable_shape_of_header_sized_axes(self):
        with pytest.raises(ConfigError, match="exceeds"):
            SyntheticSpec(frames=2**21, tokens_per_frame=2**21, dim=2**21)

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

    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_bits_match_reference_draw(self, spec):
        assert generate(spec).values.tobytes() == reference_generate(spec).values.tobytes()

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
        {"noise_sigma": True}, {"noise_sigma": "0.1"}, {"noise_sigma": 10**400},
    ])
    def test_rejected_before_drawing(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(frames=2, tokens_per_frame=3, dim=2, **kwargs)

    def test_numpy_seed_is_a_plain_int(self):
        spec = SyntheticSpec(frames=2, tokens_per_frame=3, dim=2, seed=np.int64(7))
        assert type(spec.seed) is int and spec.seed == 7

    def test_numpy_integers_are_plain_ints(self):
        spec = SyntheticSpec(frames=np.int32(4), tokens_per_frame=np.uint8(3), dim=np.int64(2),
                             model="outlier", outlier_index=np.int16(3), num_clusters=np.int8(2))
        for name in ("frames", "tokens_per_frame", "dim", "outlier_index", "num_clusters"):
            assert type(getattr(spec, name)) is int
        assert generate(spec).values.shape == (4, 3, 2)

    def test_iid_keeps_an_out_of_range_outlier_index(self):
        # gen --model iid --outlier -1 runs: the range applies to outlier only.
        spec = SyntheticSpec(frames=2, tokens_per_frame=3, dim=2, outlier_index=-1)
        assert spec.outlier_index == -1
