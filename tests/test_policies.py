import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcomp import (
    Adjustment,
    Aggregation,
    ConfigError,
    Policy,
    RetentionConfig,
    ScoreMode,
    TokenTensor,
    allocate_uniform,
    compress,
    random_drop,
    uniform_topk,
)
from vtcomp.policies import POLICY_NAMES


@pytest.fixture
def tensor(rng):
    return TokenTensor.from_array(rng.standard_normal((4, 8, 3)).astype(np.float32))


class TestRandomDrop:
    def test_full_ratio_keeps_all_indices(self, tensor):
        sel = random_drop(tensor, 1.0, seed=99)
        for idx in sel.kept_indices:
            assert idx.tolist() == list(range(8))

    def test_same_seed_is_deterministic(self, tensor):
        a = random_drop(tensor, 0.5, seed=7)
        b = random_drop(tensor, 0.5, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.kept_indices, b.kept_indices))
        assert all(np.array_equal(x, y) for x, y in zip(a.compressed, b.compressed))

    def test_different_seeds_differ(self, tensor):
        a = random_drop(tensor, 0.25, seed=1)
        b = random_drop(tensor, 0.25, seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.kept_indices, b.kept_indices))

    def test_budget_is_exactly_t_times_ceil(self, rng):
        for _ in range(20):
            frames = int(rng.integers(1, 7))
            tokens = int(rng.integers(1, 12))
            ratio = float(rng.uniform(0.05, 1.0))
            t = TokenTensor.from_array(
                rng.standard_normal((frames, tokens, 2)).astype(np.float32))
            sel = random_drop(t, ratio, seed=0)
            assert sel.total_kept == frames * math.ceil(ratio * tokens)

    def test_indices_sorted_and_copies_exact(self, tensor):
        sel = random_drop(tensor, 0.5, seed=3)
        for t, (idx, block) in enumerate(zip(sel.kept_indices, sel.compressed)):
            assert np.all(np.diff(idx) > 0)
            assert np.array_equal(block, np.asarray(tensor.values)[t, idx, :])

    def test_uniform_coverage_monte_carlo(self):
        # M=8, k=2: every index should be kept with frequency 2/8 = 0.25.
        t = TokenTensor.from_array(np.zeros((1, 8, 1), dtype=np.float32))
        hits = np.zeros(8)
        runs = 10_000
        for seed in range(runs):
            hits[random_drop(t, 0.25, seed=seed).kept_indices[0]] += 1
        freq = hits / runs
        assert np.all(np.abs(freq - 0.25) <= 0.02)

    def test_bad_ratio_rejected(self, tensor):
        with pytest.raises(ConfigError):
            random_drop(tensor, 0.0, seed=0)
        with pytest.raises(ConfigError):
            random_drop(tensor, 1.5, seed=0)


class TestUniformTopk:
    def test_equals_compress_with_uniform_adjustment(self, tensor):
        cfg = RetentionConfig(ratio=0.5)
        sel = uniform_topk(tensor, cfg)
        ref = compress(tensor, RetentionConfig(ratio=0.5, adjustment=Adjustment.UNIFORM))
        assert all(np.array_equal(a, b)
                   for a, b in zip(sel.kept_indices, ref.selection.kept_indices))
        assert all(np.array_equal(a, b)
                   for a, b in zip(sel.compressed, ref.selection.compressed))

    def test_working_shape_budget(self, rng):
        t = TokenTensor.from_array(
            rng.standard_normal((2, 196, 4)).astype(np.float32))
        sel = uniform_topk(t, RetentionConfig(ratio=0.25))
        assert sel.counts.tolist() == [49, 49]

    def test_constant_input_falls_to_tie_break(self):
        t = TokenTensor.from_array(np.ones((2, 6, 2), dtype=np.float32))
        sel = uniform_topk(t, RetentionConfig(ratio=0.5))
        for idx in sel.kept_indices:
            assert idx.tolist() == [0, 1, 2]


class TestPolicy:
    # Uniform budgets are adjustment=uniform, not a policy.
    @pytest.mark.parametrize("name", ["fancy", "uniform"])
    def test_unknown_policy_rejected(self, name):
        with pytest.raises(ConfigError, match=f"unknown policy {name!r}"):
            Policy(name)

    def test_descriptors_name_their_settings(self):
        assert "seed=5" in Policy("random", seed=5).descriptor
        assert "vidcom2" in Policy("vidcom2").descriptor

    def test_run_dispatch_matches_direct_calls(self, tensor):
        cfg = RetentionConfig(ratio=0.5)
        direct = compress(tensor, cfg).selection
        via = Policy("vidcom2", cfg).run(tensor)
        assert all(np.array_equal(a, b)
                   for a, b in zip(direct.kept_indices, via.kept_indices))

        rand_direct = random_drop(tensor, 0.5, seed=11)
        rand_via = Policy("random", cfg, seed=11).run(tensor)
        assert all(np.array_equal(a, b)
                   for a, b in zip(rand_direct.kept_indices, rand_via.kept_indices))

    def test_identical_inputs_identical_outputs(self, tensor):
        for name in POLICY_NAMES:
            p = Policy(name, RetentionConfig(ratio=0.5), seed=4)
            a = p.run(tensor)
            b = p.run(tensor)
            assert all(np.array_equal(x, y) for x, y in zip(a.kept_indices, b.kept_indices))


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("seed", [-1, 2.0, None])
def test_policy_seed_must_be_a_non_negative_int(name, seed):
    with pytest.raises(ConfigError):
        Policy(name, seed=seed)


@pytest.mark.parametrize("seed", [-1, 2.0, None])
def test_random_drop_seed_must_be_a_non_negative_int(tensor, seed):
    with pytest.raises(ConfigError):
        random_drop(tensor, 0.5, seed)


def _same_bytes(a, b):
    return ([x.tobytes() for x in a.kept_indices + a.compressed]
            == [x.tobytes() for x in b.kept_indices + b.compressed])


@st.composite
def cases(draw):
    """A small seeded tensor and any config its shape can address."""
    frames, tokens = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    dim = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensor = TokenTensor.from_array(rng.standard_normal((frames, tokens, dim)).astype(np.float32))
    config = RetentionConfig(
        ratio=draw(st.floats(0.0, 1.0, exclude_min=True)),
        window=draw(st.one_of(st.just("global"), st.integers(1, frames))),
        adjustment=draw(st.sampled_from(Adjustment)),
        frame_aggregation=draw(st.sampled_from(Aggregation)),
        score_mode=draw(st.sampled_from(ScoreMode)),
        alpha=draw(st.floats(0.0, 4.0)),
        beta=draw(st.floats(0.01, 4.0)),
        min_tokens_per_frame=draw(st.integers(1, tokens + 2)),
    )
    return tensor, config


class TestOneBudgetRule:
    """Every policy takes its budgets from its resolved config."""

    @settings(max_examples=200, deadline=None)
    @given(cases(), st.integers(0, 2**32 - 1))
    def test_uniform_budgets_are_one_rule(self, case, seed):
        tensor, cfg = case
        uniform = uniform_topk(tensor, cfg)
        vidcom2 = Policy("vidcom2", replace(cfg, adjustment=Adjustment.UNIFORM)).run(tensor)
        assert _same_bytes(uniform, vidcom2)
        frames, tokens, _ = tensor.values.shape
        counts = allocate_uniform(frames, cfg.ratio, tokens, cfg.min_tokens_per_frame)
        assert uniform.counts.tolist() == counts.per_frame_count.tolist()
        assert (Policy("random", cfg, seed).run(tensor).counts.tolist()
                == counts.per_frame_count.tolist())

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_config_is_resolved_once(self, name):
        policy = Policy(name)
        assert policy.config == Policy(name, policy.config).config
        expected = Adjustment.ADAPTIVE if name == "vidcom2" else Adjustment.UNIFORM
        assert policy.config.adjustment is expected


def _parse(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("name", POLICY_NAMES)
@pytest.mark.parametrize("config", [
    None,
    RetentionConfig(ratio=0.1, temperature=0.5, epsilon=1e-6, window=3,
                    adjustment="uniform", frame_aggregation="max",
                    score_mode="positive_video", alpha=0.0, beta=2.5,
                    min_tokens_per_frame=4),
])
def test_descriptor_names_every_setting(name, config):
    policy = Policy(name, config, seed=9)
    head, _, body = policy.descriptor.partition("(")
    assert head == name and body.endswith(")")
    pairs = dict(pair.split("=", 1) for pair in body[:-1].split(", "))
    assert pairs.pop("seed") == "9"
    assert RetentionConfig(**{k: _parse(v) for k, v in pairs.items()}) == policy.config
