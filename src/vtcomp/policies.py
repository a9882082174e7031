"""Reference selection policies sharing one interface for head-to-head runs.

All policies are attention-free: they consume only the token tensor itself,
never model internals, so they slot in front of any consumer.  Each policy
is pure given (input, seed) and emits the same ascending-index,
exact-copy selections as the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .budget import allocate_uniform
from .compress import compress
from .errors import ConfigError
from .model import Adjustment, CompressedSelection, RetentionConfig, TokenTensor, int_at_least

POLICY_NAMES = ("vidcom2", "random", "uniform")


@dataclass(frozen=True)
class Policy:
    """A named selection policy: the adaptive pipeline, a fixed-ratio
    variant, or seeded random dropping.

    The seed, an int >= 0, only matters for the random policy; identical
    (name, config, seed, input) always produces identical output.
    """

    name: str
    config: RetentionConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}, expected one of {POLICY_NAMES}")
        object.__setattr__(self, "seed", int_at_least("seed", self.seed, 0))

    @property
    def descriptor(self) -> str:
        cfg = self.config or RetentionConfig()
        if self.name == "random":
            return f"random(ratio={cfg.ratio}, seed={self.seed})"
        if self.name == "uniform":
            return f"uniform(ratio={cfg.ratio})"
        return (
            f"vidcom2(ratio={cfg.ratio}, window={cfg.window}, "
            f"mode={cfg.score_mode.value}, agg={cfg.frame_aggregation.value})"
        )

    def run(self, tensor: TokenTensor, threads: int = 1) -> CompressedSelection:
        cfg = self.config or RetentionConfig()
        if self.name == "random":
            return random_drop(tensor, cfg.ratio, self.seed)
        if self.name == "uniform":
            cfg = replace(cfg, adjustment=Adjustment.UNIFORM)
        return compress(tensor, cfg, threads=threads).selection


def random_drop(tensor: TokenTensor, ratio: float, seed: int) -> CompressedSelection:
    """Keep allocate_uniform's ceil(ratio * M) random tokens per frame.

    Uses a single PCG64 stream seeded once; frames consume it in ascending
    order, each drawing a Fisher-Yates permutation of its token indices and
    keeping the first k, reported ascending.  The same (input shape, ratio,
    seed) therefore always selects the same indices.
    """
    if not (0.0 < ratio <= 1.0):
        raise ConfigError(f"ratio must be in (0, 1], got {ratio}")
    frames, tokens, _ = tensor.values.shape
    counts = allocate_uniform(frames, ratio, tokens).per_frame_count
    rng = np.random.Generator(np.random.PCG64(int_at_least("seed", seed, 0)))
    keep = np.zeros((frames, tokens), dtype=bool)
    for row, count in zip(keep, counts):
        row[rng.permutation(tokens)[:count]] = True
    return CompressedSelection.from_mask(tensor.values, keep)


def uniform_topk(tensor: TokenTensor, config: RetentionConfig | None = None,
                 threads: int = 1) -> CompressedSelection:
    """Top-k selection under a fixed per-frame ratio: the "uniform" policy."""
    return Policy("uniform", config).run(tensor, threads)
