"""Reference selection policies sharing one interface for head-to-head runs.

Each policy resolves to one ``RetentionConfig`` when built (``uniform`` and
``random`` take uniform budgets), then ranks tokens, ``random`` by a seeded
permutation and the others with :func:`compress`, and cuts with ``keep_top``.
Policies are attention-free: they read only the token tensor, never model
internals.  Each is pure given (input, seed) and emits the same
ascending-index, exact-copy selections as the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .budget import allocate_uniform
from .compress import compress, keep_top
from .errors import ConfigError
from .model import Adjustment, CompressedSelection, RetentionConfig, TokenTensor, int_in

POLICY_NAMES = ("vidcom2", "random", "uniform")


@dataclass(frozen=True)
class Policy:
    """A named selection policy: the adaptive pipeline, a fixed-ratio
    variant, or seeded random dropping.

    ``config`` is resolved once and is never None: ``RetentionConfig()``
    by default, with uniform budgets for ``uniform`` and ``random``.  The
    seed, an int >= 0, only matters for the random policy; identical
    (name, config, seed, input) always produces identical output.
    """

    name: str
    config: RetentionConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}, expected one of {POLICY_NAMES}")
        object.__setattr__(self, "seed", int_in("seed", self.seed, 0))
        config = self.config or RetentionConfig()
        if self.name in ("uniform", "random"):
            config = replace(config, adjustment=Adjustment.UNIFORM)
        object.__setattr__(self, "config", config)

    @property
    def descriptor(self) -> str:
        pairs = ((f.name, getattr(self.config, f.name)) for f in fields(RetentionConfig))
        settings = "".join(f"{k}={v.value if isinstance(v, Enum) else v}, " for k, v in pairs)
        return f"{self.name}({settings}seed={self.seed})"

    def run(self, tensor: TokenTensor) -> CompressedSelection:
        """The policy's selection."""
        if self.name != "random":
            return compress(tensor, self.config).selection
        frames, tokens, _ = tensor.values.shape
        counts = allocate_uniform(frames, self.config.ratio, tokens,
                                  self.config.min_tokens_per_frame).per_frame_count
        rng = np.random.Generator(np.random.PCG64(self.seed))
        # A token's rank is its place in its frame's permutation.
        ranks = np.argsort([rng.permutation(tokens) for _ in range(frames)], axis=1)
        return CompressedSelection.from_mask(tensor.values, keep_top(ranks, counts))


def random_drop(tensor: TokenTensor, ratio: float, seed: int) -> CompressedSelection:
    """Keep allocate_uniform's ceil(ratio * M) random tokens per frame.

    Uses a single PCG64 stream seeded once; frames consume it in ascending
    order, each drawing a Fisher-Yates permutation of its token indices and
    keeping the first k, reported ascending.  The same (input shape, ratio,
    seed) therefore always selects the same indices.
    """
    return Policy("random", RetentionConfig(ratio=ratio), seed).run(tensor)


def uniform_topk(tensor: TokenTensor, config: RetentionConfig | None = None
                 ) -> CompressedSelection:
    """Top-k selection under a fixed per-frame ratio: the "uniform" policy."""
    return Policy("uniform", config).run(tensor)
