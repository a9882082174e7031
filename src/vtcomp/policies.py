"""Reference selection policies sharing one interface for head-to-head runs.

Each policy resolves to one ``RetentionConfig`` when built, then ranks
tokens, ``vidcom2`` with :func:`compress` and ``random`` by a seeded
permutation under uniform budgets, and cuts with ``keep_top``.  Policies
are attention-free: they read only the token tensor, never model
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
from .model import (Adjustment, CompressedSelection, RetentionConfig, TokenTensor,
                    config_in, finite_frame_sums, int_in, token_values)

POLICY_NAMES = ("vidcom2", "random")


@dataclass(frozen=True)
class Policy:
    """A named selection policy: the uniqueness pipeline under the budgets
    its config asks for, or seeded random dropping under uniform budgets.

    ``config`` is read once by :func:`~vtcomp.model.config_in` and is never
    None: ``RetentionConfig()`` by default, with uniform budgets for
    ``random``.  The seed, an int >= 0, only matters for the random policy;
    identical (name, config, seed, input) always produces identical output.
    """

    name: str
    config: RetentionConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}, expected one of {POLICY_NAMES}")
        object.__setattr__(self, "seed", int_in("seed", self.seed, 0))
        config = config_in(self.config)
        if self.name == "random":
            config = replace(config, adjustment=Adjustment.UNIFORM)
        object.__setattr__(self, "config", config)

    @property
    def descriptor(self) -> str:
        pairs = ((f.name, getattr(self.config, f.name)) for f in fields(RetentionConfig))
        settings = "".join(f"{k}={v.value if isinstance(v, Enum) else v}, " for k, v in pairs)
        return f"{self.name}({settings}seed={self.seed})"

    def run(self, tensor: TokenTensor) -> CompressedSelection:
        """The policy's selection.  The random policy reads the tensor by
        the tensor rule as :func:`compress` does; no frames select none."""
        if self.name != "random":
            return compress(tensor, self.config).selection
        values = token_values(tensor)
        finite_frame_sums(values)
        frames, tokens, _ = values.shape
        counts = allocate_uniform(frames, self.config.ratio, tokens,
                                  self.config.min_tokens_per_frame).per_frame_count
        rng = np.random.Generator(np.random.PCG64(self.seed))
        # A token's rank is its place in its frame's permutation.
        perms = [rng.permutation(tokens) for _ in range(frames)]
        ranks = np.argsort(np.reshape(perms, (frames, tokens)), axis=1)
        return CompressedSelection.from_mask(values, keep_top(ranks, counts))


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
    """Top-k selection under a fixed per-frame ratio: ``adjustment=uniform``."""
    return compress(tensor, replace(config_in(config), adjustment=Adjustment.UNIFORM)).selection
