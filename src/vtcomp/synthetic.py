"""Deterministic synthetic tensor generation for tests and demos.

Three redundancy models cover the interesting regimes: fully independent
tokens, frames clustered around shared scene centers, and a single frame
whose content is orthogonal to everything else (the case where adaptive
budgets should visibly diverge from uniform ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import TokenTensor, int_at_least

MODELS = ("iid", "clustered", "outlier")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, redundancy model, and seed for one synthetic tensor.

    ``clustered`` assigns frames to ``num_clusters`` contiguous scene blocks
    and draws each token as its scene center plus Gaussian noise;
    ``outlier`` gives every frame a shared center except frame
    ``outlier_index``, whose tokens are random vectors orthogonalized
    against that center.  ``iid`` ignores the extra knobs.
    """

    frames: int
    tokens_per_frame: int
    dim: int
    model: str = "iid"
    num_clusters: int = 1
    noise_sigma: float = 0.0
    outlier_index: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if min(self.frames, self.tokens_per_frame, self.dim) < 1:
            raise ConfigError("frames, tokens_per_frame, and dim must all be >= 1")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "seed", int_at_least("seed", self.seed, 0))
        if self.model == "clustered" and not (1 <= self.num_clusters <= self.frames):
            raise ConfigError(
                f"num_clusters must be in 1..{self.frames}, got {self.num_clusters}"
            )
        if self.model == "outlier" and not (0 <= self.outlier_index < self.frames):
            raise ConfigError(
                f"outlier_index must be in 0..{self.frames - 1}, got {self.outlier_index}"
            )


def generate(spec: SyntheticSpec) -> TokenTensor:
    """Draw the tensor for a spec; the same spec always yields the same bits.

    All draws come from one PCG64 stream seeded with ``spec.seed`` and are
    consumed in a fixed order (centers first, then frames ascending).
    """
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
