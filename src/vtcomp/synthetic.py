"""Deterministic synthetic tensor generation for tests and demos.

Three redundancy models cover the interesting regimes: fully independent
tokens, frames clustered around shared scene centers, and a single frame
whose content is orthogonal to everything else (the case where adaptive
budgets should visibly diverge from uniform ones).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .formats import MAX_AXIS
from .model import TokenTensor, _freeze, finite_float, int_at_least, validate

MODELS = ("iid", "clustered", "outlier")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape, redundancy model, and seed for one synthetic tensor.

    ``clustered`` assigns frames to ``num_clusters`` contiguous scene blocks
    and draws each token as its scene center plus Gaussian noise;
    ``outlier`` gives every frame a shared center except frame
    ``outlier_index``, whose tokens are random vectors orthogonalized
    against that center.  ``iid`` ignores the extra knobs.  Integer fields
    are stored as plain ints and ``noise_sigma`` as a plain float: a bool, a
    non-number, NaN, +-inf or an int too large for a float is a
    ``ConfigError`` that names the field, raised before any draw.
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
        # The knobs are checked on every model, their ranges only where they apply.
        for name, low in (("frames", 1), ("tokens_per_frame", 1), ("dim", 1), ("seed", 0),
                          ("num_clusters", None), ("outlier_index", None)):
            object.__setattr__(self, name, int_at_least(name, getattr(self, name), low))
        if max(self.frames, self.tokens_per_frame, self.dim) > MAX_AXIS:
            raise ConfigError(
                f"frames, tokens_per_frame, and dim must all be <= {MAX_AXIS}, the .vtok limit")
        if self.frames * self.tokens_per_frame * self.dim * 4 > sys.maxsize:
            raise ConfigError(f"frames x tokens_per_frame x dim float32 exceeds {sys.maxsize} B")
        object.__setattr__(self, "noise_sigma", finite_float("noise_sigma", self.noise_sigma))
        if self.noise_sigma < 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.model == "clustered" and not 1 <= self.num_clusters <= self.frames:
            raise ConfigError(f"num_clusters must be in 1..{self.frames}, got {self.num_clusters}")
        if self.model == "outlier" and not 0 <= self.outlier_index < self.frames:
            raise ConfigError(f"outlier_index must be in 0..{self.frames - 1}, "
                              f"got {self.outlier_index}")


def generate(spec: SyntheticSpec) -> TokenTensor:
    """Draw the tensor for a spec; the same spec always yields the same bits.

    All draws come from one PCG64 stream seeded with ``spec.seed`` and are
    consumed in a fixed order (centers first, then frames ascending).  Each
    frame is drawn into one float64 buffer reused for every frame, scaled
    and shifted by its center (or its orthogonal draw) in place, and rounded
    straight into the one float32 block the tensor owns.  IEEE addition and
    multiplication commute, so the bits equal those of the float64
    ``center + noise_sigma * noise`` written out.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    T, M, D = spec.frames, spec.tokens_per_frame, spec.dim

    if spec.model == "clustered":
        centers = rng.standard_normal((spec.num_clusters, D))
    elif spec.model == "outlier":
        centers = rng.standard_normal((1, D))
        unit = centers[0] / np.linalg.norm(centers[0])
    data = np.empty((T, M, D), dtype=np.float32)
    noise = np.empty((M, D))
    with np.errstate(over="ignore"):  # an overflow is inf, which validate reports
        for t in range(T):
            rng.standard_normal(out=noise)
            if spec.model != "iid":
                noise *= spec.noise_sigma
                if spec.model == "outlier" and t == spec.outlier_index:
                    raw = rng.standard_normal((M, D))
                    raw -= np.outer(raw @ unit, unit)
                    noise += raw
                else:
                    noise += centers[t * len(centers) // T]
            data[t] = noise
    tensor = TokenTensor(_freeze(data))
    validate(tensor)
    return tensor
