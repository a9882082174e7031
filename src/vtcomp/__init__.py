"""Uniqueness-driven token compression for video token tensors.

Two stages: frames that carry distinctive content receive larger token
budgets (softmax-weighted around a preset retention ratio), then each frame
keeps its top-k tokens ranked by combined within-frame and across-video
uniqueness.  Works on any (frames, tokens, channels) float32 block; never
consumes attention weights, so it composes with any downstream consumer.
"""

from .budget import (
    allocate,
    allocate_uniform,
    frame_uniqueness,
    global_pool,
    softmax_weights,
    video_uniqueness,
    window_edges,
)
from .compress import (
    CompressResult,
    combine_scores,
    compress,
    frame_pool,
    frame_token_uniqueness,
    topk_select,
)
from .errors import (
    BadMagicError,
    BadVersionError,
    ConfigError,
    DimensionMismatchError,
    KExceedsMError,
    LengthMismatchError,
    NonFiniteError,
    OversizedPayloadError,
    ShapeMismatchError,
    TruncatedPayloadError,
    VtcompError,
    VtokFormatError,
    WindowOutOfRangeError,
)
from .model import (
    Adjustment,
    Aggregation,
    BudgetAllocation,
    CompressedSelection,
    RetentionConfig,
    ScoreMode,
    ScoreReport,
    TokenTensor,
    cosine,
    validate,
)
from .formats import (
    export_indices,
    export_scores,
    export_token_scores,
    read_vtok,
    write_vtok,
)
from .policies import Policy, random_drop, uniform_topk
from .synthetic import SyntheticSpec, generate

__version__ = "0.1.0"

__all__ = [
    "Adjustment",
    "Aggregation",
    "BudgetAllocation",
    "CompressResult",
    "CompressedSelection",
    "Policy",
    "RetentionConfig",
    "ScoreMode",
    "ScoreReport",
    "SyntheticSpec",
    "TokenTensor",
    "allocate",
    "allocate_uniform",
    "combine_scores",
    "compress",
    "cosine",
    "export_indices",
    "export_scores",
    "export_token_scores",
    "frame_pool",
    "frame_token_uniqueness",
    "frame_uniqueness",
    "generate",
    "global_pool",
    "random_drop",
    "read_vtok",
    "softmax_weights",
    "topk_select",
    "uniform_topk",
    "validate",
    "video_uniqueness",
    "window_edges",
    "write_vtok",
    "VtcompError",
    "ConfigError",
    "DimensionMismatchError",
    "NonFiniteError",
    "LengthMismatchError",
    "ShapeMismatchError",
    "WindowOutOfRangeError",
    "KExceedsMError",
    "VtokFormatError",
    "BadMagicError",
    "BadVersionError",
    "TruncatedPayloadError",
    "OversizedPayloadError",
]
