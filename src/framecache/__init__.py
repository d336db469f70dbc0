"""Cached CNN inference over frame sequences.

Consecutive video frames are mostly alike.  This package finds the alike
parts with block matching, follows them through a network's layers, and
makes each convolution copy its previously computed values for those parts
instead of recomputing them.
"""

from .core import EMPTY_RECT, FeatureMap, Frame, Rect, RegionMapping, rect_intersect
from .matching import (PSNR_MAX, SEARCH_STRATEGIES, BlockMatch, MatcherConfig,
                       MatchResult, MatchStats, block_search,
                       estimate_global_motion, match_frames, merge_blocks,
                       partition_grid, psnr, verify_blocks)
from .regions import (LayerGeom, LayerType, concat_mappings, propagate_mappings,
                      transform_mapping, transform_region)
from .engine import (CacheStore, ConvLayerMacs, FrameMetrics, LayerSpec,
                     ModelGraph, Session, concat_forward,
                     conv_forward, conv_forward_cached, elementwise_forward,
                     fc_forward, lrn_forward, pool_forward, preprocess,
                     relu_forward, softmax_forward)
from .model_io import (ModelParseError, expected_weight_bytes, load_frame_pnm,
                       load_weights, parse_model, random_weights,
                       serialize_model, serialize_weights, write_frame_pnm)
from .synth import synth_sequence

__version__ = "0.1.0"

__all__ = [
    "Rect", "EMPTY_RECT", "RegionMapping", "Frame", "FeatureMap",
    "rect_intersect",
    "MatcherConfig", "BlockMatch", "MatchResult", "MatchStats",
    "PSNR_MAX", "SEARCH_STRATEGIES", "partition_grid", "psnr",
    "block_search", "estimate_global_motion", "verify_blocks", "merge_blocks",
    "match_frames",
    "LayerType", "LayerGeom", "transform_region", "transform_mapping",
    "concat_mappings", "propagate_mappings",
    "LayerSpec", "ModelGraph", "CacheStore", "FrameMetrics", "ConvLayerMacs",
    "Session", "preprocess",
    "conv_forward", "conv_forward_cached", "pool_forward", "relu_forward",
    "lrn_forward", "fc_forward", "softmax_forward", "concat_forward",
    "elementwise_forward",
    "ModelParseError", "parse_model", "serialize_model", "load_weights",
    "serialize_weights", "random_weights", "expected_weight_bytes",
    "load_frame_pnm", "write_frame_pnm",
    "synth_sequence",
    "__version__",
]
