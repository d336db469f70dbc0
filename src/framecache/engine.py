"""Graph execution with cached convolutions.

A Session runs a ModelGraph over a frame sequence.  The first frame, and
every expire_n-th frame after it, is a flush: a full forward pass whose
convolution outputs repopulate the cache.  Every other frame is matched
against the previous frame at the raw 8-bit level; the resulting reusable
regions are propagated through the graph, and each convolution copies
cached values for its reusable output pixels while computing the rest.

Only convolution outputs are cached; every other layer type always computes
fully, though regions still propagate through it geometrically.  Copied
values come from the previous frame's stored output, which may itself
contain copies; expiration is the only bound on that compounding.

Numeric contract: all kernels accumulate in float64 with a fixed term
order and store float32, so repeated runs (and the copy/compute split in
cached convolution) are bit-reproducible.  Sums whose order is not fixed
by a loop nest (fc dot products, softmax normalizers) are correctly
rounded to float64, which is order-independent.  The fc layer gets there
without summing exactly on its common path: a float64 matrix-vector
product in any order comes with a rigorous error bound, and where every
value inside that bound rounds to the same float32 the stored result is
known; the rare rows where it does not (exact zeros, heavy cancellation,
non-finite terms) are summed exactly with math.fsum.  Transcendentals in
hot paths use numpy's vectorized forms; softmax uses scalar math.exp so
its tiny head stays identical to a scalar reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import EMPTY_RECT, FeatureMap, Frame, Rect, RegionMapping
from .matching import MatcherConfig, MatchResult, match_frames
from .regions import LayerGeom, LayerType, concat_mappings, propagate_mappings

LAYER_OPS = ("conv", "pool", "relu", "lrn", "fc", "softmax", "concat", "scale", "bias")


@dataclass
class LayerSpec:
    """One layer: operation, geometry, graph wiring, and parameters.

    weights/biases stay None until a weight blob is loaded (conv and fc
    only).  norm_bias/alpha/beta belong to lrn, factor to scale, value to
    bias, pool_mode to pool.
    """

    name: str
    op: str
    geom: LayerGeom
    in_blobs: list[str]
    out_blob: str
    out_channels: int = 0
    out_features: int = 0
    pool_mode: str = "max"
    alpha: float = 1e-4
    beta: float = 0.75
    norm_bias: float = 1.0
    factor: float = 1.0
    value: float = 0.0
    weights: np.ndarray | None = None
    biases: np.ndarray | None = None

    def __post_init__(self):
        if self.op not in LAYER_OPS:
            raise ValueError(f"unknown layer op {self.op!r}")
        if self.op == "concat":
            if len(self.in_blobs) < 1:
                raise ValueError("concat needs inputs")
        elif len(self.in_blobs) != 1:
            raise ValueError(f"layer {self.name!r}: only concat takes multiple inputs")


@dataclass
class ModelGraph:
    """Topologically ordered layers plus a blob dimension table.

    input_dims are the (channels, height, width) of the input blob, which
    is always named "data".  blob_dims covers every blob including "data";
    the graph's final output is the last layer's out_blob.
    """

    INPUT_BLOB: ClassVar[str] = "data"

    input_dims: tuple[int, int, int]
    layers: list[LayerSpec]
    blob_dims: dict[str, tuple[int, int, int]]

    @property
    def output_blob(self) -> str:
        return self.layers[-1].out_blob

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def conv_total_macs(self) -> dict[str, int]:
        """Full-compute multiply-accumulate count per conv layer."""
        totals = {}
        for spec in self.layers:
            if spec.op != "conv":
                continue
            in_c = self.blob_dims[spec.in_blobs[0]][0]
            _, out_h, out_w = self.blob_dims[spec.out_blob]
            k = spec.geom.kernel
            totals[spec.name] = out_h * out_w * spec.out_channels * in_c * k * k
        return totals


@dataclass
class CacheStore:
    """Retained state between frames: previous input frame (the match
    reference), per-conv-layer output maps, and the expiration counter."""

    expire_n: int = 10
    prev_frame: Frame | None = None
    conv_outputs: dict[str, FeatureMap] = field(default_factory=dict)
    frames_since_flush: int = 0

    def __post_init__(self):
        if self.expire_n < 1:
            raise ValueError("expire_n must be >= 1")

    def clear(self):
        self.prev_frame = None
        self.conv_outputs.clear()
        self.frames_since_flush = 0

    def commit(self, frame: Frame, conv_outputs: dict[str, FeatureMap], flushed: bool):
        """Install a finished frame's state in one step, so a frame that
        fails midway leaves the previous frame's state whole."""
        self.prev_frame = frame
        self.conv_outputs = conv_outputs
        self.frames_since_flush = 1 if flushed else self.frames_since_flush + 1


@dataclass(frozen=True)
class ConvLayerMacs:
    """Per-conv-layer work record for one frame."""

    name: str
    computed_macs: int
    copied_pixels: int
    total_macs: int
    in_channels: int
    kernel: int


@dataclass
class FrameMetrics:
    match_ratio: float
    computed_macs: int
    total_macs: int
    copied_pixels: int
    wall_time: float  # milliseconds
    flushed: bool
    per_layer: list[ConvLayerMacs] = field(default_factory=list)


def preprocess(frame: Frame, mean=0.0, scale: float = 1.0) -> FeatureMap:
    """(sample - mean[channel]) * scale, to float32.

    mean is a scalar or a per-channel sequence; frames are not resized.
    """
    mean_arr = np.asarray(mean, dtype=np.float64).reshape(-1)
    if mean_arr.size == 1:
        mean_arr = np.repeat(mean_arr, frame.channels)
    if mean_arr.size != frame.channels:
        raise ValueError(f"mean has {mean_arr.size} entries for {frame.channels} channels")
    out = (frame.data.astype(np.float64) - mean_arr[:, None, None]) * float(scale)
    return FeatureMap(out.astype(np.float32))


def _require_weights(spec: LayerSpec):
    if spec.weights is None or spec.biases is None:
        raise ValueError(f"layer {spec.name!r} has no weights loaded")


def _pad_input(x64: np.ndarray, p: int, fill: float = 0.0) -> np.ndarray:
    if p == 0:
        return x64
    c, h, w = x64.shape
    padded = np.full((c, h + 2 * p, w + 2 * p), fill, dtype=np.float64)
    padded[:, p:p + h, p:p + w] = x64
    return padded


def _conv_dims(h: int, w: int, k: int, s: int, p: int) -> tuple[int, int]:
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    if h + 2 * p < k or w + 2 * p < k:
        raise ValueError(f"window k={k} exceeds padded input {h + 2 * p}x{w + 2 * p}")
    return out_h, out_w


def conv_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Spatial convolution, zero padding, square kernel, per-channel bias.

    Accumulates in float64, per output pixel strictly as bias first, then
    terms in (input channel, kernel row, kernel col) ascending order; the
    spatial axes are vectorized, which does not reorder any pixel's sum.
    """
    _require_weights(spec)
    k, s, p = spec.geom.kernel, spec.geom.stride, spec.geom.pad
    w64 = spec.weights.astype(np.float64)
    b64 = spec.biases.astype(np.float64)
    out_ch, in_ch = w64.shape[0], w64.shape[1]
    if input.channels != in_ch:
        raise ValueError(f"layer {spec.name!r}: input has {input.channels} channels, "
                         f"weights expect {in_ch}")
    out_h, out_w = _conv_dims(input.height, input.width, k, s, p)
    padded = _pad_input(input.data.astype(np.float64), p)

    acc = np.empty((out_ch, out_h, out_w), dtype=np.float64)
    acc[:] = b64[:, None, None]
    for ic in range(in_ch):
        plane = padded[ic]
        for ky in range(k):
            for kx in range(k):
                patch = plane[ky:ky + s * out_h:s, kx:kx + s * out_w:s]
                acc += w64[:, ic, ky, kx][:, None, None] * patch[None, :, :]
    return FeatureMap(acc.astype(np.float32))


def build_reuse_bitmap(mappings: list[RegionMapping], out_w: int, out_h: int) -> np.ndarray:
    """2-D boolean grid, true exactly on the union of mapping dst rects.

    One bitmap serves all channels: reuse regions are purely spatial.
    Bounds and disjointness are preconditions; both are checked because a
    violation here means region propagation is broken upstream.
    """
    grid = np.zeros((out_h, out_w), dtype=bool)
    area = 0
    bounds = Rect(0, 0, out_w, out_h)
    for m in mappings:
        if not bounds.contains(m.dst):
            raise RuntimeError(f"mapping dst {m.dst} outside {out_w}x{out_h} plane")
        grid[m.dst.y:m.dst.y2, m.dst.x:m.dst.x2] = True
        area += m.dst.area
    if int(grid.sum()) != area:
        raise RuntimeError("mapping dst rects overlap")
    return grid


def conv_forward_cached(input: FeatureMap, spec: LayerSpec, cached_out: FeatureMap,
                        mappings: list[RegionMapping]) -> tuple[FeatureMap, int, int]:
    """Convolution that copies reusable output pixels instead of computing.

    Three steps: copy cached_out[src] into output[dst] for every mapping
    (all channels); build the reuse bitmap; run the convolution only for
    unmarked pixels.  Computed pixels get bit-identical values to a full
    conv_forward because each pixel's accumulation order is unchanged.

    Returns (output, computed_macs, copied_pixels); copied_pixels counts
    output elements across channels.
    """
    _require_weights(spec)
    k, s, p = spec.geom.kernel, spec.geom.stride, spec.geom.pad
    w64 = spec.weights.astype(np.float64)
    b64 = spec.biases.astype(np.float64)
    out_ch, in_ch = w64.shape[0], w64.shape[1]
    if input.channels != in_ch:
        raise ValueError(f"layer {spec.name!r}: input has {input.channels} channels, "
                         f"weights expect {in_ch}")
    out_h, out_w = _conv_dims(input.height, input.width, k, s, p)
    if cached_out.data.shape != (out_ch, out_h, out_w):
        raise ValueError(f"layer {spec.name!r}: cached output dims {cached_out.data.shape} "
                         f"do not match {(out_ch, out_h, out_w)}")

    if not mappings:
        out = conv_forward(input, spec)
        return out, out_h * out_w * out_ch * in_ch * k * k, 0

    out = np.empty((out_ch, out_h, out_w), dtype=np.float32)
    for m in mappings:
        src = m.src
        if src.x < 0 or src.y < 0 or src.x2 > out_w or src.y2 > out_h:
            raise RuntimeError(f"mapping src {src} outside {out_w}x{out_h} plane")
        out[:, m.dst.y:m.dst.y2, m.dst.x:m.dst.x2] = \
            cached_out.data[:, src.y:src.y2, src.x:src.x2]

    bitmap = build_reuse_bitmap(mappings, out_w, out_h)
    idx_y, idx_x = np.nonzero(~bitmap)
    n_pix = idx_y.size
    if n_pix:
        padded = _pad_input(input.data.astype(np.float64), p)
        acc = np.empty((out_ch, n_pix), dtype=np.float64)
        acc[:] = b64[:, None]
        base_y = idx_y * s
        base_x = idx_x * s
        for ic in range(in_ch):
            plane = padded[ic]
            for ky in range(k):
                yy = base_y + ky
                for kx in range(k):
                    vals = plane[yy, base_x + kx]
                    acc += w64[:, ic, ky, kx][:, None] * vals[None, :]
        out[:, idx_y, idx_x] = acc.astype(np.float32)

    copied = int(bitmap.sum()) * out_ch
    computed = n_pix * out_ch * in_ch * k * k
    return FeatureMap(out), computed, copied


def pool_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Max (default) or average pooling over a square window.

    Max ignores padding (pad value is -inf); averaging zero-pads and always
    divides by k*k, window terms accumulated in (row, col) order.
    """
    k, s, p = spec.geom.kernel, spec.geom.stride, spec.geom.pad
    out_h, out_w = _conv_dims(input.height, input.width, k, s, p)
    if spec.pool_mode == "max":
        padded = _pad_input(input.data.astype(np.float64), p, fill=-np.inf)
        acc = None
        for ky in range(k):
            for kx in range(k):
                patch = padded[:, ky:ky + s * out_h:s, kx:kx + s * out_w:s]
                acc = patch.copy() if acc is None else np.maximum(acc, patch)
        return FeatureMap(acc.astype(np.float32))
    if spec.pool_mode == "avg":
        padded = _pad_input(input.data.astype(np.float64), p)
        acc = np.zeros((input.channels, out_h, out_w), dtype=np.float64)
        for ky in range(k):
            for kx in range(k):
                acc += padded[:, ky:ky + s * out_h:s, kx:kx + s * out_w:s]
        return FeatureMap((acc / (k * k)).astype(np.float32))
    raise ValueError(f"unknown pool mode {spec.pool_mode!r}")


def relu_forward(input: FeatureMap) -> FeatureMap:
    return FeatureMap(np.maximum(input.data, np.float32(0)))


def lrn_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Cross-channel normalization over a 2r+1 channel window:
    out = in / (norm_bias + alpha/(2r+1) * sum of squared neighbors)^beta.
    Channels outside the stack contribute zero."""
    r = spec.geom.radius
    size = 2 * r + 1
    x64 = input.data.astype(np.float64)
    c = input.channels
    sq = np.zeros((c + 2 * r, input.height, input.width), dtype=np.float64)
    sq[r:r + c] = x64 * x64
    acc = np.zeros_like(x64)
    for o in range(size):
        acc += sq[o:o + c]
    denom = np.power(spec.norm_bias + (spec.alpha / size) * acc, spec.beta)
    return FeatureMap((x64 / denom).astype(np.float32))


# Unit roundoff of float64, and its smallest normal magnitude.
_U64 = 2.0 ** -53
_TINY64 = float(np.finfo(np.float64).tiny)


def fc_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Dense layer over the flattened (channel-major) input.

    Each output is the correctly rounded float64 sum of the bias plus all
    weight*input products, stored as float32.  The products are exact in
    float64 (two float32 mantissas fit, and their exponents neither
    overflow nor underflow), so the result depends on no summation order.
    (Wider weights give rounded products; the bound below has the margin
    to cover that rounding too, so the result is still that of fsum.)

    Every row is first summed by a float64 matrix-vector product, s, in
    whatever order the BLAS picks.  Summing n exact terms in any order is
    off by at most (n-1)*u/(1-(n-1)*u) times the sum of their magnitudes
    (u = 2**-53), and the magnitudes' own computed sum a is off by the same
    relative amount, so err = 2*n*u*a + tiny bounds |s - exact| with
    margin while n*u is small.  [s - err, s + err], widened outward by one
    ulp to absorb the rounding of the subtraction and addition, holds the
    exact sum.  Rounding to float64 and then to float32 is monotone, so
    when both ends of that interval store as the same float32 bit
    pattern, so does the exact sum.  The other rows (exact zeros, whose
    ends store as -0.0 and +0.0; sums that cancel to near a float32
    rounding boundary; non-finite terms) are summed exactly by math.fsum,
    bias first, which also keeps its +0.0 for an exact zero and its
    ValueError for inf - inf.
    """
    _require_weights(spec)
    x64 = input.data.astype(np.float64).ravel()
    w64 = spec.weights.astype(np.float64)
    b64 = spec.biases.astype(np.float64)
    if w64.shape[1] != x64.size:
        raise ValueError(f"layer {spec.name!r}: fc expects {w64.shape[1]} inputs, "
                         f"got {x64.size}")
    n = x64.size + 1
    with np.errstate(over="ignore", invalid="ignore"):
        s = w64 @ x64 + b64
        # w64 is this call's own copy; taking |w| in place saves an allocation.
        a = np.abs(w64, out=w64) @ np.abs(x64) + np.abs(b64)
        err = (2.0 * n * _U64) * a + _TINY64
        out = np.nextafter(s - err, -np.inf).astype(np.float32)
        hi = np.nextafter(s + err, np.inf).astype(np.float32)
        rows = np.flatnonzero(~np.isfinite(err) | (out.view(np.uint32) != hi.view(np.uint32)))
        if rows.size:
            exact = [math.fsum([float(b64[r])]
                               + (spec.weights[r].astype(np.float64) * x64).tolist())
                     for r in rows]
            out[rows] = np.array(exact).astype(np.float32)
    return FeatureMap(out.reshape(-1, 1, 1))


def softmax_forward(input: FeatureMap) -> FeatureMap:
    """Exp-normalize over the channel axis, max-subtracted for stability."""
    x64 = input.data.astype(np.float64)
    c, h, w = x64.shape
    out = np.empty_like(x64)
    for j in range(h):
        for i in range(w):
            col = x64[:, j, i]
            m = col.max()
            e = [math.exp(v - m) for v in col.tolist()]
            denom = math.fsum(e)
            out[:, j, i] = [v / denom for v in e]
    return FeatureMap(out.astype(np.float32))


def concat_forward(inputs: list[FeatureMap]) -> FeatureMap:
    if not inputs:
        raise ValueError("concat needs at least one input")
    hw = {(fm.height, fm.width) for fm in inputs}
    if len(hw) != 1:
        raise ValueError(f"concat inputs disagree on spatial dims: {sorted(hw)}")
    return FeatureMap(np.concatenate([fm.data for fm in inputs], axis=0))


def elementwise_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """scale: x * factor; bias: x + value.  Math in float64, stored float32."""
    x64 = input.data.astype(np.float64)
    if spec.op == "scale":
        return FeatureMap((x64 * spec.factor).astype(np.float32))
    if spec.op == "bias":
        return FeatureMap((x64 + spec.value).astype(np.float32))
    raise ValueError(f"not an elementwise op: {spec.op!r}")


def _layer_forward(spec: LayerSpec, inputs: list[FeatureMap]) -> FeatureMap:
    if spec.op == "conv":
        return conv_forward(inputs[0], spec)
    if spec.op == "pool":
        return pool_forward(inputs[0], spec)
    if spec.op == "relu":
        return relu_forward(inputs[0])
    if spec.op == "lrn":
        return lrn_forward(inputs[0], spec)
    if spec.op == "fc":
        return fc_forward(inputs[0], spec)
    if spec.op == "softmax":
        return softmax_forward(inputs[0])
    if spec.op == "concat":
        return concat_forward(inputs)
    return elementwise_forward(inputs[0], spec)


class Session:
    """Stateful inference over one frame sequence.

    Single-threaded; owns its CacheStore exclusively.  With cache_enabled
    False every frame runs the plain full forward (each frame is a flush
    and nothing is retained).  With it True the model input must hold at
    least one matcher block, or no frame could ever be matched.
    """

    def __init__(self, graph: ModelGraph, matcher_cfg: MatcherConfig | None = None,
                 expire_n: int = 10, cache_enabled: bool = True,
                 mean=0.0, scale: float = 1.0):
        self.graph = graph
        self.matcher_cfg = matcher_cfg or MatcherConfig()
        _, in_h, in_w = graph.input_dims
        block = self.matcher_cfg.block_size
        if cache_enabled and min(in_h, in_w) < block:
            raise ValueError(f"model input {in_w}x{in_h} is smaller than the matcher's "
                             f"{block}x{block} block; use a smaller block_size or "
                             f"cache_enabled=False")
        self.cache = CacheStore(expire_n=expire_n)
        self.cache_enabled = cache_enabled
        self.mean = mean
        self.scale = scale
        self.last_match: MatchResult | None = None
        self._totals = graph.conv_total_macs()

    def run_frame(self, frame: Frame) -> tuple[FeatureMap, FrameMetrics]:
        t0 = time.perf_counter()
        if frame.data.shape != self.graph.input_dims:
            raise ValueError(f"frame dims {frame.data.shape} do not match model "
                             f"input {self.graph.input_dims}")
        flush = (not self.cache_enabled
                 or self.cache.prev_frame is None
                 or self.cache.frames_since_flush >= self.cache.expire_n)
        if flush:
            out, metrics = self._run_flush(frame)
        else:
            out, metrics = self._run_cached(frame)
        metrics.wall_time = (time.perf_counter() - t0) * 1000.0
        return out, metrics

    def _run_flush(self, frame: Frame) -> tuple[FeatureMap, FrameMetrics]:
        self.last_match = None
        blobs = {ModelGraph.INPUT_BLOB: preprocess(frame, self.mean, self.scale)}
        per_layer = []
        conv_outputs = {}
        for spec in self.graph.layers:
            out = _layer_forward(spec, [blobs[b] for b in spec.in_blobs])
            blobs[spec.out_blob] = out
            if spec.op == "conv":
                total = self._totals[spec.name]
                per_layer.append(ConvLayerMacs(
                    spec.name, total, 0, total,
                    self.graph.blob_dims[spec.in_blobs[0]][0], spec.geom.kernel))
                conv_outputs[spec.name] = out
        if self.cache_enabled:
            self.cache.commit(frame, conv_outputs, flushed=True)
        total = sum(r.total_macs for r in per_layer)
        metrics = FrameMetrics(match_ratio=0.0, computed_macs=total, total_macs=total,
                               copied_pixels=0, wall_time=0.0, flushed=True,
                               per_layer=per_layer)
        return blobs[self.graph.output_blob], metrics

    def _run_cached(self, frame: Frame) -> tuple[FeatureMap, FrameMetrics]:
        result = match_frames(frame, self.cache.prev_frame, self.matcher_cfg)
        self.last_match = result
        blobs = {ModelGraph.INPUT_BLOB: preprocess(frame, self.mean, self.scale)}
        blob_maps: dict[str, list[RegionMapping]] = {ModelGraph.INPUT_BLOB: result.mappings}
        per_layer = []
        copied_total = 0
        conv_outputs = {}
        for spec in self.graph.layers:
            _, out_h, out_w = self.graph.blob_dims[spec.out_blob]
            if spec.op == "concat":
                out_maps = concat_mappings([blob_maps.get(b, []) for b in spec.in_blobs])
                out = concat_forward([blobs[b] for b in spec.in_blobs])
            else:
                in_maps = blob_maps.get(spec.in_blobs[0], [])
                out_maps = propagate_mappings(in_maps, spec.geom, out_w, out_h)
                if spec.op == "conv":
                    stored = self.cache.conv_outputs.get(spec.name)
                    if stored is None:
                        raise RuntimeError(f"no cached output for layer {spec.name!r}")
                    out, macs, copied = conv_forward_cached(
                        blobs[spec.in_blobs[0]], spec, stored, out_maps)
                    in_c = self.graph.blob_dims[spec.in_blobs[0]][0]
                    per_layer.append(ConvLayerMacs(
                        spec.name, macs, copied, self._totals[spec.name],
                        in_c, spec.geom.kernel))
                    copied_total += copied
                    conv_outputs[spec.name] = out
                else:
                    out = _layer_forward(spec, [blobs[spec.in_blobs[0]]])
            blobs[spec.out_blob] = out
            blob_maps[spec.out_blob] = out_maps
        self.cache.commit(frame, conv_outputs, flushed=False)
        metrics = FrameMetrics(
            match_ratio=result.match_ratio,
            computed_macs=sum(r.computed_macs for r in per_layer),
            total_macs=sum(r.total_macs for r in per_layer),
            copied_pixels=copied_total,
            wall_time=0.0, flushed=False, per_layer=per_layer)
        return blobs[self.graph.output_blob], metrics


def run_frame(session: Session, frame: Frame) -> tuple[FeatureMap, FrameMetrics]:
    """Function form of Session.run_frame."""
    return session.run_frame(frame)
