"""Graph execution with cached convolutions.

A Session runs a ModelGraph over a frame sequence.  The first frame, and
every expire_n-th frame after it, is a flush: it starts from no reusable
regions, so every convolution computes in full and its output repopulates
the cache.  Every other frame is matched against the previous frame at the
raw 8-bit level; the resulting reusable regions are propagated through the
graph, and each convolution copies cached values for its reusable output
pixels while computing the rest.  Both kinds of frame run the same layer
loop; a flush is a cache-assisted run with nothing to reuse.

Only convolution outputs are cached; every other layer type always computes
fully, though regions still propagate through it geometrically.  Copied
values come from the previous frame's stored output, which may itself
contain copies; expiration is the only bound on that compounding.

What each layer op is (its model-text keys, propagation geometry, output
dims and forward call) is stated once, in OPS.

Numeric contract: weights and biases are float32, as the weight blob
stores them (the engine rejects other dtypes); all kernels accumulate in
float64 and store float32, and every stored value is defined by a fixed
formula, so repeated runs (and the copy/compute split in cached
convolution) are bit-reproducible whatever the BLAS's blocking or thread
count.  A convolution output is the float32 of its bias plus its terms
added one at a time in (input channel, kernel row, kernel col) order; one convolution kernel serves
both the full and the cached path and computes any set of output pixels,
so which pixels are computed together never changes a value.  Sums whose
order is not fixed by a formula (fc dot products, softmax normalizers)
are correctly rounded to float64, which is order-independent.  Neither
conv nor fc sums term by term on its common path: a float64 matrix
product in whatever order the BLAS picks comes with a rigorous error
bound covering its distance both to the exact sum and to any ordered
one, and where every value inside that bound rounds to the same float32
the stored result is known (_screen).  The bound scales with the terms'
magnitudes, which Cauchy-Schwarz caps at |b| + ||x|| * ||w|| for input
x and weight row w, widened by 1 + 4*(n+2)*u to cover its own rounding
(_weight_norms), so the matrix product is the only BLAS product per
pixel.  The rare entries the screen does not settle (exact zeros, heavy
cancellation, non-finite terms) are summed by the defining formula: in
the fixed order for conv, exactly with math.fsum for fc (NaN where the
terms hold both infinities, as the fixed order gives).
Transcendentals in hot paths use numpy's vectorized forms; softmax uses
scalar math.exp so its tiny head stays identical to a scalar reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .core import FeatureMap, Frame, Rect, RegionMapping
from .matching import MatcherConfig, MatchResult, match_frames
from .regions import LayerGeom, LayerType, concat_mappings, propagate_mappings


@dataclass
class LayerSpec:
    """One layer: operation, geometry, graph wiring, and parameters.

    weights/biases stay None until a weight blob is loaded (conv and fc
    only), and must then be float32.  radius/norm_bias/alpha/beta belong to
    lrn, factor to scale, value to bias, pool_mode to pool.
    """

    name: str
    op: str
    geom: LayerGeom
    in_blobs: list[str]
    out_blob: str
    out_channels: int = 0
    out_features: int = 0
    pool_mode: str = "max"
    radius: int = 0
    alpha: float = 1e-4
    beta: float = 0.75
    norm_bias: float = 1.0
    factor: float = 1.0
    value: float = 0.0
    weights: np.ndarray | None = None
    biases: np.ndarray | None = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown layer op {self.op!r}")
        if self.op == "concat":
            if len(self.in_blobs) < 1:
                raise ValueError("concat needs inputs")
        elif len(self.in_blobs) != 1:
            raise ValueError(f"layer {self.name!r}: only concat takes multiple inputs")
        if self.op == "pool" and self.pool_mode not in ("max", "avg"):
            raise ValueError(f"pool mode must be max or avg, got {self.pool_mode!r}")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


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
    reference), per-conv-layer output maps, the expiration counter, and the
    anchor: the last searched MatchResult of the current flush window, which
    predicts the next frame's motion."""

    expire_n: int = 10
    prev_frame: Frame | None = None
    conv_outputs: dict[str, FeatureMap] = field(default_factory=dict)
    frames_since_flush: int = 0
    anchor: MatchResult | None = None

    def __post_init__(self):
        if self.expire_n < 1:
            raise ValueError("expire_n must be >= 1")

    def commit(self, frame: Frame, conv_outputs: dict[str, FeatureMap], flushed: bool,
               match: MatchResult | None):
        """Install a finished frame's state in one step, so a frame that
        fails midway leaves the previous frame's state whole.  match is
        the frame's MatchResult, None on a flush.  A flush clears the
        anchor; a searched match replaces it."""
        self.prev_frame = frame
        self.conv_outputs = conv_outputs
        self.frames_since_flush = 1 if flushed else self.frames_since_flush + 1
        if flushed:
            self.anchor = None
        elif match.stats.searches:
            self.anchor = match


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


def _channel_means(mean, channels: int) -> np.ndarray:
    """mean, a scalar or a per-channel sequence, as one float64 per channel."""
    mean_arr = np.asarray(mean, dtype=np.float64).reshape(-1)
    if mean_arr.size == 1:
        mean_arr = np.repeat(mean_arr, channels)
    if mean_arr.size != channels:
        raise ValueError(f"mean has {mean_arr.size} entries for {channels} channels")
    return mean_arr


def preprocess(frame: Frame, mean=0.0, scale: float = 1.0) -> FeatureMap:
    """(sample - mean[channel]) * scale, to float32.

    mean is a scalar or a per-channel sequence; frames are not resized.
    """
    mean_arr = _channel_means(mean, frame.channels)
    out = (frame.data.astype(np.float64) - mean_arr[:, None, None]) * float(scale)
    return FeatureMap(out.astype(np.float32))


def _require_weights(spec: LayerSpec):
    if spec.weights is None or spec.biases is None:
        raise ValueError(f"layer {spec.name!r} has no weights loaded")
    for kind, arr in (("weights", spec.weights), ("biases", spec.biases)):
        if arr.dtype.type is not np.float32:
            raise ValueError(f"layer {spec.name!r}: {kind} are {arr.dtype}, not float32")


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
        raise ValueError(f"dimension mismatch: window k={k} exceeds padded input "
                         f"{h + 2 * p}x{w + 2 * p}")
    return out_h, out_w


def _check_conv(input: FeatureMap, spec: LayerSpec) -> tuple[int, int]:
    """Checks both conv entry points share; returns the output (height, width)."""
    _require_weights(spec)
    in_ch = spec.weights.shape[1]
    if input.channels != in_ch:
        raise ValueError(f"layer {spec.name!r}: input has {input.channels} channels, "
                         f"weights expect {in_ch}")
    g = spec.geom
    return _conv_dims(input.height, input.width, g.kernel, g.stride, g.pad)


# Unit roundoff of float64, and its smallest normal magnitude.
_U64 = 2.0 ** -53
_TINY64 = float(np.finfo(np.float64).tiny)

# Most float64 window values _conv_at gathers at once (512 KB, which keeps
# a chunk in a core's L2 cache), so its memory stays bounded whatever the
# layer size.
_CHUNK_ELEMS = 1 << 16


def _screen(s: np.ndarray, a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Settle sums of n float64 terms from a product in unknown order.

    s is the terms' sum, computed in any order, and a an upper bound on
    the sum of their magnitudes.  Returns the float32 array that holds
    the stored result wherever it is settled, and the boolean mask of the
    entries that are not.

    Summing n float64 terms in any order lands within
    gamma = (n-1)*u/(1-(n-1)*u) times the sum of their magnitudes of the
    exact sum (u = 2**-53), so any two orders land within 2*gamma of each
    other.  So err = 4*n*u*a + tiny bounds, with margin while n*u is
    small, both the distance from s to the exact sum and the distance from
    s to the sum in any fixed order; tiny covers products and sums that
    underflow.  Rounding is monotone, so the computed s - err and s + err,
    the ends of that interval rounded to float64, enclose every float64
    value inside it, which the correctly rounded sum and every ordered
    one are; rounding on to float32 is monotone too.  So where both ends
    store as the same finite float32 bit pattern, so do those sums: that
    entry is settled.  Exact zeros (whose ends store as -0.0 and +0.0),
    sums that cancel to near a float32 rounding boundary, and entries
    whose low end does not store as a finite float32 (non-finite terms or
    bounds, and sums beyond the float32 range, where float64 overflow
    could void the error analysis) are left unsettled.
    """
    err = (4.0 * n * _U64) * a + _TINY64
    out = (s - err).astype(np.float32)
    hi = (s + err).astype(np.float32)
    return out, ~np.isfinite(out) | (out.view(np.uint32) != hi.view(np.uint32))


def _weight_norms(w64: np.ndarray) -> np.ndarray:
    """Per-row factors of the Cauchy-Schwarz bound for a (rows, n) matrix
    of float32 weights held in float64: for any float32 vector x, the
    float64 product of its 2-norm (the square root of its sum of squares,
    summed in any order) with entry r is at least sum_i |w64[r, i] * x_i|.

    Each row's 2-norm is widened by the margin 1 + 4*(n+2)*u, which covers
    the rounding of both sums of squares (gamma_n each, halved by the
    square roots), of both square roots and of the two products, with
    room to spare.  The squares of float32 values are exact and never
    overflow or underflow in float64, nor do the norms or their product;
    a row holding an infinity or NaN gives a non-finite bound, which
    leaves its entries unsettled.
    """
    return np.sqrt(np.einsum("ij,ij->i", w64, w64)) * (1.0 + 4 * (w64.shape[1] + 2) * _U64)


def _conv_at(input: FeatureMap, spec: LayerSpec, idx_y: np.ndarray,
             idx_x: np.ndarray) -> np.ndarray:
    """Convolution outputs at the output pixels (idx_y[i], idx_x[i]), as a
    float32 (out_ch, n) array.  Zero padding, square kernel, per-channel
    bias.

    Each output stores the float32 of its fixed-order float64 sum: bias
    first, then the weight*input terms in (input channel, kernel row,
    kernel col) ascending order, added one at a time.  The pixels' windows
    are gathered as im2col rows, at most _CHUNK_ELEMS values at a time,
    and multiplied by the weights in float64 in whatever order the BLAS
    picks; each row's squared 2-norm is summed next to that product.  The
    terms' magnitudes are bounded by Cauchy-Schwarz:
    |b| + ||window|| * ||w|| * (1 + 4*(n+2)*u) (see _weight_norms), and
    _screen settles every entry whose error interval under that bound
    stores as one float32, which is then the fixed-order sum's.  The few
    entries it leaves unsettled (exact zeros, near-ties, non-finite terms)
    have their windows gathered again and are summed in the fixed order
    by one sequential np.add.accumulate.  So a pixel's value depends
    neither on which other pixels are computed with it nor on the
    chunking.
    """
    k, s, p = spec.geom.kernel, spec.geom.stride, spec.geom.pad
    out_ch = spec.weights.shape[0]
    w64 = spec.weights.astype(np.float64).reshape(out_ch, -1)
    b64 = spec.biases.astype(np.float64)
    padded = _pad_input(input.data.astype(np.float64), p)
    # (out_y, out_x, in_ch, ky, kx) view of every output pixel's window.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k, k), axis=(1, 2))[:, ::s, ::s].transpose(1, 2, 0, 3, 4)
    n_cols = w64.shape[1]
    sums = np.empty((idx_y.size, out_ch))
    norms = np.empty(idx_y.size)
    step = max(1, _CHUNK_ELEMS // n_cols)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, idx_y.size, step):
            px = slice(lo, lo + step)
            cols = windows[idx_y[px], idx_x[px]].reshape(-1, n_cols)
            np.matmul(cols, w64.T, out=sums[px])
            np.einsum("ij,ij->i", cols, cols, out=norms[px])
        sums += b64
        bound = np.multiply.outer(np.sqrt(norms, out=norms), _weight_norms(w64))
        bound += np.abs(b64)
        out, unsettled = _screen(sums, bound, n_cols + 1)
        pix, ch = np.divmod(np.flatnonzero(unsettled), out_ch)
        if pix.size:
            cols = windows[idx_y[pix], idx_x[pix]].reshape(-1, n_cols)
            terms = np.concatenate([b64[ch, None], w64[ch] * cols], axis=1)
            out[pix, ch] = np.add.accumulate(terms, axis=1)[:, -1]
    return np.ascontiguousarray(out.T)


def conv_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Spatial convolution over every output pixel (see _conv_at)."""
    out_h, out_w = _check_conv(input, spec)
    idx_y, idx_x = np.indices((out_h, out_w)).reshape(2, -1)
    return FeatureMap(_conv_at(input, spec, idx_y, idx_x).reshape(-1, out_h, out_w))


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
    (all channels); build the reuse bitmap; run the convolution kernel
    only for unmarked pixels.  Computed pixels get bit-identical values to
    a full conv_forward, which runs the same kernel over every pixel.
    With no mappings every pixel is computed.

    Returns (output, computed_macs, copied_pixels); copied_pixels counts
    output elements across channels.
    """
    out_h, out_w = _check_conv(input, spec)
    out_ch, in_ch, k, _ = spec.weights.shape
    if cached_out.data.shape != (out_ch, out_h, out_w):
        raise ValueError(f"layer {spec.name!r}: cached output dims {cached_out.data.shape} "
                         f"do not match {(out_ch, out_h, out_w)}")

    out = np.empty((out_ch, out_h, out_w), dtype=np.float32)
    for m in mappings:
        src = m.src
        if src.x < 0 or src.y < 0 or src.x2 > out_w or src.y2 > out_h:
            raise RuntimeError(f"mapping src {src} outside {out_w}x{out_h} plane")
        out[:, m.dst.y:m.dst.y2, m.dst.x:m.dst.x2] = \
            cached_out.data[:, src.y:src.y2, src.x:src.x2]

    bitmap = build_reuse_bitmap(mappings, out_w, out_h)
    idx_y, idx_x = np.nonzero(~bitmap)
    if idx_y.size:
        out[:, idx_y, idx_x] = _conv_at(input, spec, idx_y, idx_x)

    copied = int(bitmap.sum()) * out_ch
    computed = idx_y.size * out_ch * in_ch * k * k
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
    r = spec.radius
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


def _fsum_or_nan(terms: list[float]) -> float:
    """math.fsum of terms, or NaN where it raises for inf - inf."""
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan


def fc_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Dense layer over the flattened (channel-major) input.

    Each output is the correctly rounded float64 sum of the bias plus all
    weight*input products, stored as float32.  The products are exact in
    float64 (two float32 mantissas fit, and their exponents neither
    overflow nor underflow), so the result depends on no summation order.

    Every row is first summed by a float64 matrix-vector product in
    whatever order the BLAS picks.  Its terms' magnitudes are bounded by
    |b| + ||x|| * ||w_row|| * (1 + 4*(n+2)*u), as in _conv_at (see
    _weight_norms), and _screen settles the rows whose error interval
    under that bound stores as one float32.  The other rows (exact zeros,
    sums that cancel to near a float32 rounding boundary, non-finite
    terms) are summed exactly by math.fsum, bias first, which also keeps
    its +0.0 for an exact zero.  A row holding both +inf and -inf terms,
    where fsum raises, stores NaN, as conv does.
    """
    _require_weights(spec)
    x64 = input.data.astype(np.float64).ravel()
    w64 = spec.weights.astype(np.float64)
    b64 = spec.biases.astype(np.float64)
    if w64.shape[1] != x64.size:
        raise ValueError(f"layer {spec.name!r}: fc expects {w64.shape[1]} inputs, "
                         f"got {x64.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = w64 @ x64 + b64
        a = _weight_norms(w64) * np.sqrt(x64 @ x64) + np.abs(b64)
        out, unsettled = _screen(s, a, x64.size + 1)
        rows = np.flatnonzero(unsettled)
        if rows.size:
            exact = [_fsum_or_nan([float(b64[r])] + (w64[r] * x64).tolist()) for r in rows]
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


Dims = tuple[int, int, int]


def _same_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    return in_dims[0]


def _window_out(spec: LayerSpec, dims: Dims) -> tuple[int, int]:
    _, h, w = dims
    g = spec.geom
    return _conv_dims(h, w, g.kernel, g.stride, g.pad)


def _conv_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    out_h, out_w = _window_out(spec, in_dims[0])
    if spec.out_channels < 1:
        raise ValueError("conv needs out_ch >= 1")
    return spec.out_channels, out_h, out_w


def _pool_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    return (in_dims[0][0], *_window_out(spec, in_dims[0]))


def _fc_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    if spec.out_features < 1:
        raise ValueError("fc needs out >= 1")
    return spec.out_features, 1, 1


def _concat_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    hw = {(h, w) for _, h, w in in_dims}
    if len(hw) != 1:
        raise ValueError(f"concat inputs disagree on spatial dims: {sorted(hw)}")
    (h, w), = hw
    return sum(c for c, _, _ in in_dims), h, w


@dataclass(frozen=True)
class LayerOp:
    """Everything the package knows about one layer op.

    keys are the op's model-text keys in serialization order, each with its
    default (None for a required key).  dims maps the spec and its input
    dims to the output dims, raising ValueError on impossible geometry.
    forward runs the layer; it names its kernel through this module's
    globals when called, so a kernel replaced on the module (as tracing
    and tests do) is the one that runs.
    """

    keys: dict[str, object]
    layer_type: LayerType
    dims: Callable[[LayerSpec, list[Dims]], Dims]
    forward: Callable[[LayerSpec, list[FeatureMap]], FeatureMap]


OPS: dict[str, LayerOp] = {
    "conv": LayerOp({"k": None, "s": 1, "p": 0, "out_ch": None}, LayerType.CONVOLUTION,
                    _conv_out, lambda spec, xs: conv_forward(xs[0], spec)),
    "pool": LayerOp({"k": None, "s": 1, "p": 0, "mode": "max"}, LayerType.POOLING,
                    _pool_out, lambda spec, xs: pool_forward(xs[0], spec)),
    "relu": LayerOp({}, LayerType.ELEMENTWISE, _same_out,
                    lambda spec, xs: relu_forward(xs[0])),
    "lrn": LayerOp({"r": None, "alpha": 1e-4, "beta": 0.75, "bias": 1.0},
                   LayerType.ELEMENTWISE, _same_out, lambda spec, xs: lrn_forward(xs[0], spec)),
    "fc": LayerOp({"out": None}, LayerType.FULLY_CONNECTED, _fc_out,
                  lambda spec, xs: fc_forward(xs[0], spec)),
    "softmax": LayerOp({}, LayerType.ELEMENTWISE, _same_out,
                       lambda spec, xs: softmax_forward(xs[0])),
    "concat": LayerOp({}, LayerType.CONCAT, _concat_out,
                      lambda spec, xs: concat_forward(xs)),
    "scale": LayerOp({"factor": None}, LayerType.ELEMENTWISE, _same_out,
                     lambda spec, xs: elementwise_forward(xs[0], spec)),
    "bias": LayerOp({"value": None}, LayerType.ELEMENTWISE, _same_out,
                    lambda spec, xs: elementwise_forward(xs[0], spec)),
}


class Session:
    """Stateful inference over one frame sequence.

    Single-threaded; owns its CacheStore exclusively.  With cache_enabled
    False every frame runs the plain full forward (each frame is a flush
    and nothing is retained).  With it True the model input must hold at
    least one matcher block, or no frame could ever be matched.  Every
    conv and fc layer must hold float32 weights and biases, and mean must
    give one value or one per input channel; all three are checked here,
    before any frame.

    A cache-assisted frame is matched with the cache's anchor (the last
    searched match since the flush) as prior: it is verified at the
    anchor's motion first and searched only when its coverage falls below
    matching.PRIOR_KEEP of the anchor's.  An anchor that covered less than
    matching.PRIOR_MIN, as a scene cut leaves, predicts nothing: the next
    frame searches, so a shot that continues after a cut is reused from its
    second frame on, as without prediction.

    last_match is None after a flush, and after a cache-assisted frame it
    is the MatchResult that frame's reuse came from (its match_ratio is
    the frame's FrameMetrics.match_ratio); a kept prediction has
    stats.searches == 0.  It is set only when the frame finishes.
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
        for spec in graph.layers:
            if spec.op in ("conv", "fc"):
                _require_weights(spec)
        self.cache = CacheStore(expire_n=expire_n)
        self.cache_enabled = cache_enabled
        self.mean = _channel_means(mean, graph.input_dims[0])
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
        match = None if flush else match_frames(frame, self.cache.prev_frame,
                                                self.matcher_cfg, prior=self.cache.anchor)
        in_maps = [] if flush else match.mappings
        blobs = {ModelGraph.INPUT_BLOB: preprocess(frame, self.mean, self.scale)}
        blob_maps: dict[str, list[RegionMapping]] = {ModelGraph.INPUT_BLOB: in_maps}
        per_layer = []
        conv_outputs = {}
        for spec in self.graph.layers:
            inputs = [blobs[b] for b in spec.in_blobs]
            if spec.op == "concat":
                out_maps = concat_mappings([blob_maps[b] for b in spec.in_blobs])
            else:
                out_maps = propagate_mappings(blob_maps[spec.in_blobs[0]], spec.geom)
            if spec.op != "conv":
                out = OPS[spec.op].forward(spec, inputs)
            else:
                total = self._totals[spec.name]
                if flush:
                    out, macs, copied = conv_forward(inputs[0], spec), total, 0
                else:
                    stored = self.cache.conv_outputs.get(spec.name)
                    if stored is None:
                        raise RuntimeError(f"no cached output for layer {spec.name!r}")
                    out, macs, copied = conv_forward_cached(inputs[0], spec, stored, out_maps)
                per_layer.append(ConvLayerMacs(spec.name, macs, copied, total,
                                               inputs[0].channels, spec.geom.kernel))
                conv_outputs[spec.name] = out
            blobs[spec.out_blob] = out
            blob_maps[spec.out_blob] = out_maps
        if self.cache_enabled:
            self.cache.commit(frame, conv_outputs, flushed=flush, match=match)
        self.last_match = match
        metrics = FrameMetrics(
            match_ratio=0.0 if flush else match.match_ratio,
            computed_macs=sum(r.computed_macs for r in per_layer),
            total_macs=sum(r.total_macs for r in per_layer),
            copied_pixels=sum(r.copied_pixels for r in per_layer),
            wall_time=(time.perf_counter() - t0) * 1000.0, flushed=flush,
            per_layer=per_layer)
        return blobs[self.graph.output_blob], metrics
