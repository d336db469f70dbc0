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

What each layer op is (its model-text keys with the LayerSpec field, value
type and default of each, propagation geometry, output dims, weight and
bias shapes, and forward call) is stated once, in OPS.

Numeric contract: weights and biases are float32, as the weight blob
stores them (the engine rejects other dtypes); all kernels accumulate in
float64 and store float32, and every stored value is defined by a fixed
formula, so repeated runs (and the copy/compute split in cached
convolution) are bit-reproducible whatever the BLAS's blocking or thread
count.  One rule covers conv and fc: an output is the float32 of its bias
plus its terms added one at a time in (input channel, kernel row, kernel
col) order.  An fc layer is the 1x1 convolution of one pixel whose
channels are its flattened input, so its order is the flattened input
order.  One kernel (_conv_at) serves conv's full and cached paths and fc,
and computes any set of output pixels, so which pixels are computed
together never changes a value.  It does not sum term by term on its
common path: a float64 matrix product in whatever order the BLAS picks
comes with a rigorous error bound covering its distance to the
fixed-order sum, and where every value inside that bound rounds to the
same float32 the stored result is known (_screen).  The product reads
float64 im2col rows gathered from a zero-padded channels-last float32
copy of the input, which holds its values exactly, so each row is in
(kernel row, kernel col, input channel) order, and the weights are
prepared in that column order; the order of the product's terms is free,
so only the BLAS's order changes.  The bound scales with the terms'
magnitudes, which Cauchy-Schwarz caps at |b| + ||x|| * ||w|| for window x
and weight row w, widened by 1 + 4*(n+2)*u to cover its own rounding
(_weight_norms).  Any upper bound on ||x|| serves, so the screen runs in
two stages: first under one number for every window, sqrt(n) * max|x|
over the whole input, then, for the pixels that leaves unsettled, under
each window's own 2-norm.  So the matrix product is the only pass over
most im2col rows.  The rare entries neither stage settles (exact zeros,
heavy cancellation, non-finite terms) are permuted back to the fixed
order and summed in it.
What the kernel needs of a layer's weights alone (the float64 weights
and biases, the column permutation, the weight rows' norm bounds and |b|)
is prepared once per Session, on the Session's own copies of the conv and
fc specs (_prepare_weights); a kernel called directly on a spec with none
prepares from its current arrays on every call.  The engine never writes
to a caller's spec or arrays.
Max pooling compares in float32: the max of float32 values is one of
them, whose bits it stores, a NaN quieted as a float64 cast quiets it.
Softmax's normalizer, the one sum with no fixed order, is correctly
rounded by math.fsum, which is order-independent.
Transcendentals in hot paths use numpy's vectorized forms; softmax uses
scalar math.exp so its tiny head stays identical to a scalar reference.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .core import FeatureMap, Frame, Rect, RegionMapping
from .matching import MatcherConfig, MatchResult, check_count, match_frames
from .regions import LayerGeom, LayerType, concat_mappings, propagate_mappings


@dataclass
class LayerSpec:
    """One layer: its op, graph wiring, and the values of the op's keys.

    OPS names the field each model-text key sets; geom follows from the op
    and kernel/stride/pad.  Building a spec checks its window, that its
    op's float keys are finite, and lrn's bias > 0, alpha >= 0 and
    bias**beta in float64's normal range or above.
    weights/biases stay None until a weight blob is loaded (conv and fc
    only), and must then be float32.  prepared is None except on a
    Session's own copy of a conv or fc spec, where it holds what _conv_at
    reads of the weights (see PreparedWeights).
    """

    name: str
    op: str
    in_blobs: list[str]
    out_blob: str
    kernel: int = 1
    stride: int = 1
    pad: int = 0
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
    prepared: PreparedWeights | None = field(default=None, init=False, repr=False,
                                             compare=False)

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
        for key, k in OPS[self.op].keys.items():
            if k.type is float and not math.isfinite(getattr(self, k.field)):
                raise ValueError(f"layer {self.name!r}: {key} must be finite, "
                                 f"got {getattr(self, k.field)}")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        # The lrn base norm_bias + alpha/(2r+1) * (sum of squares) must be
        # positive for any input, or its power is NaN.
        if self.op == "lrn" and (self.norm_bias <= 0 or self.alpha < 0):
            raise ValueError(f"layer {self.name!r}: lrn needs bias > 0 and alpha >= 0, "
                             f"got bias={self.norm_bias}, alpha={self.alpha}")
        # Where the window's squares sum to 0 the quotient is x / bias**beta,
        # which is NaN at x = 0 once bias**beta underflows to 0.
        if self.op == "lrn" and self.beta * math.log(self.norm_bias) < math.log(_TINY64):
            raise ValueError(f"layer {self.name!r}: lrn bias**beta is below float64's "
                             f"normal range, got bias={self.norm_bias}, beta={self.beta}")
        self.geom  # a bad window fails here, not on the first frame

    @property
    def geom(self) -> LayerGeom:
        return LayerGeom(OPS[self.op].layer_type, self.kernel, self.stride, self.pad)


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

    def param_shapes(self) -> list[tuple[LayerSpec, tuple, tuple]]:
        """(layer, weight shape, bias shape) for each layer with weights,
        in declaration order, as the layer's OPS params rule gives them."""
        return [(spec, *rule(spec, [self.blob_dims[b] for b in spec.in_blobs]))
                for spec in self.layers if (rule := OPS[spec.op].params)]

    def conv_total_macs(self) -> dict[str, int]:
        """Full-compute multiply-accumulate count per conv layer."""
        return {spec.name: math.prod(ws) * math.prod(self.blob_dims[spec.out_blob][1:])
                for spec, ws, _ in self.param_shapes() if spec.op == "conv"}


@dataclass
class CacheStore:
    """Retained state between frames: previous input frame (the match
    reference), per-conv-layer output maps, the expiration counter, and the
    anchor: the last searched MatchResult since the last cut, which
    predicts the next frame's motion.  A flush bounds how stale cached
    outputs get, not the motion: the matcher verifies any prediction
    against the previous frame, so the anchor survives a flush."""

    expire_n: int = 10
    prev_frame: Frame | None = None
    conv_outputs: dict[str, FeatureMap] = field(default_factory=dict)
    frames_since_flush: int = 0
    anchor: MatchResult | None = None

    def __post_init__(self):
        check_count("expire_n", self.expire_n, 1)

    def commit(self, frame: Frame, conv_outputs: dict[str, FeatureMap], flushed: bool,
               match: MatchResult | None):
        """Install a finished frame's state in one step, so a frame that
        fails midway leaves the previous frame's state whole.  match is
        the frame's MatchResult, None on a flush.  A match that covers
        nothing (as the matcher's cut gate returns) clears the anchor; a
        searched match replaces it; a flush or a kept prediction leaves
        it."""
        self.prev_frame = frame
        self.conv_outputs = conv_outputs
        self.frames_since_flush = 1 if flushed else self.frames_since_flush + 1
        if flushed:
            return
        if not match.match_ratio:
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


def _preprocess_args(mean, scale, channels: int) -> tuple[np.ndarray, float]:
    """mean, a scalar or a per-channel sequence, as one float64 per
    channel, and scale as a float; both must be finite."""
    mean_arr = np.asarray(mean, dtype=np.float64).reshape(-1)
    if mean_arr.size == 1:
        mean_arr = np.repeat(mean_arr, channels)
    if mean_arr.size != channels:
        raise ValueError(f"mean has {mean_arr.size} entries for {channels} channels")
    scale = float(scale)
    if not (np.isfinite(mean_arr).all() and math.isfinite(scale)):
        raise ValueError(f"mean and scale must be finite, got mean={mean_arr.tolist()}, "
                         f"scale={scale}")
    return mean_arr, scale


def preprocess(frame: Frame, mean=0.0, scale: float = 1.0) -> FeatureMap:
    """(sample - mean[channel]) * scale, to float32.

    mean is a scalar or a per-channel sequence; frames are not resized.
    Results beyond the float32 range store as infinities.
    """
    mean_arr, scale = _preprocess_args(mean, scale, frame.channels)
    with np.errstate(over="ignore"):
        out = (frame.data.astype(np.float64) - mean_arr[:, None, None]) * scale
        return FeatureMap(out.astype(np.float32))


def _require_weights(spec: LayerSpec, shapes: tuple[tuple, tuple] | None = None):
    """Check that the layer's weights and biases are loaded float32 arrays
    and, when shapes gives their (weights, biases) shapes, have them."""
    if spec.weights is None or spec.biases is None:
        raise ValueError(f"layer {spec.name!r} has no weights loaded")
    for i, (kind, arr) in enumerate((("weights", spec.weights), ("biases", spec.biases))):
        if arr.dtype.type is not np.float32:
            raise ValueError(f"layer {spec.name!r}: {kind} are {arr.dtype}, not float32")
        if shapes and arr.shape != shapes[i]:
            raise ValueError(f"layer {spec.name!r}: {kind} have shape {arr.shape}, "
                             f"not {shapes[i]}")


def _pad_input(x: np.ndarray, p: int, fill: float = 0.0) -> np.ndarray:
    if p == 0:
        return x
    c, h, w = x.shape
    padded = np.full((c, h + 2 * p, w + 2 * p), fill, dtype=x.dtype)
    padded[:, p:p + h, p:p + w] = x
    return padded


def _window_dims(spec: LayerSpec, h: int, w: int) -> tuple[int, int]:
    """Output (height, width) of a conv or pool window over an h x w input."""
    k, s, p = spec.kernel, spec.stride, spec.pad
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
    return _window_dims(spec, input.height, input.width)


# Unit roundoff of float64, and its smallest normal magnitude.
_U64 = 2.0 ** -53
_TINY64 = float(np.finfo(np.float64).tiny)

# Most float64 window values _conv_at gathers at once, whether as blocks of
# output rows (a row that holds more is split) or from a list of pixels
# (512 KB, which keeps a chunk in a core's L2 cache), so its memory stays
# bounded whatever the layer size; a single window that holds more is
# gathered alone.
_CHUNK_ELEMS = 1 << 16


def _screen(s: np.ndarray, a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Settle sums of n float64 terms from a product in unknown order.

    s is the terms' sum, computed in any order, and a an upper bound on
    the sum of their magnitudes, of s's shape or one that broadcasts to
    it.  Returns the float32 array that holds the stored result wherever
    it is settled, and the boolean mask of the entries that are not.

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
    """Per-row factors of the Cauchy-Schwarz bound for a layer's
    (out_ch, n) matrix of float32 weights held in float64, one row per
    output channel (or fc output): for any float32 vector x, the
    float64 product of its 2-norm with entry r is at least
    sum_i |w64[r, i] * x_i|.  The 2-norm may be computed (the square root
    of its sum of squares, summed in any order) or any float64 at least
    the exact one, as _conv_at's stage-1 bound is.

    Each row's 2-norm is widened by the margin 1 + 4*(n+2)*u, which covers
    the rounding of both sums of squares (gamma_n each, halved by the
    square roots), of both square roots and of the two products, with
    room to spare.  The squares of float32 values are exact and never
    overflow or underflow in float64, nor do the norms or their product;
    a row holding an infinity or NaN gives a non-finite bound, which
    leaves its entries unsettled.  A row's norm does not depend on the
    order of its columns.
    """
    return np.sqrt(np.einsum("ij,ij->i", w64, w64)) * (1.0 + 4 * (w64.shape[1] + 2) * _U64)


class PreparedWeights(NamedTuple):
    """A conv or fc layer's weights in the form _conv_at reads them.

    w64 holds the weights in float64 as an (out_ch, n) matrix whose
    columns run in (kernel row, kernel col, input channel) order, the
    order of _conv_at's channels-last im2col rows; order is the
    permutation of those columns that restores the fixed summation order
    (input channel, kernel row, kernel col), or None where both orders
    agree: for a 1x1 kernel, as every fc layer is (both are its flattened
    input order), and for one input channel.  b64 holds the biases in
    float64, w_norms the _weight_norms of w64 and b_abs |b64|.
    """

    w64: np.ndarray
    order: np.ndarray | None
    b64: np.ndarray
    w_norms: np.ndarray
    b_abs: np.ndarray


def _prepare_weights(spec: LayerSpec) -> PreparedWeights:
    """spec's current weights and biases in the form _conv_at reads them."""
    w, b = spec.weights, spec.biases
    # fc weights are (out, n): a 1x1 kernel over n channels.
    out_ch, c, kh, kw = w.shape if w.ndim == 4 else (*w.shape, 1, 1)
    w64 = np.ascontiguousarray(w.reshape(out_ch, c, kh, kw).transpose(0, 2, 3, 1),
                               dtype=np.float64).reshape(out_ch, -1)
    order = (None if c == 1 or kh * kw == 1
             else np.arange(w64.shape[1]).reshape(kh, kw, c).transpose(2, 0, 1).ravel())
    b64 = b.astype(np.float64)
    return PreparedWeights(w64, order, b64, _weight_norms(w64), np.abs(b64))


def _fixed_order(b: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """b[i] + terms[i, 0] + terms[i, 1] + ..., added one at a time in
    float64 by one sequential np.add.accumulate: the fixed-order sum."""
    return np.add.accumulate(np.concatenate([b[:, None], terms], axis=1), axis=1)[:, -1]


def _channels_last(x: np.ndarray, p: int) -> np.ndarray:
    """The (c, h, w) float32 input as a zero-padded (h + 2p, w + 2p, c)
    float32 plane, which holds its values exactly.  A transposed
    assignment runs its inner loop over the c channels, so below 8
    channels one strided copy per channel is faster (0.04 against 0.11 ms
    at 3x227x227, one core of a 2-vCPU x86 VM); from 8 on the transposed
    assignment is (0.004 against 0.009 ms at 16x27x27, and one copy for
    an fc column)."""
    c, h, w = x.shape
    plane = np.zeros((h + 2 * p, w + 2 * p, c), dtype=np.float32)
    inner = plane[p:p + h, p:p + w]
    if c < 8:
        for ch in range(c):
            inner[..., ch] = x[ch]
    else:
        inner[...] = x.transpose(1, 2, 0)
    return plane


def _row_blocks(out_h: int, out_w: int, step: int):
    """(rows, cols) slices of blocks of at most step output pixels that
    tile the output in row-major order: runs of whole rows when a row
    fits, else pieces of one row."""
    if out_w <= step:
        for y in range(0, out_h, step // out_w):
            yield slice(y, y + step // out_w), slice(0, out_w)
    else:
        for y in range(out_h):
            for x in range(0, out_w, step):
                yield slice(y, y + 1), slice(x, x + step)


def _conv_at(input: FeatureMap, spec: LayerSpec,
             at: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Convolution outputs at the output pixels (at[0][i], at[1][i]), or
    at every output pixel in row-major order if at is None, as a float32
    (out_ch, n) array.  Zero padding, square kernel, per-channel bias.
    fc_forward runs it on one pixel with (out, n) weights.  It reads the
    layer's weights, their norm bounds and |b| in float64 from
    spec.prepared, or prepares them now from the current arrays if the
    spec has none.

    Each output stores the float32 of its fixed-order float64 sum: bias
    first, then the weight*input terms in (input channel, kernel row,
    kernel col) ascending order, added one at a time.  The input is copied
    once into a zero-padded channels-last float32 plane (_channels_last),
    so each pixel's window is k runs of k*in_ch contiguous values; the
    windows are gathered as float64 im2col rows in (kernel row, kernel
    col, input channel) order, at most _CHUNK_ELEMS values at a time, and
    multiplied by the weights (prepared in the same column order) in
    float64 in whatever order the BLAS picks.  Every output pixel is
    gathered as blocks of whole output rows (_row_blocks), each by one
    strided copy that casts as it copies; a list of pixels is gathered by
    fancy indexing and cast after.  The float32 to float64 cast is exact,
    so both gathers give the same rows.  The terms' magnitudes are bounded by
    Cauchy-Schwarz, |b| + ||window|| * ||w|| (see _weight_norms), in two
    stages.  Stage 1 bounds every window's 2-norm by one number,
    sqrt(n) * max|x| over the whole input (||x||_2 <= sqrt(n)*||x||_inf),
    widened by 1 + 4*u so that its three roundings leave it above that,
    and _screen settles every entry whose error interval under that bound
    stores as one float32, which is then the fixed-order sum's.
    Stage 2 gathers again only the pixels with an entry stage 1 left
    unsettled, sums their windows' squares and screens those pixels under
    their own window norms, the bound a per-window screen would use.  The
    few entries it leaves unsettled (exact zeros, near-ties, non-finite
    terms) are permuted back to the fixed order and summed in it
    (_fixed_order).  So a pixel's value depends neither on which other
    pixels are computed with it nor on the chunking.
    """
    k, s, p = spec.kernel, spec.stride, spec.pad
    prep = spec.prepared or _prepare_weights(spec)
    w64, b64 = prep.w64, prep.b64
    out_ch, n_cols = w64.shape
    c, h, w = input.data.shape
    plane = _channels_last(input.data, p)
    # (out_y, out_x, ky, kx*in_ch) view of every output pixel's window.
    out_h, out_w = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    row, col, item = plane.strides
    windows = np.lib.stride_tricks.as_strided(
        plane, (out_h, out_w, k, k * c), (s * row, s * col, row, item), writeable=False)

    def gather(ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return windows[ys, xs].reshape(-1, n_cols).astype(np.float64)

    n_px = out_h * out_w if at is None else at[0].size
    sums = np.empty((n_px, out_ch))
    step = max(1, _CHUNK_ELEMS // n_cols)
    with np.errstate(over="ignore", invalid="ignore"):
        if at is None:
            buf = np.empty(min(step, n_px) * n_cols)
            lo = 0
            for ys, xs in _row_blocks(out_h, out_w, step):
                block = windows[ys, xs]
                n = block.shape[0] * block.shape[1]
                cols = buf[:n * n_cols]
                np.copyto(cols.reshape(block.shape), block)
                np.matmul(cols.reshape(n, n_cols), w64.T, out=sums[lo:lo + n])
                lo += n
        else:
            for lo in range(0, n_px, step):
                px = slice(lo, lo + step)
                np.matmul(gather(at[0][px], at[1][px]), w64.T, out=sums[px])
        sums += b64
        x_norm = math.sqrt(n_cols) * (1.0 + 4 * _U64) * float(np.abs(input.data).max())
        out, unsettled = _screen(sums, x_norm * prep.w_norms + prep.b_abs, n_cols + 1)
        rows = np.flatnonzero(unsettled.any(axis=1))
        ys, xs = np.divmod(rows, out_w) if at is None else (at[0][rows], at[1][rows])
        for lo in range(0, rows.size, step):
            pix = rows[lo:lo + step]
            cols = gather(ys[lo:lo + step], xs[lo:lo + step])
            bound = np.multiply.outer(np.sqrt(np.einsum("ij,ij->i", cols, cols)), prep.w_norms)
            bound += prep.b_abs
            out[pix], left = _screen(sums[pix], bound, n_cols + 1)
            r, ch = np.nonzero(left)
            if r.size:
                terms = w64[ch] * cols[r]
                if prep.order is not None:
                    terms = terms[:, prep.order]
                out[pix[r], ch] = _fixed_order(b64[ch], terms)
    return np.ascontiguousarray(out.T)


def conv_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Spatial convolution over every output pixel (see _conv_at)."""
    out_h, out_w = _check_conv(input, spec)
    return FeatureMap(_conv_at(input, spec).reshape(-1, out_h, out_w))


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
        out[:, idx_y, idx_x] = _conv_at(input, spec, (idx_y, idx_x))

    copied = int(bitmap.sum()) * out_ch
    computed = idx_y.size * out_ch * in_ch * k * k
    return FeatureMap(out), computed, copied


def pool_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Max (default) or average pooling over a square window.

    Max ignores padding (pad value is -inf) and runs in float32: the max
    of float32 values is one of them, so it is exact and stores that
    value's bits.  NaNs propagate, stored quiet (bit 22 set), as a cast
    through float64 stores them.  Averaging zero-pads and always divides
    by k*k, window terms accumulated in float64 in (row, col) order.
    """
    k, s, p = spec.kernel, spec.stride, spec.pad
    out_h, out_w = _window_dims(spec, input.height, input.width)
    if spec.pool_mode == "max":
        padded = _pad_input(input.data, p, fill=-np.inf)
        acc = None
        for ky in range(k):
            for kx in range(k):
                patch = padded[:, ky:ky + s * out_h:s, kx:kx + s * out_w:s]
                acc = patch.copy() if acc is None else np.maximum(acc, patch)
        nan = np.isnan(acc)
        if nan.any():
            acc.view(np.uint32)[nan] |= np.uint32(0x00400000)
        return FeatureMap(acc)
    if spec.pool_mode == "avg":
        padded = _pad_input(input.data.astype(np.float64), p)
        acc = np.zeros((input.channels, out_h, out_w), dtype=np.float64)
        with np.errstate(invalid="ignore"):   # inf - inf is NaN, not a warning
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
    # Huge alpha or beta can overflow the denominator (its quotient is then
    # 0) or underflow it to 0; neither may warn midway through a stream.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = np.power(spec.norm_bias + (spec.alpha / size) * acc, spec.beta)
        return FeatureMap((x64 / denom).astype(np.float32))


def fc_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """Dense layer over the flattened (channel-major) input.

    It is a 1x1 convolution of one pixel whose channels are the input's
    values in that order (fc specs keep kernel 1, stride 1 and pad 0), so
    _conv_at computes it: each output is the float32 of its bias plus its
    weight*input terms added one at a time in flattened input order.
    """
    _require_weights(spec)
    n = spec.weights.shape[1]
    if input.data.size != n:
        raise ValueError(f"layer {spec.name!r}: fc expects {n} inputs, "
                         f"got {input.data.size}")
    column = FeatureMap(input.data.reshape(-1, 1, 1))
    return FeatureMap(_conv_at(column, spec).reshape(-1, 1, 1))


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
    _concat_out(None, [fm.data.shape for fm in inputs])
    return FeatureMap(np.concatenate([fm.data for fm in inputs], axis=0))


def elementwise_forward(input: FeatureMap, spec: LayerSpec) -> FeatureMap:
    """scale: x * factor; bias: x + value.  Math in float64, stored
    float32; results beyond the float32 range store as infinities."""
    x64 = input.data.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.op == "scale":
            return FeatureMap((x64 * spec.factor).astype(np.float32))
        if spec.op == "bias":
            return FeatureMap((x64 + spec.value).astype(np.float32))
    raise ValueError(f"not an elementwise op: {spec.op!r}")


Dims = tuple[int, int, int]


def _same_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    return in_dims[0]


def _conv_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    out_h, out_w = _window_dims(spec, *in_dims[0][1:])
    if spec.out_channels < 1:
        raise ValueError("conv needs out_ch >= 1")
    return spec.out_channels, out_h, out_w


def _pool_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    return (in_dims[0][0], *_window_dims(spec, *in_dims[0][1:]))


def _fc_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    if spec.out_features < 1:
        raise ValueError("fc needs out >= 1")
    return spec.out_features, 1, 1


def _conv_params(spec: LayerSpec, in_dims: list[Dims]) -> tuple[tuple, tuple]:
    return (spec.out_channels, in_dims[0][0], spec.kernel, spec.kernel), (spec.out_channels,)


def _fc_params(spec: LayerSpec, in_dims: list[Dims]) -> tuple[tuple, tuple]:
    return (spec.out_features, math.prod(in_dims[0])), (spec.out_features,)


def _concat_out(spec: LayerSpec, in_dims: list[Dims]) -> Dims:
    hw = {(h, w) for _, h, w in in_dims}
    if len(hw) != 1:
        raise ValueError(f"concat inputs disagree on spatial dims: {sorted(hw)}")
    (h, w), = hw
    return sum(c for c, _, _ in in_dims), h, w


class Key(NamedTuple):
    """A model-text key: the LayerSpec field it sets, the type its value
    parses as, and its default (None for a required key)."""

    field: str
    type: type
    default: object = None


@dataclass(frozen=True)
class LayerOp:
    """Everything the package knows about one layer op.

    keys maps the op's model-text keys, in serialization order, to their
    Key.  dims maps the spec and its input dims to the output dims,
    raising ValueError on impossible geometry; params, set only for ops
    with weights, maps them to the (weights, biases) shapes.  forward runs
    the layer; it names its kernel through this module's globals when
    called, so a kernel replaced on the module (as tracing and tests do)
    is the one that runs.
    """

    keys: dict[str, Key]
    layer_type: LayerType
    dims: Callable[[LayerSpec, list[Dims]], Dims]
    forward: Callable[[LayerSpec, list[FeatureMap]], FeatureMap]
    params: Callable[[LayerSpec, list[Dims]], tuple[tuple, tuple]] | None = None


_WINDOW_KEYS = {"k": Key("kernel", int), "s": Key("stride", int, 1), "p": Key("pad", int, 0)}

OPS: dict[str, LayerOp] = {
    "conv": LayerOp({**_WINDOW_KEYS, "out_ch": Key("out_channels", int)},
                    LayerType.CONVOLUTION, _conv_out,
                    lambda spec, xs: conv_forward(xs[0], spec), _conv_params),
    "pool": LayerOp({**_WINDOW_KEYS, "mode": Key("pool_mode", str, "max")},
                    LayerType.POOLING, _pool_out, lambda spec, xs: pool_forward(xs[0], spec)),
    "relu": LayerOp({}, LayerType.ELEMENTWISE, _same_out,
                    lambda spec, xs: relu_forward(xs[0])),
    "lrn": LayerOp({"r": Key("radius", int), "alpha": Key("alpha", float, 1e-4),
                    "beta": Key("beta", float, 0.75), "bias": Key("norm_bias", float, 1.0)},
                   LayerType.ELEMENTWISE, _same_out, lambda spec, xs: lrn_forward(xs[0], spec)),
    "fc": LayerOp({"out": Key("out_features", int)}, LayerType.FULLY_CONNECTED, _fc_out,
                  lambda spec, xs: fc_forward(xs[0], spec), _fc_params),
    "softmax": LayerOp({}, LayerType.ELEMENTWISE, _same_out,
                       lambda spec, xs: softmax_forward(xs[0])),
    "concat": LayerOp({}, LayerType.CONCAT, _concat_out,
                      lambda spec, xs: concat_forward(xs)),
    "scale": LayerOp({"factor": Key("factor", float)}, LayerType.ELEMENTWISE, _same_out,
                     lambda spec, xs: elementwise_forward(xs[0], spec)),
    "bias": LayerOp({"value": Key("value", float)}, LayerType.ELEMENTWISE, _same_out,
                    lambda spec, xs: elementwise_forward(xs[0], spec)),
}


class Session:
    """Stateful inference over one frame sequence.

    Single-threaded; owns its CacheStore exclusively.  With cache_enabled
    False every frame runs the plain full forward (each frame is a flush
    and nothing is retained).  With it True the model input must hold at
    least one matcher block, or no frame could ever be matched.  Every
    conv and fc layer must hold float32 weights and biases of the shapes
    ModelGraph.param_shapes gives, mean must give one value or one per
    input channel, and mean and scale must be finite; all of it is checked
    here, before any frame.  A Session computes with the weights its graph
    held when the Session was built: it keeps its own shallow copies of
    the graph's layers and prepares the conv and fc copies then, leaving
    the caller's specs and arrays as they were.

    A cache-assisted frame is matched with the cache's anchor (the last
    searched match, kept across expiry flushes) as prior: it is verified
    at the anchor's motion first and searched only when its coverage falls
    below matching.PRIOR_KEEP of the anchor's.  An anchor that covered less
    than matching.PRIOR_MIN predicts nothing.  A scene cut leaves no
    anchor: the matcher's cut gate returns an empty match there,
    unsearched, and a match that covers nothing clears the anchor.  So the
    next frame searches, and a shot that continues after a cut is reused
    from its second frame on, as without prediction.  A conv with no
    mappings to copy runs conv_forward, as on a flush.

    last_match is None after a flush, and after a cache-assisted frame it
    is the MatchResult that frame's reuse came from (its match_ratio is
    the frame's FrameMetrics.match_ratio); a kept prediction has
    stats.searches == 0 and match_ratio > 0, a cut searches == 0 and
    match_ratio == 0.  It is set only when the frame finishes.
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
        for spec, *shapes in graph.param_shapes():
            _require_weights(spec, shapes)
        self._layers = [copy.copy(spec) for spec in graph.layers]
        for spec in self._layers:
            if OPS[spec.op].params:
                spec.prepared = _prepare_weights(spec)
        self.cache = CacheStore(expire_n=expire_n)
        self.cache_enabled = cache_enabled
        self.mean, self.scale = _preprocess_args(mean, scale, graph.input_dims[0])
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
        for spec in self._layers:
            inputs = [blobs[b] for b in spec.in_blobs]
            if spec.op == "concat":
                out_maps = concat_mappings([blob_maps[b] for b in spec.in_blobs])
            else:
                out_maps = propagate_mappings(blob_maps[spec.in_blobs[0]], spec.geom)
            if spec.op != "conv":
                out = OPS[spec.op].forward(spec, inputs)
            else:
                total = self._totals[spec.name]
                if not out_maps:
                    out, macs, copied = conv_forward(inputs[0], spec), total, 0
                else:
                    stored = self.cache.conv_outputs.get(spec.name)
                    if stored is None:
                        raise RuntimeError(f"no cached output for layer {spec.name!r}")
                    out, macs, copied = conv_forward_cached(inputs[0], spec, stored, out_maps)
                per_layer.append(ConvLayerMacs(spec.name, macs, copied, total,
                                               inputs[0].channels, spec.kernel))
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
