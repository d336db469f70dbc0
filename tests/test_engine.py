import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framecache import engine
from framecache import (FeatureMap, Frame, LayerSpec, MatcherConfig, Rect,
                        RegionMapping, Session, concat_forward, conv_forward,
                        conv_forward_cached, elementwise_forward, fc_forward,
                        load_weights, lrn_forward, parse_model, pool_forward,
                        preprocess, random_weights, relu_forward,
                        softmax_forward, synth_sequence)
from framecache.matching import PRIOR_MIN, PSNR_MAX

import reference


def fmap(arr) -> FeatureMap:
    return FeatureMap(np.asarray(arr, dtype=np.float32))


def rand_map(seed, c, h, w, lo=-2.0, hi=2.0) -> FeatureMap:
    rng = np.random.default_rng(seed)
    return fmap(rng.uniform(lo, hi, size=(c, h, w)))


def bits(arr) -> np.ndarray:
    """float32 bit patterns: unlike value equality, tells -0.0 from +0.0
    and compares NaNs."""
    return np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)


def conv_spec(k, out_ch, s=1, p=0, *, in_ch, seed=0, name="c") -> LayerSpec:
    rng = np.random.default_rng(seed)
    spec = LayerSpec(name, "conv", ["data"], "out", kernel=k, stride=s, pad=p,
                     out_channels=out_ch)
    spec.weights = rng.normal(size=(out_ch, in_ch, k, k)).astype(np.float32)
    spec.biases = rng.normal(size=out_ch).astype(np.float32)
    return spec


class TestPreprocess:
    def test_identity(self):
        f = Frame(np.arange(12, dtype=np.uint8).reshape(1, 3, 4))
        out = preprocess(f)
        assert out.data.dtype == np.float32
        assert np.array_equal(out.data, f.data.astype(np.float32))

    def test_scalar_mean_scale(self):
        f = Frame(np.full((1, 2, 2), 255, dtype=np.uint8))
        out = preprocess(f, mean=104.0, scale=0.017)
        assert out.data[0, 0, 0] == np.float32((255.0 - 104.0) * 0.017)
        assert abs(out.data[0, 0, 0] - 2.567) < 1e-3

    def test_per_channel_mean(self):
        f = Frame(np.full((3, 2, 2), 100, dtype=np.uint8))
        out = preprocess(f, mean=[10.0, 20.0, 30.0])
        assert np.allclose(out.data[0], 90.0)
        assert np.allclose(out.data[1], 80.0)
        assert np.allclose(out.data[2], 70.0)

    def test_centered_range(self):
        f = Frame(np.array([[[0, 255]]], dtype=np.uint8))
        out = preprocess(f, mean=127.5, scale=1.0 / 127.5)
        assert out.data[0, 0, 0] == np.float32(-1.0)
        assert out.data[0, 0, 1] == np.float32(1.0)

    def test_every_sample_value_bitwise(self):
        # Every 8-bit value in each of three channels, with the benchmark's
        # per-channel mean and scale: the float32 of (v - mean[c]) * scale
        # taken in float64, bit for bit.
        mean = [123.68, 116.78, 103.94]
        f = Frame(np.broadcast_to(np.arange(256, dtype=np.uint8), (3, 1, 256)))
        out = preprocess(f, mean=mean, scale=0.017)
        want = np.empty((3, 1, 256), dtype=np.float32)
        for c in range(3):
            for v in range(256):
                want[c, 0, v] = np.float32((np.float64(v) - mean[c]) * 0.017)
        assert np.array_equal(bits(out.data), bits(want))


# (in channels, height, width, kernel, out channels, stride, pad).  The
# plane interleaves one channel at a time below 8 channels and by one
# transposed copy from 8 on; (3, 23, 27, 11, ...) has conv1's geometry.
CONV_SHAPES = [
    (1, 5, 5, 3, 1, 1, 0),
    (3, 8, 7, 3, 4, 1, 1),
    (2, 9, 9, 5, 3, 2, 2),
    (4, 6, 10, 1, 2, 1, 0),
    (1, 7, 7, 3, 2, 3, 0),
    (2, 11, 8, 4, 3, 2, 1),
    (3, 23, 27, 11, 2, 4, 0),
    (9, 6, 5, 3, 3, 2, 1),
]

# Finite float32 values from zero and subnormals through 1e-30 up to 2**100
# (about 1.3e30) for weights, up to 2**24 for inputs, so that most
# products and sums stay inside the float32 range.
WEIGHT_VALUES = st.floats(min_value=-(2.0 ** 100), max_value=2.0 ** 100, width=32)
INPUT_VALUES = st.floats(min_value=-(2.0 ** 24), max_value=2.0 ** 24, width=32)


@st.composite
def conv_cases(draw):
    """(input map, spec) on shapes small enough for conv_naive.  Half the
    cases stack the input on itself and the weights on their negation, so
    every window's terms cancel exactly to the bias, which is then often
    zero; some inputs hold infinities or NaNs."""
    in_ch, k, s, p, out_ch = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                              draw(st.integers(1, 2)), draw(st.integers(0, 1)),
                              draw(st.integers(1, 3)))
    h, w = draw(st.integers(max(1, k - 2 * p), 5)), draw(st.integers(max(1, k - 2 * p), 5))
    x = draw(arrays(np.float32, (in_ch, h, w), elements=INPUT_VALUES, fill=st.nothing()))
    wt = draw(arrays(np.float32, (out_ch, in_ch, k, k), elements=WEIGHT_VALUES,
                     fill=st.nothing()))
    b = draw(arrays(np.float32, out_ch, elements=WEIGHT_VALUES, fill=st.nothing()))
    if draw(st.booleans()):
        x = np.concatenate([x, x])
        wt = np.concatenate([wt, -wt], axis=1)
        b = draw(st.sampled_from([b, np.zeros_like(b), -np.zeros_like(b)]))
    for _ in range(draw(st.integers(0, 2))):
        spot = tuple(draw(st.integers(0, n - 1)) for n in x.shape)
        x[spot] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    spec = conv_spec(k, out_ch, s, p, in_ch=x.shape[0])
    spec.weights, spec.biases = wt, b
    return fmap(x), spec


class TestConvForward:
    @pytest.mark.parametrize("c,h,w,k,out_ch,s,p", CONV_SHAPES)
    def test_matches_naive_bitwise(self, c, h, w, k, out_ch, s, p):
        x = rand_map(hash((c, h, w, k)) % 2**32, c, h, w)
        spec = conv_spec(k, out_ch, s, p, in_ch=c, seed=k + s)
        got = conv_forward(x, spec)
        want = reference.conv_naive(x.data, spec.weights, spec.biases, s, p)
        assert got.data.shape == want.shape
        assert np.array_equal(bits(got.data), bits(want))
        # With nothing to reuse the cached entry point computes every
        # pixel, and copies none of the (here poisoned) cached values.
        stale = FeatureMap(np.full_like(want, np.nan))
        cached, computed, copied = conv_forward_cached(x, spec, stale, [])
        assert np.array_equal(bits(cached.data), bits(want))
        assert (computed, copied) == (want.size * c * k * k, 0)

    @pytest.mark.parametrize("c,h,w,k,out_ch,s,p", CONV_SHAPES)
    def test_fixed_order_fallback_across_chunks(self, monkeypatch, c, h, w, k, out_ch, s, p):
        # A screen that settles nothing sends every entry down the fixed-order
        # path, and chunks of three pixels split every row of the output.
        def settle_nothing(sums, bound, n):
            return sums.astype(np.float32), np.ones(sums.shape, dtype=bool)

        monkeypatch.setattr(engine, "_screen", settle_nothing)
        monkeypatch.setattr(engine, "_CHUNK_ELEMS", 3 * c * k * k)
        x = rand_map(hash((c, h, w, k)) % 2**32, c, h, w)
        spec = conv_spec(k, out_ch, s, p, in_ch=c, seed=k + s)
        want = bits(reference.conv_naive(x.data, spec.weights, spec.biases, s, p))
        assert np.array_equal(bits(conv_forward(x, spec).data), want)
        stale = FeatureMap(np.full(want.shape, np.nan, dtype=np.float32))
        assert np.array_equal(bits(conv_forward_cached(x, spec, stale, [])[0].data), want)

    @pytest.mark.parametrize("out_h,out_w,step", [(4, 5, 3), (4, 5, 5), (4, 5, 11),
                                                  (4, 5, 100), (1, 1, 1), (3, 7, 1)])
    def test_row_blocks_tile_the_output_in_order(self, out_h, out_w, step):
        # The full path's gather holds at most step pixels' windows at once.
        pixels = np.arange(out_h * out_w).reshape(out_h, out_w)
        blocks = [pixels[ys, xs].ravel() for ys, xs in engine._row_blocks(out_h, out_w, step)]
        assert all(0 < b.size <= step for b in blocks)
        assert np.array_equal(np.concatenate(blocks), pixels.ravel())

    def test_all_zero_window_stores_positive_zero(self, monkeypatch):
        # Zero inputs (and zero padding) under zero biases: every sum is an
        # exact zero, which no bound settles, and the fixed-order path
        # stores +0.0 however the weights' signs make the terms -0.0.
        fixed = fixed_order_entries(monkeypatch)
        x = fmap(np.zeros((2, 4, 4)))
        spec = conv_spec(3, 3, 1, 1, in_ch=2)
        spec.biases = np.zeros(3, dtype=np.float32)
        got = bits(conv_forward(x, spec).data)
        assert sum(fixed) == got.size
        assert np.array_equal(got, bits(reference.conv_naive(x.data, spec.weights,
                                                              spec.biases, 1, 1)))
        assert not got.any()

    @settings(max_examples=300, deadline=None)
    @given(conv_cases())
    def test_matches_naive_on_extreme_values(self, case):
        x, spec = case
        g = spec.geom
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference.conv_naive(x.data, spec.weights, spec.biases, g.stride, g.pad)
        assert np.array_equal(bits(conv_forward(x, spec).data), bits(want))

    def test_one_by_one_doubles(self):
        x = rand_map(7, 2, 4, 4)
        spec = conv_spec(1, 2, in_ch=2)
        spec.weights = np.zeros((2, 2, 1, 1), dtype=np.float32)
        spec.weights[0, 0] = 2.0
        spec.weights[1, 1] = 2.0
        spec.biases = np.zeros(2, dtype=np.float32)
        out = conv_forward(x, spec)
        assert np.array_equal(out.data, x.data * 2.0)

    def test_identity_kernel(self):
        x = rand_map(8, 1, 6, 6)
        spec = conv_spec(3, 1, 1, 1, in_ch=1)
        spec.weights = np.zeros((1, 1, 3, 3), dtype=np.float32)
        spec.weights[0, 0, 1, 1] = 1.0
        spec.biases = np.zeros(1, dtype=np.float32)
        out = conv_forward(x, spec)
        assert np.array_equal(out.data, x.data)

    def test_bias_only(self):
        x = rand_map(9, 1, 4, 4)
        spec = conv_spec(3, 2, in_ch=1)
        spec.weights = np.zeros((2, 1, 3, 3), dtype=np.float32)
        spec.biases = np.array([1.5, -0.25], dtype=np.float32)
        out = conv_forward(x, spec)
        assert np.all(out.data[0] == np.float32(1.5))
        assert np.all(out.data[1] == np.float32(-0.25))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv_forward(rand_map(0, 3, 5, 5), conv_spec(3, 1, in_ch=2))


@st.composite
def wide_conv_cases(draw):
    """(input map, spec, rect) with up to 40 input channels, kernels up to
    11 and at most 3x3 output pixels, so that conv_naive stays quick.
    Half the inputs pass a ReLU first.  Half the cases stack the input on
    itself and the weights on their negation, with zero biases, so that
    every window cancels to a residue that only the fixed order fixes;
    then one input value is +-1e30 or +-inf.  rect is a rectangle of
    output pixels for the cached path to copy."""
    cancel = draw(st.booleans())
    c = 2 * draw(st.integers(1, 20)) if cancel else draw(st.integers(1, 40))
    k, out_ch = draw(st.integers(1, 11)), draw(st.integers(1, 2))
    s, p = draw(st.integers(1, 3)), draw(st.integers(0, min(2, k - 1)))
    out_h, out_w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = (max(1, (n - 1) * s + k - 2 * p) for n in (out_h, out_w))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = conv_spec(k, out_ch, s, p, in_ch=c, seed=int(rng.integers(2**32)))
    x = rng.uniform(-2.0, 2.0, size=(c, h, w))
    if cancel:
        x[c // 2:] = x[:c // 2]
        spec.weights[:, c // 2:] = -spec.weights[:, :c // 2]
        spec.biases = np.zeros(out_ch, dtype=np.float32)
    if draw(st.booleans()):
        x = np.maximum(x, 0.0)
    x[tuple(draw(st.integers(0, n - 1)) for n in x.shape)] = \
        draw(st.sampled_from([1e30, -1e30, np.inf, -np.inf]))
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    y0, x0 = draw(st.integers(0, oh - 1)), draw(st.integers(0, ow - 1))
    rect = Rect(x0, y0, draw(st.integers(0, ow - x0)), draw(st.integers(0, oh - y0)))
    return fmap(x), spec, rect


class TestWideWindows:
    """The kernel's channels-last im2col rows, and the permutation back
    to the fixed order, over many channels and wide kernels."""

    @settings(max_examples=100, deadline=None)
    @given(wide_conv_cases())
    def test_both_entry_points_match_naive(self, case):
        x, spec, rect = case
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference.conv_naive(x.data, spec.weights, spec.biases, spec.stride,
                                        spec.pad)
        assert np.array_equal(bits(conv_forward(x, spec).data), bits(want))
        # Copy rect from the oracle's own output and compute the rest.
        got, _, copied = conv_forward_cached(x, spec, FeatureMap(want),
                                             [RegionMapping(dst=rect, src=rect)])
        assert copied == rect.area * len(want)
        assert np.array_equal(bits(got.data), bits(want))


class TestPoolForward:
    def pool_spec(self, k, s=1, p=0, mode="max"):
        return LayerSpec("p", "pool", ["data"], "out", kernel=k, stride=s, pad=p,
                         pool_mode=mode)

    def test_max_2x2(self):
        x = fmap(np.arange(16).reshape(1, 4, 4))
        out = pool_forward(x, self.pool_spec(2, 2))
        assert np.array_equal(out.data[0], [[5, 7], [13, 15]])

    def test_max_padding_never_wins(self):
        x = fmap(np.full((1, 2, 2), -3.0))
        out = pool_forward(x, self.pool_spec(3, 1, 1))
        assert np.all(out.data == np.float32(-3.0))

    def test_avg_zero_pad(self):
        x = fmap(np.full((1, 2, 2), 4.0))
        out = pool_forward(x, self.pool_spec(2, 1, 1, "avg"))
        # corner windows hold one real value and three zeros
        assert out.data[0, 0, 0] == np.float32(1.0)
        assert out.data[0, 1, 1] == np.float32(4.0)

    def test_max_stores_an_input_of_its_window(self):
        # Max pooling runs in float32: every output is the bit pattern of
        # one of its window's inputs, signed zeros and NaN payloads (quiet
        # or signaling, of either sign) included, and a window holding a
        # NaN stores a NaN, quieted as a cast through float64 quiets it.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 9, 8)).astype(np.float32)
        spots = rng.random(x.shape)
        x[spots < 0.1] = -0.0
        x[spots > 0.95] = np.inf
        nan = (spots > 0.1) & (spots < 0.2)
        payloads = rng.integers(0x7f800001, 0x80000000, size=nan.sum(), dtype=np.uint32)
        signs = np.where(rng.random(nan.sum()) < 0.5, np.uint32(1 << 31), np.uint32(0))
        x.view(np.uint32)[nan] = payloads | signs
        got = pool_forward(fmap(x), self.pool_spec(3, 2, 1)).data
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
        quiet = np.where(np.isnan(padded), np.uint32(0x00400000), np.uint32(0))
        with np.errstate(invalid="ignore"):
            round_trip = padded.astype(np.float64).astype(np.float32)
        assert np.array_equal(bits(round_trip), bits(padded) | quiet)
        for c, oy, ox in np.ndindex(got.shape):
            window = np.s_[c, 2 * oy:2 * oy + 3, 2 * ox:2 * ox + 3]
            assert bits(got[c, oy, ox]) in bits(padded[window]) | quiet[window]
            assert np.isnan(got[c, oy, ox]) == np.isnan(padded[window]).any()

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("k,s,p", [(2, 2, 0), (3, 1, 1), (3, 2, 1), (4, 3, 0)])
    def test_matches_naive(self, mode, k, s, p):
        x = rand_map(k * 10 + s, 3, 9, 8)
        got = pool_forward(x, self.pool_spec(k, s, p, mode))
        want = reference.pool_naive(x.data, k, s, p, mode)
        assert np.array_equal(got.data, want)


class TestLrnForward:
    def lrn_spec(self, r, alpha=1e-4, beta=0.75, bias=1.0):
        return LayerSpec("n", "lrn", ["data"], "out", radius=r, alpha=alpha, beta=beta,
                         norm_bias=bias)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            self.lrn_spec(-1)

    @pytest.mark.parametrize("c,r", [(1, 0), (3, 1), (5, 2), (4, 5)])
    def test_matches_naive(self, c, r):
        x = rand_map(c * 7 + r, c, 6, 5)
        got = lrn_forward(x, self.lrn_spec(r))
        want = reference.lrn_naive(x.data, r, 1e-4, 0.75, 1.0)
        assert np.array_equal(got.data, want)

    def test_window_is_cross_channel(self):
        # radius 1, three channels: middle channel sees all three squares
        x = fmap(np.ones((3, 1, 1)))
        out = lrn_forward(x, self.lrn_spec(1, alpha=3.0, beta=1.0, bias=1.0))
        # size = 3, middle sum = 3 -> denom = 1 + (3/3)*3 = 4
        assert abs(out.data[1, 0, 0] - 0.25) < 1e-6
        # edge channels see two squares -> denom = 1 + (3/3)*2 = 3
        assert abs(out.data[0, 0, 0] - 1.0 / 3.0) < 1e-6


def fc_layer(weights, biases) -> LayerSpec:
    spec = LayerSpec("f", "fc", ["data"], "out", out_channels=len(biases))
    spec.weights = np.asarray(weights, dtype=np.float32)
    spec.biases = np.asarray(biases, dtype=np.float32)
    return spec


@st.composite
def fc_cases(draw):
    """(input map, weights, biases).  Half the cases mirror every row so
    its products cancel exactly, and then often zero the bias too: the
    fixed order then stores its rounding residue, or +0.0 where it sums
    to exactly zero."""
    out_f = draw(st.integers(1, 5))
    in_f = draw(st.integers(1, 12))
    w = draw(arrays(np.float32, (out_f, in_f), elements=WEIGHT_VALUES, fill=st.nothing()))
    x = draw(arrays(np.float32, in_f, elements=INPUT_VALUES, fill=st.nothing()))
    b = draw(arrays(np.float32, out_f, elements=WEIGHT_VALUES, fill=st.nothing()))
    if draw(st.booleans()):
        w = np.concatenate([w, -w[:, ::-1]], axis=1)
        x = np.concatenate([x, x[::-1]])
        b = draw(st.sampled_from([b, np.zeros_like(b), -np.zeros_like(b)]))
    return fmap(x.reshape(-1, 1, 1)), w, b


def fc_naive(x, w, b) -> np.ndarray:
    """The fc oracle: conv_naive over the flattened input as the channels
    of one pixel, with the (out, n) weights as (out, n, 1, 1) kernels."""
    w = np.asarray(w, dtype=np.float32)
    flat = np.asarray(x, dtype=np.float32).reshape(-1, 1, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        return reference.conv_naive(flat, w.reshape(len(w), -1, 1, 1),
                                    np.asarray(b, dtype=np.float32), 1, 0)


class TestFcForward:
    def fc_spec(self, out_features, in_features, seed=0):
        rng = np.random.default_rng(seed)
        return fc_layer(rng.normal(size=(out_features, in_features)),
                        rng.normal(size=out_features))

    def test_matches_naive_bitwise(self):
        x = rand_map(3, 2, 3, 4)
        spec = self.fc_spec(5, 24)
        got = fc_forward(x, spec)
        assert got.data.shape == (5, 1, 1)
        want = fc_naive(x.data, spec.weights, spec.biases)
        assert np.array_equal(bits(got.data), bits(want))

    @settings(max_examples=300, deadline=None)
    @given(fc_cases())
    def test_matches_naive_on_extreme_values(self, case):
        x, w, b = case
        got = bits(fc_forward(x, fc_layer(w, b)).data)
        assert np.array_equal(got, bits(fc_naive(x.data, w, b)))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=2.0 ** -50, max_value=2.0 ** 50, width=32),
           st.sampled_from([0.0, 2.0 ** -60, -(2.0 ** -60), 2.0 ** -90, -(2.0 ** -90)]))
    def test_float32_halfway_sums(self, base, nudge):
        # bias + half a float32 ulp sits exactly between two float32 values
        # (ties to even); a nudge below float64 precision rounds away in
        # float64 first, so the stored value is the tie's, not the nudge's.
        # Deciding from the exact sum in one rounding would differ.
        half_ulp = float(np.spacing(np.float32(base))) / 2
        w = np.array([[half_ulp, nudge * base]])
        x = np.ones((2, 1, 1))
        b = np.array([base])
        got = bits(fc_forward(fmap(x), fc_layer(w, b)).data)
        assert np.array_equal(got, bits(fc_naive(x, w, b)))
        assert np.array_equal(got.ravel(), bits([base + half_ulp]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_full_window_conv(self, data):
        # fc over a (c, h, h) input is the convolution whose one window is
        # the whole input: same terms, same order, so the same bits.
        c, h, out = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                     data.draw(st.integers(1, 3)))
        x = data.draw(arrays(np.float32, (c, h, h), elements=INPUT_VALUES, fill=st.nothing()))
        w = data.draw(arrays(np.float32, (out, c, h, h), elements=WEIGHT_VALUES,
                             fill=st.nothing()))
        b = data.draw(arrays(np.float32, out, elements=WEIGHT_VALUES, fill=st.nothing()))
        if data.draw(st.booleans()):
            x[tuple(data.draw(st.integers(0, n - 1)) for n in x.shape)] = \
                data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        conv = conv_spec(h, out, in_ch=c)
        conv.weights, conv.biases = w, b
        got = fc_forward(fmap(x), fc_layer(w.reshape(out, -1), b))
        assert np.array_equal(bits(got.data), bits(conv_forward(fmap(x), conv).data))

    def test_runs_without_the_conv_entry_points(self, monkeypatch):
        # fc calls the kernel itself, never the conv entry points, so time
        # traced around those names is conv time only.
        def refuse(*args):
            raise AssertionError("fc went through a conv entry point")

        monkeypatch.setattr(engine, "conv_forward", refuse)
        monkeypatch.setattr(engine, "conv_forward_cached", refuse)
        x = rand_map(5, 2, 2, 2)
        spec = self.fc_spec(3, 8)
        got = engine.OPS["fc"].forward(spec, [x])
        assert np.array_equal(bits(got.data), bits(fc_naive(x.data, spec.weights,
                                                            spec.biases)))

    def test_overflow_to_infinity(self):
        w = np.array([[3e38, 3e38], [-3e38, -3e38], [3e38, -3e38]])
        x = fmap(np.ones((2, 1, 1)))
        got = fc_forward(x, fc_layer(w, np.zeros(3))).data.ravel()
        assert np.array_equal(bits(got), bits([np.inf, -np.inf, 0.0]))

    def test_non_finite_terms_follow_the_fixed_order(self):
        spec = fc_layer([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
        nan_in = fmap(np.array([1.0, np.inf]).reshape(2, 1, 1))   # inf * 0 is NaN
        want = fc_naive(nan_in.data, spec.weights, spec.biases)
        assert np.array_equal(bits(fc_forward(nan_in, spec).data), bits(want))
        # Row 0 sums inf - inf to NaN, with the sign bit the fixed order's
        # invalid operation gives it, and row 1 sums to +inf.
        spec = fc_layer([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [0.0, 0.0])
        both = fmap(np.array([np.inf, -np.inf, 2.0]).reshape(3, 1, 1))
        want = fc_naive(both.data, spec.weights, spec.biases)
        got = fc_forward(both, spec).data.ravel()
        assert np.array_equal(bits(got), bits(want.ravel()))
        assert np.isnan(got[0]) and got[1] == np.inf

    def test_model_sized_layer(self):
        # fc1 of the 227x227 benchmark model: 256 outputs over 2304 inputs.
        rng = np.random.default_rng(4)
        spec = fc_layer(rng.normal(0.0, 0.02, size=(256, 2304)), rng.normal(size=256))
        x = fmap(np.maximum(rng.normal(size=(256, 3, 3)), 0.0))
        want = fc_naive(x.data, spec.weights, spec.biases)
        assert np.array_equal(bits(fc_forward(x, spec).data), bits(want))

    def test_cancelling_row_takes_exact_path(self, monkeypatch):
        # Row 1 cancels to exactly zero: its interval straddles -0.0/+0.0
        # under every bound, so it alone is left unsettled, summed in the
        # fixed order, and must store +0.0.
        screen = engine._screen
        calls = captured_screens(monkeypatch)
        fixed = fixed_order_entries(monkeypatch)
        w = [[1.0, 2.0, 3.0], [0.1, -0.1, 0.0], [-4.0, 0.5, 1.0]]
        x = fmap(np.array([1.0, 1.0, 2.0]).reshape(3, 1, 1))
        got = fc_forward(x, fc_layer(w, [0.5, -0.0, 0.25])).data.ravel()
        assert calls
        for s, a, n in calls:
            assert screen(s, a, n)[1].ravel().tolist() == [False, True, False]
        assert fixed == [1]
        assert np.array_equal(bits(got), bits([9.5, 0.0, -1.25]))

    def test_flatten_order_is_channel_row_col(self):
        x = fmap(np.arange(8).reshape(2, 2, 2))
        spec = self.fc_spec(1, 8)
        spec.weights = np.zeros((1, 8), dtype=np.float32)
        spec.weights[0, 5] = 1.0  # channel 1, row 0, col 1 -> value 5
        spec.biases = np.zeros(1, dtype=np.float32)
        assert fc_forward(x, spec).data[0, 0, 0] == np.float32(5.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            fc_forward(rand_map(0, 2, 3, 3), self.fc_spec(4, 10))


def captured_screens(patch: pytest.MonkeyPatch, settle: bool = True) -> list:
    """Patch engine._screen to record a copy of every (sums, bound, n) it
    gets.  With settle False the patched screen settles nothing, so the
    kernel hands every bound it computes over every pixel to the screen,
    each bound's rows in pixel order, and sums every entry in the fixed
    order."""
    calls = []
    screen = engine._screen

    def capture(s, a, n):
        calls.append((s.copy(), a.copy(), n))
        if not settle:
            return s.astype(np.float32), np.ones(s.shape, dtype=bool)
        return screen(s, a, n)

    patch.setattr(engine, "_screen", capture)
    return calls


def fixed_order_entries(patch: pytest.MonkeyPatch) -> list:
    """Patch engine._fixed_order to record how many entries each call sums:
    the entries no bound settled."""
    counts = []
    fixed = engine._fixed_order

    def count(b, terms):
        counts.append(len(b))
        return fixed(b, terms)

    patch.setattr(engine, "_fixed_order", count)
    return counts


def conv_windows(x, k, s, p) -> np.ndarray:
    """(pixels, in_ch*k*k) float64 windows in row-major pixel order, each in
    (input channel, kernel row, kernel col) order, as conv_naive sums them."""
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * p, w + 2 * p))
    padded[:, p:p + h, p:p + w] = x
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    return np.array([padded[:, y * s:y * s + k, xx * s:xx * s + k].ravel()
                     for y in range(oh) for xx in range(ow)])


def magnitude_sums(rows, w, b) -> np.ndarray:
    """(rows, out) math.fsum of |b| and the float64 products |w| * |row|."""
    w64, b64 = np.abs(np.asarray(w, np.float64)), np.abs(np.asarray(b, np.float64))
    return np.array([[math.fsum([float(b64[o])] + (w64[o] * np.abs(row)).tolist())
                      for o in range(len(b64))] for row in rows])


@st.composite
def bound_cases(draw):
    """Finite (input map, spec) pairs."""
    in_ch, k, s, p, out_ch = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                              draw(st.integers(1, 2)), draw(st.integers(0, 1)),
                              draw(st.integers(1, 3)))
    h, w = draw(st.integers(max(1, k - 2 * p), 5)), draw(st.integers(max(1, k - 2 * p), 5))
    x = draw(arrays(np.float32, (in_ch, h, w), elements=INPUT_VALUES, fill=st.nothing()))
    wt = draw(arrays(np.float32, (out_ch, in_ch, k, k), elements=WEIGHT_VALUES,
                     fill=st.nothing()))
    b = draw(arrays(np.float32, out_ch, elements=WEIGHT_VALUES, fill=st.nothing()))
    spec = conv_spec(k, out_ch, s, p, in_ch=in_ch)
    spec.weights, spec.biases = wt, b
    return fmap(x), spec


class TestNormBound:
    """Every magnitude bound both kernels hand _screen must be at least the
    correctly rounded sum of the terms' magnitudes, bias included: the
    stage-1 bound, one row shared by every pixel, and the stage-2 bound,
    one row per window.  The screen is patched to settle nothing, so both
    stages run over every pixel of these small inputs in one chunk."""

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_conv_bound_covers_every_window(self, case):
        x, spec = case
        g = spec.geom
        with pytest.MonkeyPatch.context() as patch:
            calls = captured_screens(patch, settle=False)
            conv_forward(x, spec)
        rows = conv_windows(x.data.astype(np.float64), g.kernel, g.stride, g.pad)
        want = magnitude_sums(rows, spec.weights.reshape(len(spec.biases), -1), spec.biases)
        assert len(calls) == 2
        for s, bound, _ in calls:
            assert s.shape == want.shape
            assert np.all(np.broadcast_to(bound, want.shape) >= want)

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_fc_bound_covers_every_row(self, case):
        x, conv = case
        w = conv.weights.reshape(len(conv.biases), -1)
        flat = np.resize(x.data.ravel(), w.shape[1])
        spec = fc_layer(w, conv.biases)
        with pytest.MonkeyPatch.context() as patch:
            calls = captured_screens(patch, settle=False)
            fc_forward(fmap(flat.reshape(-1, 1, 1)), spec)
        want = magnitude_sums([flat.astype(np.float64)], w, spec.biases)
        assert len(calls) == 2
        for s, bound, _ in calls:
            assert s.shape == want.shape
            assert np.all(np.broadcast_to(bound, want.shape) >= want)

    def test_parallel_terms_need_the_margin(self, monkeypatch):
        # Cauchy-Schwarz is tight where |x| and |w| are parallel, and for
        # three ones the float64 sqrt(3) * sqrt(3) is just below 3.  Both
        # stages' bounds are tight here: sqrt(n) * max|x| is the 2-norm.
        calls = captured_screens(monkeypatch, settle=False)
        spec = conv_spec(1, 1, in_ch=3)
        spec.weights = np.ones((1, 3, 1, 1), dtype=np.float32)
        spec.biases = np.zeros(1, dtype=np.float32)
        conv_forward(fmap(np.ones((3, 2, 2))), spec)
        fc_forward(fmap(np.ones((3, 1, 1))), fc_layer(np.ones((1, 3)), [0.0]))
        assert len(calls) == 4
        assert all(np.all(bound >= 3.0) for _, bound, _ in calls)


class TestFloat32Weights:
    """Weights and biases are float32, as the weight blob stores them;
    the kernels and Session reject float64 ones."""

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_conv_forward_rejects_float64(self, field):
        spec = conv_spec(3, 2, in_ch=1)
        setattr(spec, field, getattr(spec, field).astype(np.float64))
        with pytest.raises(ValueError, match="float32"):
            conv_forward(rand_map(0, 1, 5, 5), spec)

    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_fc_forward_rejects_float64(self, field):
        spec = fc_layer(np.ones((2, 4)), np.zeros(2))
        setattr(spec, field, getattr(spec, field).astype(np.float64))
        with pytest.raises(ValueError, match="float32"):
            fc_forward(rand_map(0, 4, 1, 1), spec)

    @pytest.mark.parametrize("layer", ["c1", "f1"])
    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_session_rejects_float64(self, field, layer):
        graph = parse_model(MODEL_TEXT)
        load_weights(random_weights(graph, 0), graph)
        spec = graph.layer(layer)
        setattr(spec, field, getattr(spec, field).astype(np.float64))
        with pytest.raises(ValueError, match="float32"):
            Session(graph)


def weighted_layer(op, seed=0) -> tuple[FeatureMap, LayerSpec]:
    """An input and a conv or fc layer over it with float32 weights."""
    x = rand_map(seed, 2, 7, 6)
    if op == "conv":
        return x, conv_spec(3, 4, 2, 1, in_ch=2, seed=seed)
    rng = np.random.default_rng(seed)
    return x, fc_layer(rng.normal(size=(5, x.data.size)), rng.normal(size=5))


def forward_and_naive(x, spec) -> tuple[np.ndarray, np.ndarray]:
    """Bits of the layer's output and of its reference.conv_naive oracle."""
    if spec.op == "fc":
        return bits(fc_forward(x, spec).data), bits(fc_naive(x.data, spec.weights, spec.biases))
    want = reference.conv_naive(x.data, spec.weights, spec.biases, spec.stride, spec.pad)
    return bits(conv_forward(x, spec).data), bits(want)


class TestConvForwardPreparedWeights:
    """_conv_at reads a layer's weights prepared in float64.  A Session
    prepares them once, on its own copies of the specs; a direct kernel
    call prepares from the spec's current arrays, so it never goes stale."""

    @pytest.mark.parametrize("op", ["conv", "fc"])
    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_reassigned_arrays_are_used(self, op, field):
        x, spec = weighted_layer(op)
        first, _ = forward_and_naive(x, spec)
        setattr(spec, field, getattr(weighted_layer(op, seed=1)[1], field))
        got, want = forward_and_naive(x, spec)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, first)

    @pytest.mark.parametrize("op", ["conv", "fc"])
    def test_in_place_write_reaches_the_next_call(self, op):
        x, spec = weighted_layer(op)
        first, _ = forward_and_naive(x, spec)
        spec.weights[0] = 1.0
        spec.biases += 1.0
        got, want = forward_and_naive(x, spec)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, first)

    @pytest.mark.parametrize("op", ["conv", "fc"])
    def test_deep_copy_is_prepared_again(self, op):
        x, spec = weighted_layer(op)
        first, _ = forward_and_naive(x, spec)
        dup = copy.deepcopy(spec)
        dup.weights *= -2.0
        dup.biases[0] = 7.0
        got, want = forward_and_naive(x, dup)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, first)
        assert np.array_equal(forward_and_naive(x, spec)[0], first)

    @pytest.mark.parametrize("op", ["conv", "fc"])
    def test_weights_viewing_a_writeable_buffer_are_copied(self, op):
        # A Session keeps prepared copies of weights that view a bytearray:
        # later writes through the buffer reach the next direct call, and
        # leave a Session built before them as it was.
        graph = parse_model(MODEL_TEXT)
        load_weights(random_weights(graph, 0), graph)
        spec = graph.layer("c1" if op == "conv" else "f1")
        bufs = [bytearray(a.tobytes()) for a in (spec.weights, spec.biases)]
        spec.weights, spec.biases = (np.frombuffer(buf, np.float32).reshape(a.shape)
                                     for buf, a in zip(bufs, (spec.weights, spec.biases)))
        x = rand_map(0, *graph.blob_dims[spec.in_blobs[0]])
        frame = synth_sequence(1, 32, 32, seed=4)[0]
        session = Session(graph, expire_n=1)
        before = bits(session.run_frame(frame)[0].data)
        first, _ = forward_and_naive(x, spec)
        for buf in bufs:
            buf[:len(buf) // 2] = bytes(len(buf) // 2)
        got, want = forward_and_naive(x, spec)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, first)
        assert np.array_equal(bits(session.run_frame(frame)[0].data), before)
        fresh = Session(graph, expire_n=1).run_frame(frame)[0]
        assert not np.array_equal(bits(fresh.data), before)

    def test_weights_viewing_an_immutable_blob_are_not_copied(self):
        graph = parse_model(MODEL_TEXT)
        blob = random_weights(graph, 0)
        load_weights(blob, graph)
        Session(graph)
        for spec in graph.layers:
            if spec.op in ("conv", "fc"):
                assert np.shares_memory(np.frombuffer(blob, np.uint8), spec.weights)

    @settings(max_examples=100, deadline=None)
    @given(conv_cases(), st.data())
    def test_reassigned_weights_on_extreme_values(self, case, data):
        x, spec = case
        conv_forward(x, spec)
        spec.weights = data.draw(arrays(np.float32, spec.weights.shape,
                                        elements=WEIGHT_VALUES, fill=st.nothing()))
        if data.draw(st.booleans()):
            spec.biases = -spec.biases
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = forward_and_naive(x, spec)
        assert np.array_equal(got, want)

    def test_session_prepares_every_weighted_layer(self, monkeypatch):
        # Building a Session prepares c1, c2 and f1 once each, on its own
        # copies; its frames prepare nothing, a second Session prepares
        # again, and the caller's specs and arrays are left as they were.
        graph = parse_model(MODEL_TEXT)
        load_weights(random_weights(graph, 0), graph)
        weighted = [spec for spec in graph.layers if spec.op in ("conv", "fc")]
        assert [spec.name for spec in weighted] == ["c1", "c2", "f1"]
        arrays_before = [(spec.weights, spec.biases) for spec in weighted]
        flags_before = [(w.flags.writeable, b.flags.writeable) for w, b in arrays_before]
        calls = []
        prepare = engine._prepare_weights
        monkeypatch.setattr(engine, "_prepare_weights",
                            lambda spec: calls.append(spec.name) or prepare(spec))
        session = Session(graph)
        assert calls == ["c1", "c2", "f1"]
        for frame in synth_sequence(3, 32, 32, dx=2, dy=1, seed=4):
            session.run_frame(frame)
        assert calls == ["c1", "c2", "f1"]
        Session(graph)
        assert calls == ["c1", "c2", "f1"] * 2
        for spec, (w, b), flags in zip(weighted, arrays_before, flags_before):
            assert spec.prepared is None
            assert spec.weights is w and spec.biases is b
            assert (w.flags.writeable, b.flags.writeable) == flags


# The conv stack of the 227x227 benchmark model, inputs preprocessed as there.
BENCH_CONV_STACK = """\
input 3 227 227
conv1 conv k=11 s=4 out_ch=16 in=data out=c1
relu1 relu in=c1 out=r1
norm1 lrn r=2 in=r1 out=n1
pool1 pool k=3 s=2 in=n1 out=p1
conv2 conv k=5 p=2 out_ch=32 in=p1 out=c2
relu2 relu in=c2 out=r2
pool2 pool k=3 s=2 in=r2 out=p2
conv3 conv k=3 p=1 out_ch=64 in=p2 out=c3
"""


def bench_session() -> Session:
    graph = parse_model(BENCH_CONV_STACK)
    load_weights(random_weights(graph, 5), graph)
    return Session(graph, mean=(123.68, 116.78, 103.94), scale=0.017)


def test_benchmark_convs_rarely_take_the_fixed_order_path(monkeypatch):
    # A bound loose enough to leave many entries unsettled still gives
    # the right bits, only slowly: count the entries, not the time.
    session = bench_session()
    fixed = fixed_order_entries(monkeypatch)
    records = []
    for frame in synth_sequence(2, 227, 227, dx=2, dy=1, noise=0.01, seed=5, square=True):
        records += session.run_frame(frame)[1].per_layer
    entries = sum(r.computed_macs // (r.in_channels * r.kernel ** 2) for r in records)
    assert len(records) == 6 and entries > 100_000
    assert sum(fixed) < 0.005 * entries


def test_one_bright_rectangle_leaves_no_more_than_per_window_bounds(monkeypatch):
    # On a black frame the stage-1 bound, set by the white rectangle's
    # values, is far above most windows' norms, and leaves many entries
    # unsettled that a per-window bound settles; stage 2 must settle them.
    # The per-window count screens sums computed here, which may differ
    # from the kernel's by the error of two summation orders, so its
    # interval is twice the screen's: wider than the kernel's interval
    # plus that distance, so it straddles wherever the kernel's does.
    data = np.zeros((3, 227, 227), dtype=np.uint8)
    data[:, 60:130, 90:170] = 255
    session = bench_session()
    fixed = fixed_order_entries(monkeypatch)
    layers = []
    forward = engine.conv_forward
    monkeypatch.setattr(engine, "conv_forward",
                        lambda x, spec: layers.append((x, spec)) or forward(x, spec))
    session.run_frame(Frame(data))
    per_window = 0
    for x, spec in layers:
        rows = conv_windows(x.data.astype(np.float64), spec.kernel, spec.stride, spec.pad)
        w = spec.weights.reshape(len(spec.biases), -1).astype(np.float64)
        b = spec.biases.astype(np.float64)
        n = w.shape[1]
        w_norms = np.sqrt((w * w).sum(axis=1)) * (1.0 + 4 * (n + 2) * 2.0 ** -53)
        bound = np.multiply.outer(np.sqrt((rows * rows).sum(axis=1)), w_norms) + np.abs(b)
        per_window += int(engine._screen(rows @ w.T + b, 2 * bound, n + 1)[1].sum())
    assert len(layers) == 3
    assert sum(fixed) <= per_window < 100


class TestScreen:
    @pytest.mark.parametrize("n", [4, 12, 40, 400])
    def test_settles_only_the_fixed_order_sum(self, n):
        # The sums a BLAS returns may sit anywhere within
        # gamma = (n-1)*u/(1-(n-1)*u) times the terms' magnitude of the exact
        # sum, and the sequential bias-first sum may sit as far off on the
        # other side.  Put s at either end of that range: wherever the screen
        # settles an entry, it must hold the float32 of the sequential sum.
        # The terms are built so that order matters: a unit bias, n-2 terms
        # each below half an ulp of 1, which the sequential sum drops
        # one by one, and a last term cancelling the unit down to a residue
        # whose float32 ulp is a few times the bound's width, so that most
        # entries settle and some dropped masses cross a float32 rounding
        # boundary.  A screen covering only the distance to the exact sum
        # settles some of those on the wrong side.
        rng = np.random.default_rng(n)
        rows = 4000
        small = rng.uniform(0.5, 1.0, size=(rows, n - 2)) * 2.0 ** -53
        residue = rng.uniform(1.0, 8.0, size=rows) * (n * 2.0 ** -26)
        terms = np.concatenate([np.ones((rows, 1)), small, (residue - 1.0)[:, None]], axis=1)
        terms *= rng.choice([-1.0, 1.0], size=(rows, 1))
        seq = np.add.accumulate(terms, axis=1)[:, -1].astype(np.float32)
        exact = np.array([math.fsum(t) for t in terms])
        mass = np.array([math.fsum(t) for t in np.abs(terms)])
        gamma = (n - 1) * 2.0 ** -53 / (1 - (n - 1) * 2.0 ** -53)
        assert np.any(seq != exact.astype(np.float32))
        settled = 0
        for side in (-1.0, 1.0):
            s = exact + side * gamma * mass
            out, unsettled = engine._screen(s, np.abs(terms).sum(axis=1), n)
            assert np.array_equal(bits(out[~unsettled]), bits(seq[~unsettled]))
            settled += int((~unsettled).sum())
        assert settled > rows

    def test_non_finite_bounds_stay_unsettled(self):
        s = np.array([1.0, np.inf, np.nan, 1.0])
        a = np.array([1.0, np.inf, np.nan, np.inf])
        with np.errstate(invalid="ignore"):
            _, unsettled = engine._screen(s, a, 3)
        assert unsettled.tolist() == [False, True, True, True]

    def test_float32_subnormal_sums_settle(self):
        # Sums whose float32 is subnormal settle to it; those too small for
        # any float32 (float64 subnormals) straddle +-0.0 and do not.
        s = np.array([1e-40, -3e-44, 2.0 ** -149, 5e-324, -1e-310])
        out, unsettled = engine._screen(s, np.abs(s), 2)
        assert unsettled.tolist() == [False, False, False, True, True]
        assert np.array_equal(bits(out[:3]), bits(s[:3].astype(np.float32)))

    def test_zero_sums_stay_unsettled(self):
        s = np.array([0.0, -0.0, 0.0, -0.0])
        _, unsettled = engine._screen(s, np.array([0.0, 0.0, 1.0, 1.0]), 3)
        assert unsettled.all()

    def test_float32_overflow_boundary(self):
        # Sums at and beyond float32's rounding boundary to infinity
        # (2**128 - 2**103, a tie that rounds to 2**128) stay unsettled;
        # float32's largest value settles, and an interval reaching from
        # below the boundary across it does not.
        big = float(np.finfo(np.float32).max)
        edge = 2.0 ** 128 - 2.0 ** 103
        s = np.array([big, edge - 2.0 ** 90, edge - 2.0 ** 90, edge, 2.0 ** 128, -edge])
        a = np.array([big, 1.0, 2.0 ** 150, 1.0, 1.0, 1.0])
        with np.errstate(over="ignore"):
            out, unsettled = engine._screen(s, a, 3)
        assert unsettled.tolist() == [False, False, True, True, True, True]
        assert out[0] == out[1] == np.float32(big)

    def test_float64_overflowing_ends_stay_unsettled(self):
        # s + err (or s - err) overflows float64 at its largest value.
        top = float(np.finfo(np.float64).max)
        s = np.array([top, -top])
        with np.errstate(over="ignore"):
            _, unsettled = engine._screen(s, np.array([top, top]), 3)
        assert unsettled.all()


class TestSoftmax:
    def test_uniform(self):
        out = softmax_forward(fmap(np.zeros((4, 1, 1))))
        assert np.allclose(out.data, 0.25)
        assert abs(float(out.data.sum()) - 1.0) < 1e-6

    def test_matches_naive_bitwise(self):
        x = rand_map(11, 7, 1, 1, lo=-5.0, hi=5.0)
        got = softmax_forward(x)
        want = reference.softmax_naive(x.data)
        assert np.array_equal(got.data, want)

    def test_spatial_positions_independent(self):
        x = rand_map(12, 3, 2, 2)
        out = softmax_forward(x)
        sums = out.data.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-6)

    def test_large_inputs_finite(self):
        out = softmax_forward(fmap([[[900.0]], [[-900.0]]]))
        assert np.all(np.isfinite(out.data))
        assert abs(float(out.data.sum()) - 1.0) < 1e-6


class TestConcatElementwise:
    def test_concat_stacks_channels(self):
        a = rand_map(1, 2, 3, 3)
        b = rand_map(2, 1, 3, 3)
        out = concat_forward([a, b])
        assert out.data.shape == (3, 3, 3)
        assert np.array_equal(out.data[:2], a.data)
        assert np.array_equal(out.data[2:], b.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ValueError):
            concat_forward([rand_map(1, 1, 3, 3), rand_map(2, 1, 4, 3)])

    def test_relu(self):
        out = relu_forward(fmap([[[-1.0, 0.0], [2.5, 3.0]]]))
        assert np.array_equal(out.data, [[[0.0, 0.0], [2.5, 3.0]]])

    def test_scale(self):
        spec = LayerSpec("s", "scale", ["data"], "out", factor=0.5)
        out = elementwise_forward(fmap([[[3.0, -4.0]]]), spec)
        assert np.array_equal(out.data, [[[1.5, -2.0]]])

    def test_bias(self):
        spec = LayerSpec("b", "bias", ["data"], "out", value=-1.0)
        out = elementwise_forward(fmap([[[3.0, 0.25]]]), spec)
        assert np.array_equal(out.data, [[[2.0, -0.75]]])

    @pytest.mark.parametrize("layer,want", [("s scale factor=1e39", np.inf),
                                            ("n lrn r=1 alpha=1e308", 0.0)])
    def test_out_of_range_values_store_without_warning(self, layer, want):
        # pytest turns a RuntimeWarning into an error: beyond the float32
        # range scale stores +inf, and lrn's overflowing denominator gives 0.
        graph = parse_model(f"input 1 4 4\n{layer} in=data out=o\n")
        out, _ = Session(graph, expire_n=1).run_frame(
            Frame(np.full((1, 4, 4), 7, dtype=np.uint8)))
        assert np.array_equal(bits(out.data), bits(np.full((1, 4, 4), want)))


class TestReuseBitmap:
    # Which output pixels conv_forward_cached takes from the cache: a stale
    # plane of a value no convolution here reaches marks the copied ones.
    SENTINEL = np.float32(1e30)

    def reused(self, w, h, mappings):
        x = rand_map(7, 2, h, w)
        spec = conv_spec(3, 3, 1, 1, in_ch=2, seed=8)
        stale = FeatureMap(np.full((3, h, w), self.SENTINEL, dtype=np.float32))
        out, computed, copied = conv_forward_cached(x, spec, stale, mappings)
        marked = out.data == self.SENTINEL
        assert (marked == marked[0]).all()
        return marked[0], computed, copied

    def test_empty(self):
        bm, computed, copied = self.reused(6, 4, [])
        assert bm.shape == (4, 6)
        assert not bm.any()
        assert copied == 0 and computed == 4 * 6 * 3 * 2 * 9

    def test_full_cover(self):
        bm, computed, copied = self.reused(
            5, 5, [RegionMapping(dst=Rect(0, 0, 5, 5), src=Rect(0, 0, 5, 5))])
        assert bm.all()
        assert computed == 0 and copied == 5 * 5 * 3


class TestConvForwardCached:
    def setup_case(self, seed=0):
        x = rand_map(seed, 3, 12, 12)
        spec = conv_spec(3, 4, 1, 1, in_ch=3, seed=seed + 1)
        full = conv_forward(x, spec)
        return x, spec, full

    def test_no_mappings_full_compute(self):
        x, spec, full = self.setup_case()
        out, computed, copied = conv_forward_cached(x, spec, full, [])
        assert np.array_equal(bits(out.data), bits(full.data))
        assert copied == 0
        assert computed == 12 * 12 * 4 * 3 * 9

    def test_full_cover_zero_compute(self):
        x, spec, full = self.setup_case(1)
        m = [RegionMapping(dst=Rect(0, 0, 12, 12), src=Rect(0, 0, 12, 12))]
        out, computed, copied = conv_forward_cached(x, spec, full, m)
        assert np.array_equal(bits(out.data), bits(full.data))
        assert computed == 0
        assert copied == 12 * 12 * 4

    def test_partial_copy_and_compute(self):
        x, spec, full = self.setup_case(2)
        stale = FeatureMap((full.data * 3.0 + 1.0).astype(np.float32))
        m = [RegionMapping(dst=Rect(2, 3, 5, 4), src=Rect(1, 1, 5, 4))]
        out, computed, copied = conv_forward_cached(x, spec, stale, m)
        assert copied == 5 * 4 * 4
        assert computed == (12 * 12 - 20) * 4 * 3 * 9
        # copied pixels come verbatim from the cache at the source offset
        assert np.array_equal(bits(out.data[:, 3:7, 2:7]), bits(stale.data[:, 1:5, 1:6]))
        # computed pixels are bit-identical to the plain convolution
        fresh = np.ones((12, 12), dtype=bool)
        fresh[3:7, 2:7] = False
        assert np.array_equal(bits(out.data[:, fresh]), bits(full.data[:, fresh]))

    def test_copied_counts_the_dst_union(self):
        # Two dsts of different shapes: copied is their union's area times
        # out_ch, and exactly the pixels they cover come from the cache.
        x, spec, full = self.setup_case(5)
        stale = FeatureMap((full.data * 3.0 + 1.0).astype(np.float32))
        ms = [RegionMapping(dst=Rect(0, 0, 4, 3), src=Rect(1, 1, 4, 3)),
              RegionMapping(dst=Rect(0, 3, 5, 4), src=Rect(0, 0, 5, 4))]
        out, computed, copied = conv_forward_cached(x, spec, stale, ms)
        assert copied == (12 + 20) * 4
        assert computed == (12 * 12 - 32) * 4 * 3 * 9
        assert np.array_equal(bits(out.data[:, 0, 0]), bits(stale.data[:, 1, 1]))
        assert np.array_equal(bits(out.data[:, 3, 4]), bits(stale.data[:, 0, 4]))
        assert np.array_equal(bits(out.data[:, 0, 4]), bits(full.data[:, 0, 4]))

    @pytest.mark.parametrize("dst,src,match", [
        (Rect(3, 3, 4, 4), Rect(0, 0, 4, 4), "overlaps"),
        (Rect(10, 0, 4, 4), Rect(0, 0, 4, 4), "outside"),
        (Rect(5, 5, 2, 2), Rect(11, 0, 2, 2), "outside"),
    ], ids=["overlapping_dst", "dst_outside", "src_outside"])
    def test_bad_mapping_rejected(self, dst, src, match):
        # The second mapping overlaps the first, or leaves the 12x12 plane
        # on its dst or on its src side.
        x, spec, full = self.setup_case(6)
        ms = [RegionMapping(dst=Rect(0, 0, 4, 4), src=Rect(0, 0, 4, 4)),
              RegionMapping(dst=dst, src=src)]
        with pytest.raises(RuntimeError, match=match):
            conv_forward_cached(x, spec, full, ms)

    def test_mac_identity(self):
        x, spec, full = self.setup_case(3)
        ms = [RegionMapping(dst=Rect(0, 0, 6, 6), src=Rect(0, 0, 6, 6)),
              RegionMapping(dst=Rect(6, 6, 4, 4), src=Rect(2, 2, 4, 4))]
        _, computed, copied = conv_forward_cached(x, spec, full, ms)
        k, in_ch = spec.geom.kernel, 3
        total = 12 * 12 * 4 * in_ch * k * k
        assert computed + copied * in_ch * k * k == total

    def test_strided_case_matches_full(self):
        x = rand_map(4, 2, 13, 13)
        spec = conv_spec(5, 3, 2, 2, in_ch=2, seed=9)
        full = conv_forward(x, spec)  # 7x7 output
        m = [RegionMapping(dst=Rect(1, 1, 4, 4), src=Rect(1, 1, 4, 4))]
        out, _, _ = conv_forward_cached(x, spec, full, m)
        assert np.array_equal(bits(out.data), bits(full.data))

    @settings(max_examples=60, deadline=None)
    @given(conv_cases(), st.data())
    def test_random_disjoint_mappings_copy_and_compute_exactly(self, case, data):
        # Random geometry and values, and random disjoint dst rects each
        # with a random src: every dst holds the stored output at its src,
        # every other pixel conv_forward's value, bit for bit.
        x, spec = case
        full = conv_forward(x, spec)
        out_ch, out_h, out_w = full.data.shape
        stored = rand_map(data.draw(st.integers(0, 2 ** 16)), out_ch, out_h, out_w)
        reused = np.zeros((out_h, out_w), dtype=bool)
        ms = []
        for _ in range(data.draw(st.integers(0, 4))):
            w, h = data.draw(st.integers(1, out_w)), data.draw(st.integers(1, out_h))
            dst = Rect(data.draw(st.integers(0, out_w - w)), data.draw(st.integers(0, out_h - h)),
                       w, h)
            if not reused[dst.y:dst.y2, dst.x:dst.x2].any():
                reused[dst.y:dst.y2, dst.x:dst.x2] = True
                src = Rect(data.draw(st.integers(0, out_w - w)),
                           data.draw(st.integers(0, out_h - h)), w, h)
                ms.append(RegionMapping(dst=dst, src=src))
        out, computed, copied = conv_forward_cached(x, spec, stored, ms)
        for m in ms:
            assert np.array_equal(bits(out.data[:, m.dst.y:m.dst.y2, m.dst.x:m.dst.x2]),
                                  bits(stored.data[:, m.src.y:m.src.y2, m.src.x:m.src.x2]))
        assert np.array_equal(bits(out.data[:, ~reused]), bits(full.data[:, ~reused]))
        window = spec.weights[0].size
        assert copied == int(reused.sum()) * out_ch
        assert computed + copied * window == out_ch * out_h * out_w * window


MODEL_TEXT = """\
input 3 32 32
c1 conv k=5 out_ch=4 s=2 p=2 in=data out=b1
r1 relu in=b1 out=b2
p1 pool k=2 s=2 in=b2 out=b3
c2 conv k=3 out_ch=6 s=1 p=1 in=b3 out=b4
f1 fc out=10 in=b4 out=b5
sm softmax in=b5 out=prob
"""

CONCAT_MODEL = """\
input 1 16 16
s1 scale factor=2.0 in=data out=a
b1 bias value=1.0 in=data out=b
cc concat in=a,b out=c
c1 conv k=3 out_ch=2 in=c out=d
"""


def make_session(text=MODEL_TEXT, seed=0, **kw) -> Session:
    graph = parse_model(text)
    load_weights(random_weights(graph, seed), graph)
    kw.setdefault("matcher_cfg", MatcherConfig(block_size=10, threshold_t=20.0,
                                               skip_k=1, search_range=8))
    return Session(graph, **kw)


class TestSession:
    def test_first_frame_is_flush(self):
        sess = make_session()
        frame = synth_sequence(1, 32, 32)[0]
        out, metrics = sess.run_frame(frame)
        assert metrics.flushed
        assert metrics.match_ratio == 0.0
        assert metrics.copied_pixels == 0
        assert metrics.computed_macs == metrics.total_macs > 0
        assert out.data.shape == (10, 1, 1)

    def test_identical_frame_reuses(self):
        sess = make_session()
        frame = synth_sequence(1, 32, 32)[0]
        out1, _ = sess.run_frame(frame)
        out2, metrics = sess.run_frame(Frame(frame.data.copy()))
        assert not metrics.flushed
        assert metrics.match_ratio > 0.8
        assert metrics.copied_pixels > 0
        assert metrics.computed_macs < metrics.total_macs
        assert np.array_equal(out1.data, out2.data)

    def test_expire_schedule(self):
        sess = make_session(expire_n=3)
        frames = synth_sequence(7, 32, 32, dx=1, dy=0)
        flushes = [sess.run_frame(f)[1].flushed for f in frames]
        assert flushes == [True, False, False, True, False, False, True]

    def test_cache_disabled_always_flushes(self):
        sess = make_session(expire_n=1)
        for f in synth_sequence(3, 32, 32):
            _, metrics = sess.run_frame(f)
            assert metrics.flushed
            assert metrics.copied_pixels == 0

    def test_expire_one_never_calls_the_matcher(self, monkeypatch):
        # expire_n=1 is the plain engine: on a pan that a cached session
        # reuses, every frame flushes, computes in full and never matches.
        pan = synth_sequence(4, 32, 32, dx=2, dy=1, noise=0.005, seed=5)
        cached = make_session()
        assert sum(cached.run_frame(f)[1].copied_pixels for f in pan) > 0

        def refuse(*args, **kwargs):
            raise AssertionError("match_frames called with expire_n=1")

        monkeypatch.setattr(engine, "match_frames", refuse)
        plain = make_session(expire_n=1)
        for f in pan:
            _, metrics = plain.run_frame(f)
            assert metrics.flushed and metrics.match_ratio == 0.0
            assert metrics.copied_pixels == 0
            assert metrics.computed_macs == metrics.total_macs
            assert plain.last_match is None

    def test_infinite_threshold_matches_plain_bitwise(self):
        cfg = MatcherConfig(block_size=10, threshold_t=float("inf"),
                            skip_k=1, search_range=8)
        cached = make_session(matcher_cfg=cfg)
        plain = make_session(expire_n=1)
        for f in synth_sequence(5, 32, 32, dx=2, dy=1, noise=0.01, seed=3):
            out_c, m_c = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
            assert np.array_equal(out_c.data, out_p.data)
            assert m_c.copied_pixels == 0

    def test_per_layer_mac_identity_every_frame(self):
        sess = make_session()
        totals = sess.graph.conv_total_macs()
        for f in synth_sequence(6, 32, 32, dx=2, noise=0.005, seed=5):
            _, metrics = sess.run_frame(f)
            assert {e.name for e in metrics.per_layer} == set(totals)
            for e in metrics.per_layer:
                k2 = e.kernel * e.kernel
                assert e.computed_macs + e.copied_pixels * e.in_channels * k2 \
                    == e.total_macs == totals[e.name]
            assert metrics.computed_macs == sum(e.computed_macs
                                                for e in metrics.per_layer)
            assert metrics.total_macs == sum(totals.values())

    def test_near_exact_threshold_is_bitwise_at_stride_one(self):
        # threshold just under the zero-error sentinel: only blocks whose
        # match is pixel-exact verify.  With stride-1 layers throughout,
        # dst and src offsets can never straddle a stride boundary, so
        # every copied value must be bit-identical to a full forward.
        # (Strided layers may round misaligned offsets onto the stride
        # grid; those copies are deliberate approximations.)
        text = ("input 1 24 24\n"
                "c1 conv k=3 out_ch=4 p=1 in=data out=b1\n"
                "r1 relu in=b1 out=b2\n"
                "c2 conv k=3 out_ch=4 in=b2 out=b3\n"
                "n1 lrn r=1 in=b3 out=b4\n"
                "c3 conv k=3 out_ch=2 in=b4 out=b5\n")
        cfg = MatcherConfig(block_size=10, threshold_t=99.0,
                            skip_k=1, search_range=8)
        cached = make_session(text, seed=2, matcher_cfg=cfg)
        plain = make_session(text, seed=2, expire_n=1)
        reused_any = False
        for f in synth_sequence(6, 24, 24, channels=1, dx=2, dy=0, seed=7):
            out_c, m_c = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
            reused_any = reused_any or m_c.copied_pixels > 0
            assert np.array_equal(out_c.data, out_p.data)
        assert reused_any

    def test_lossy_threshold_reduces_work(self):
        sess = make_session(seed=2)
        fractions = []
        for f in synth_sequence(6, 32, 32, dx=2, dy=0, noise=0.01, seed=7):
            _, m = sess.run_frame(f)
            if not m.flushed:
                fractions.append(m.computed_macs / m.total_macs)
                assert m.match_ratio > 0.0
        assert fractions and min(fractions) < 0.9

    def test_dimension_mismatch(self):
        sess = make_session()
        with pytest.raises(ValueError, match="dims"):
            sess.run_frame(synth_sequence(1, 16, 16)[0])

    def test_concat_graph_cached_run(self):
        sess = make_session(CONCAT_MODEL, matcher_cfg=MatcherConfig(
            block_size=10, threshold_t=20.0, skip_k=1, search_range=4))
        frames = synth_sequence(2, 16, 16, channels=1, dx=0, dy=0, seed=11)
        out1, _ = sess.run_frame(frames[0])
        out2, metrics = sess.run_frame(frames[1])
        assert metrics.copied_pixels > 0
        assert np.array_equal(out1.data, out2.data)

    def test_outputs_always_finite(self):
        sess = make_session()
        for f in synth_sequence(4, 32, 32, dx=3, dy=2, noise=0.02, seed=13):
            out, _ = sess.run_frame(f)
            assert np.all(np.isfinite(out.data))

    def test_failed_frame_leaves_cache_whole(self, monkeypatch):
        # Frame 1 fails in c2, after c1 has already produced its output.
        # Frame 2 must then run exactly as if frame 1 had never been seen.
        frames = synth_sequence(3, 32, 32, dx=2, dy=1, noise=0.005, seed=17)
        sess = make_session()
        sess.run_frame(frames[0])
        real = engine.conv_forward_cached

        def fail_in_c2(input, spec, *args):
            if spec.name == "c2":
                raise RuntimeError("injected")
            return real(input, spec, *args)

        monkeypatch.setattr(engine, "conv_forward_cached", fail_in_c2)
        with pytest.raises(RuntimeError, match="injected"):
            sess.run_frame(frames[1])
        monkeypatch.setattr(engine, "conv_forward_cached", real)
        out, metrics = sess.run_frame(frames[2])

        clean = make_session()
        clean.run_frame(frames[0])
        want, want_metrics = clean.run_frame(frames[2])
        assert metrics.copied_pixels == want_metrics.copied_pixels > 0
        assert np.array_equal(bits(out.data), bits(want.data))
        assert sess.cache.frames_since_flush == clean.cache.frames_since_flush == 2

    @pytest.mark.parametrize("cut", [False, True])
    def test_failed_predicted_frame_leaves_cache_whole(self, monkeypatch, cut):
        # Frame 2, the first matched with a prior, fails in c2: either its
        # prediction is kept or (across a cut) the cut gate returns the
        # empty match; both are unsearched, and only the prediction covers
        # anything.  Frame 3 must then run exactly as in a session that
        # never saw frame 2, anchor included.
        # 8-pixel blocks let the pan cover more than PRIOR_MIN of the frame.
        cfg = MatcherConfig(block_size=8, threshold_t=20.0, skip_k=1, search_range=8)
        frames = synth_sequence(4, 32, 32, dx=2, dy=1, noise=0.005, seed=23)
        if cut:
            frames[2] = synth_sequence(1, 32, 32, seed=99)[0]
        sess = make_session(matcher_cfg=cfg)
        for f in frames[:2]:
            sess.run_frame(f)
        matched = []

        def fail_in_c2(real):
            # A c2 with no mappings to copy (as on the cut) runs conv_forward.
            def kernel(input, spec, *args):
                if spec.name == "c2":
                    raise RuntimeError("injected")
                return real(input, spec, *args)
            return kernel

        def spy(*args, **kwargs):
            matched.append(real_match(*args, **kwargs))
            return matched[-1]

        real_match = engine.match_frames
        for name in ("conv_forward", "conv_forward_cached"):
            monkeypatch.setattr(engine, name, fail_in_c2(getattr(engine, name)))
        monkeypatch.setattr(engine, "match_frames", spy)
        with pytest.raises(RuntimeError, match="injected"):
            sess.run_frame(frames[2])
        monkeypatch.undo()
        assert matched[0].stats.searches == 0
        assert (matched[0].match_ratio > 0) != cut
        out, metrics = sess.run_frame(frames[3])

        clean = make_session(matcher_cfg=cfg)
        for f in (frames[0], frames[1]):
            clean.run_frame(f)
        want, want_metrics = clean.run_frame(frames[3])
        assert metrics.copied_pixels == want_metrics.copied_pixels > 0
        assert np.array_equal(bits(out.data), bits(want.data))
        assert sess.last_match == clean.last_match
        assert sess.cache.anchor == clean.cache.anchor
        assert sess.cache.frames_since_flush == clean.cache.frames_since_flush == 3

    def test_shot_after_a_cut_is_searched_and_reused(self):
        # A cut leaves no anchor: the cut gate returns an empty, unsearched
        # match.  The next frame of the new shot searches, and reuses as a
        # session that started on that shot does; the one after it keeps a
        # prediction from the new anchor.
        cfg = MatcherConfig(block_size=8, threshold_t=25.0, skip_k=1, search_range=8)
        first = synth_sequence(1, 32, 32, seed=41)[0]
        pan = synth_sequence(3, 32, 32, dx=2, dy=1, noise=0.005, seed=43)
        sess = make_session(matcher_cfg=cfg)
        runs = []
        for f in [first] + pan:
            out, metrics = sess.run_frame(f)
            runs.append((out, metrics, sess.last_match, sess.cache.anchor))
        assert [m.flushed for _, m, _, _ in runs] == [True, False, False, False]
        _, _, cut, anchor = runs[1]
        assert cut.stats.searches == 0 and cut.match_ratio == 0 and anchor is None

        fresh = make_session(matcher_cfg=cfg)
        fresh.run_frame(pan[0])
        want_out, want = fresh.run_frame(pan[1])
        out, metrics, match, anchor = runs[2]
        assert match.stats.searches > 0 and match == fresh.last_match
        assert metrics.copied_pixels == want.copied_pixels > 0
        assert np.array_equal(bits(out.data), bits(want_out.data))
        assert anchor is match

        _, metrics, match, _ = runs[3]
        assert match.stats.searches == 0 and metrics.copied_pixels > 0

    def test_cut_mid_shot_clears_the_anchor(self):
        # A pan, a cut to a new scene, then that scene again: the cut frame
        # reuses nothing and leaves no anchor, as a flush would, so the frame
        # after it searches rather than try the old shot's motion.
        cfg = MatcherConfig(block_size=8, skip_k=1, search_range=8)
        pan = synth_sequence(3, 32, 32, dx=2, dy=1, noise=0.005, seed=23)
        scene = synth_sequence(2, 32, 32, dx=-1, dy=2, noise=0.005, seed=99)
        sess = make_session(matcher_cfg=cfg)
        anchors, matches = [], []
        for f in pan + scene:
            _, metrics = sess.run_frame(f)
            anchors.append(sess.cache.anchor)
            matches.append(sess.last_match)
        assert anchors[1] is matches[1] and matches[2].stats.searches == 0
        assert anchors[2] is anchors[1]
        cut = matches[3]
        assert (cut.mappings, cut.match_ratio, cut.stats.searches) == ([], 0.0, 0)
        assert anchors[3] is None
        assert matches[4].stats.searches > 0 and anchors[4] is matches[4]

    def test_cut_frame_runs_the_full_kernel(self, monkeypatch):
        # A cut frame has no mappings to copy at any conv, so each runs
        # conv_forward, as on a flush, and records every MAC as computed.
        cfg = MatcherConfig(block_size=8, skip_k=1, search_range=8)
        pan = synth_sequence(2, 32, 32, dx=2, dy=1, noise=0.005, seed=23)
        scene = synth_sequence(1, 32, 32, seed=99)
        sess = make_session(matcher_cfg=cfg)
        for f in pan:
            sess.run_frame(f)
        calls = []
        for name in ("conv_forward", "conv_forward_cached"):
            real = getattr(engine, name)
            monkeypatch.setattr(engine, name, lambda x, spec, *args, name=name, real=real:
                                calls.append((name, spec.name)) or real(x, spec, *args))
        _, metrics = sess.run_frame(scene[0])
        assert not metrics.flushed and sess.last_match.match_ratio == 0
        assert calls == [("conv_forward", "c1"), ("conv_forward", "c2")]
        for r in metrics.per_layer:
            assert r.computed_macs == r.total_macs and r.copied_pixels == 0

    def test_anchor_survives_an_expiry_flush(self):
        # The pan's motion outlives the flush, so the first cache-assisted
        # frame after it keeps the anchor's prediction instead of searching.
        # The plain engine (expire_n=1) never has an anchor, and a cut
        # still clears it.
        cfg = MatcherConfig(block_size=8, skip_k=1, search_range=8)
        pan = synth_sequence(5, 32, 32, dx=2, dy=1, noise=0.005, seed=23)
        sess = make_session(matcher_cfg=cfg, expire_n=3)
        runs = []
        for f in pan:
            _, metrics = sess.run_frame(f)
            runs.append((metrics, sess.last_match, sess.cache.anchor))
        assert [m.flushed for m, _, _ in runs] == [True, False, False, True, False]
        searched = runs[1][1]
        assert searched.stats.searches > 0 and runs[1][2] is searched
        assert runs[3][2] is searched
        metrics, match, anchor = runs[4]
        assert match.stats.searches == 0 and anchor is searched
        assert metrics.copied_pixels > 0

        _, metrics = sess.run_frame(synth_sequence(1, 32, 32, seed=99)[0])
        assert not metrics.flushed and sess.last_match.match_ratio == 0
        assert sess.cache.anchor is None

        plain = make_session(matcher_cfg=cfg, expire_n=1)
        for f in pan:
            plain.run_frame(f)
            assert plain.cache.anchor is None

    def test_graph_without_weights_rejected(self):
        with pytest.raises(ValueError, match="no weights loaded"):
            Session(parse_model(MODEL_TEXT))

    @pytest.mark.parametrize("layer,field,shape", [("f", "weights", (4, 7)),
                                                   ("f", "biases", (5,)),
                                                   ("c", "weights", (2, 3, 5, 5)),
                                                   ("c", "biases", (3,))])
    def test_weights_of_the_wrong_shape_rejected(self, layer, field, shape):
        # Caught here, not on the first frame (fc would see 392 inputs).
        graph = parse_model("input 3 16 16\n"
                            "c conv k=3 out_ch=2 in=data out=a\n"
                            "f fc out=4 in=a out=b\n")
        load_weights(random_weights(graph, 0), graph)
        setattr(graph.layer(layer), field, np.zeros(shape, dtype=np.float32))
        with pytest.raises(ValueError, match=f"layer '{layer}': {field} have shape"):
            Session(graph)

    def test_mean_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="mean has 2 entries for 3 channels"):
            make_session(mean=[1.0, 2.0])

    @pytest.mark.parametrize("kw", [{"mean": math.nan}, {"mean": [0.0, math.inf, 0.0]},
                                    {"scale": math.inf}, {"scale": math.nan}])
    def test_non_finite_mean_or_scale_rejected(self, kw):
        with pytest.raises(ValueError, match="must be finite"):
            make_session(**kw)

    @pytest.mark.parametrize("pool", ["max", "avg"])
    def test_scale_beyond_float32_runs_without_warning(self, pool):
        # (sample - mean) * 1e300 is finite in float64 but beyond float32, so
        # it stores as infinities; neither preprocess nor a later layer may
        # warn about them midway through a stream.  A first pool averages
        # +inf and -inf samples, which is inf - inf.
        frames = synth_sequence(2, 32, 32, dx=1, seed=3)
        assert np.isinf(preprocess(frames[0], mean=100.5, scale=1e300).data).all()
        text = MODEL_TEXT.replace("c1 conv k=5 out_ch=4 s=2 p=2 in=data",
                                  f"p0 pool k=2 s=1 mode={pool} in=data out=b0\n"
                                  "c1 conv k=5 out_ch=4 s=2 p=2 in=b0")
        sess = make_session(text, mean=100.5, scale=1e300)
        for frame in frames:
            out, _ = sess.run_frame(frame)
        assert out.data.shape == (10, 1, 1)

    def test_fractional_expire_n_rejected(self):
        with pytest.raises(ValueError, match="expire_n must be an integer"):
            make_session(expire_n=2.5)
        with pytest.raises(ValueError, match="expire_n must be an integer"):
            make_session(expire_n=True)
        assert make_session(expire_n=np.int64(3)).cache.expire_n == 3

    def test_input_smaller_than_block_rejected(self):
        text = "input 1 8 8\nc1 conv k=3 out_ch=2 p=1 in=data out=b1\n"
        with pytest.raises(ValueError, match="block"):
            make_session(text)
        plain = make_session(text, expire_n=1)
        for f in synth_sequence(3, 8, 8, channels=1, dx=1, seed=2):
            _, metrics = plain.run_frame(f)
            assert metrics.flushed

    def test_last_match_follows_the_frame(self):
        # None after each flush; after a cache-assisted frame, that frame's
        # own match, whose ratio is the one its metrics report.
        sess = make_session(expire_n=3)
        frames = synth_sequence(4, 32, 32, dx=2, dy=1, noise=0.005, seed=19)
        seen = []
        for f in frames:
            _, metrics = sess.run_frame(f)
            if metrics.flushed:
                assert sess.last_match is None
            else:
                assert sess.last_match.match_ratio == metrics.match_ratio > 0.0
                seen.append(sess.last_match)
        assert len(seen) == 2 and seen[0] is not seen[1]
        assert sess.last_match is None



def exact_cfg(**kw) -> MatcherConfig:
    """A matcher that reuses only bit-identical blocks."""
    return MatcherConfig(threshold_t=PSNR_MAX - 1, **kw)


@st.composite
def aligned_cases(draw):
    """A random small graph of conv, pool, lrn, elementwise and same-dims
    concat layers on a 48x48 RGB input, ending in a conv; a per-frame
    motion that is a multiple of the product of its strides; a seed."""
    c, side, stride = 3, 48, 1
    lines, blob = [f"input {c} {side} {side}"], "data"

    def same_dims(name, src, kind):
        """A layer that keeps the spatial dims, and its output channels."""
        if kind == "conv":
            k, out_ch = draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 3))
            return f"{name} conv k={k} p={k // 2} out_ch={out_ch} in={src} out={name}", out_ch
        params = {"lrn": f"r={draw(st.integers(1, 2))}", "relu": "",
                  "scale": "factor=0.5", "bias": "value=-0.25"}[kind]
        return f"{name} {kind} {params} in={src} out={name}", c

    branch = st.sampled_from(["conv", "lrn", "relu", "scale", "bias"])
    for i in range(draw(st.integers(1, 5))):
        name = f"l{i}"
        kind = draw(st.sampled_from(["conv", "pool", "lrn", "relu", "scale", "bias", "concat"]))
        if kind in ("conv", "pool"):
            k, s = draw(st.integers(1, 5)), draw(st.integers(1, 2))
            # a pool window of padding alone would hold -inf or 0
            p = draw(st.integers(0, 2 if kind == "conv" else min(2, k - 1)))
            k = min(k, side + 2 * p)
            if kind == "conv":
                c = draw(st.integers(1, 4))
                lines.append(f"{name} conv k={k} s={s} p={p} out_ch={c} in={blob} out={name}")
            else:
                mode = draw(st.sampled_from(["max", "avg"]))
                lines.append(f"{name} pool k={k} s={s} p={p} mode={mode} in={blob} out={name}")
            side = (side + 2 * p - k) // s + 1
            stride *= s
        elif kind == "concat":
            a, ca = same_dims(f"{name}a", blob, draw(branch))
            b, cb = same_dims(f"{name}b", blob, draw(branch))
            lines += [a, b, f"{name} concat in={name}a,{name}b out={name}"]
            c = ca + cb
        else:
            line, c = same_dims(name, blob, kind)
            lines.append(line)
        blob = name
    lines.append(f"last conv k=3 p=1 out_ch=2 in={blob} out=last")
    steps = st.integers(-(16 // stride), 16 // stride)
    motion = (draw(steps) * stride, draw(steps) * stride)
    return "\n".join(lines) + "\n", motion, draw(st.integers(0, 2 ** 16))


class TestExactReuse:
    """Copies are bit-identical to computed values when the matched input
    is exact and the motion is a multiple of every stride on the way."""

    def test_zero_motion_copies_only_windows_inside_the_match(self):
        # Frame 2 changes columns 0-9 and 30-31 of a gray frame, so the
        # matcher maps columns 10-29 onto themselves.  Of conv k=11 s=4's
        # outputs, columns 3 and 4 read only those; column 5 reads 20-30.
        text = "input 1 40 40\nc1 conv k=11 s=4 out_ch=4 in=data out=b1\n"
        gray = np.full((1, 40, 40), 100, dtype=np.uint8)
        changed = gray.copy()
        changed[:, :, 0:10] = changed[:, :, 30:32] = 155
        cached = make_session(text, matcher_cfg=exact_cfg(block_size=10))
        plain = make_session(text, expire_n=1)
        for f in (Frame(gray), Frame(changed)):
            out_c, metrics = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
        stay = Rect(10, 0, 20, 40)
        assert cached.last_match.mappings == [RegionMapping(dst=stay, src=stay)]
        assert metrics.copied_pixels == 4 * 2 * 8
        assert np.array_equal(bits(out_c.data), bits(out_p.data))

    @pytest.mark.parametrize("seed", range(4))
    def test_stride_aligned_pan_copies_exactly(self, seed):
        # (32, 16) px per frame is a whole number of strides at every conv
        # of the benchmark's conv stack, and lies within the search range.
        # The diamond search does not reach it on this pan; the exhaustive
        # one finds it on every pair.
        kw = dict(mean=(123.68, 116.78, 103.94), scale=0.017)
        cached = make_session(BENCH_CONV_STACK, seed,
                              matcher_cfg=exact_cfg(search_range=32, strategy="exhaustive"), **kw)
        plain = make_session(BENCH_CONV_STACK, seed, expire_n=1, **kw)
        copied = 0
        for f in synth_sequence(3, 227, 227, dx=32, dy=16, seed=seed, square=True):
            out_c, metrics = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
            if not metrics.flushed:
                assert cached.last_match.global_motion == (-32, -16)
            copied += metrics.copied_pixels
            assert np.array_equal(bits(out_c.data), bits(out_p.data))
        assert copied > 0

    @settings(max_examples=40, deadline=None)
    @given(aligned_cases())
    def test_aligned_translation_copies_exactly(self, case):
        # Every conv output, copied or computed, equals a flush's bitwise.
        text, (dx, dy), seed = case
        graph = parse_model(text)
        load_weights(random_weights(graph, seed), graph)
        cfg = exact_cfg(block_size=8, skip_k=1, strategy="exhaustive")
        cached = Session(graph, cfg)
        plain = Session(graph, cfg, expire_n=1)
        for f in synth_sequence(3, 48, 48, dx=dx, dy=dy, seed=seed, square=True):
            out_c, _ = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
            assert np.array_equal(bits(out_c.data), bits(out_p.data))
            for name, want in plain.cache.conv_outputs.items():
                assert np.array_equal(bits(cached.cache.conv_outputs[name].data), bits(want.data))
