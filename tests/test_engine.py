import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framecache import engine
from framecache import (FeatureMap, Frame, LayerGeom, LayerSpec, LayerType,
                        MatcherConfig, Rect, RegionMapping, Session,
                        build_reuse_bitmap, concat_forward, conv_forward,
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
    spec = LayerSpec(name, "conv",
                     LayerGeom(LayerType.CONVOLUTION, kernel=k, stride=s, pad=p),
                     ["data"], "out", out_channels=out_ch)
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


# (in channels, height, width, kernel, out channels, stride, pad)
CONV_SHAPES = [
    (1, 5, 5, 3, 1, 1, 0),
    (3, 8, 7, 3, 4, 1, 1),
    (2, 9, 9, 5, 3, 2, 2),
    (4, 6, 10, 1, 2, 1, 0),
    (1, 7, 7, 3, 2, 3, 0),
    (2, 11, 8, 4, 3, 2, 1),
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

    def test_all_zero_window_stores_positive_zero(self, monkeypatch):
        # Zero inputs (and zero padding) under zero biases: every sum is an
        # exact zero, which the screen leaves unsettled, and the fixed-order
        # path stores +0.0 however the weights' signs make the terms -0.0.
        unsettled = []
        screen = engine._screen

        def counting(sums, bound, n):
            out, mask = screen(sums, bound, n)
            unsettled.append(int(mask.sum()))
            return out, mask

        monkeypatch.setattr(engine, "_screen", counting)
        x = fmap(np.zeros((2, 4, 4)))
        spec = conv_spec(3, 3, 1, 1, in_ch=2)
        spec.biases = np.zeros(3, dtype=np.float32)
        got = bits(conv_forward(x, spec).data)
        assert sum(unsettled) == got.size
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


class TestPoolForward:
    def pool_spec(self, k, s=1, p=0, mode="max"):
        return LayerSpec("p", "pool",
                         LayerGeom(LayerType.POOLING, kernel=k, stride=s, pad=p),
                         ["data"], "out", pool_mode=mode)

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

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize("k,s,p", [(2, 2, 0), (3, 1, 1), (3, 2, 1), (4, 3, 0)])
    def test_matches_naive(self, mode, k, s, p):
        x = rand_map(k * 10 + s, 3, 9, 8)
        got = pool_forward(x, self.pool_spec(k, s, p, mode))
        want = reference.pool_naive(x.data, k, s, p, mode)
        assert np.array_equal(got.data, want)


class TestLrnForward:
    def lrn_spec(self, r, alpha=1e-4, beta=0.75, bias=1.0):
        return LayerSpec("n", "lrn", LayerGeom(LayerType.ELEMENTWISE), ["data"], "out",
                         radius=r, alpha=alpha, beta=beta, norm_bias=bias)

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
    spec = LayerSpec("f", "fc", LayerGeom(LayerType.FULLY_CONNECTED),
                     ["data"], "out", out_features=len(biases))
    spec.weights = np.asarray(weights, dtype=np.float32)
    spec.biases = np.asarray(biases, dtype=np.float32)
    return spec


@st.composite
def fc_cases(draw):
    """(input map, weights, biases).  Half the cases mirror every row so
    its products cancel exactly to the bias, and then often zero the
    bias too: those sums are exactly zero and must store +0.0."""
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


class TestFcForward:
    def fc_spec(self, out_features, in_features, seed=0):
        rng = np.random.default_rng(seed)
        return fc_layer(rng.normal(size=(out_features, in_features)),
                        rng.normal(size=out_features))

    def test_matches_exact_rational(self):
        x = rand_map(3, 2, 3, 4)
        spec = self.fc_spec(5, 24)
        got = fc_forward(x, spec)
        assert got.data.shape == (5, 1, 1)
        want = reference.fc_exact(x.data, spec.weights, spec.biases)
        assert np.array_equal(bits(got.data), bits(want))

    @settings(max_examples=300, deadline=None)
    @given(fc_cases())
    def test_matches_fsum_and_exact_rational(self, case):
        x, w, b = case
        got = bits(fc_forward(x, fc_layer(w, b)).data)
        assert np.array_equal(got, bits(reference.fc_fsum(x.data, w, b)))
        assert np.array_equal(got, bits(reference.fc_exact(x.data, w, b)))

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
        w32, b32 = w.astype(np.float32), b.astype(np.float32)
        assert np.array_equal(got, bits(reference.fc_fsum(x.astype(np.float32), w32, b32)))
        assert np.array_equal(got, bits(reference.fc_exact(x, w32, b32)))

    def test_overflow_to_infinity(self):
        w = np.array([[3e38, 3e38], [-3e38, -3e38], [3e38, -3e38]])
        x = fmap(np.ones((2, 1, 1)))
        got = fc_forward(x, fc_layer(w, np.zeros(3))).data.ravel()
        assert np.array_equal(bits(got), bits([np.inf, -np.inf, 0.0]))

    def test_non_finite_terms_follow_fsum(self):
        spec = fc_layer([[1.0, 0.0], [1.0, 1.0]], [0.0, 0.0])
        nan_in = fmap(np.array([1.0, np.inf]).reshape(2, 1, 1))   # inf * 0 is NaN
        with np.errstate(invalid="ignore"):
            want = reference.fc_fsum(nan_in.data, spec.weights, spec.biases)
        assert np.array_equal(bits(fc_forward(nan_in, spec).data), bits(want))
        # Row 0 sums inf - inf, where fsum raises: it stores NaN, as conv's
        # fixed order does, and row 1 keeps fsum's +inf.
        spec = fc_layer([[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]], [0.0, 0.0])
        both = fmap(np.array([np.inf, -np.inf, 2.0]).reshape(3, 1, 1))
        with np.errstate(invalid="ignore"):
            want = reference.fc_fsum(both.data, spec.weights, spec.biases)
        got = bits(fc_forward(both, spec).data)
        assert np.array_equal(got, bits(want))
        assert np.array_equal(got.ravel(), bits([np.nan, np.inf]))

    def test_model_sized_layer(self):
        # fc1 of the 227x227 benchmark model: 256 outputs over 2304 inputs.
        rng = np.random.default_rng(4)
        spec = fc_layer(rng.normal(0.0, 0.02, size=(256, 2304)), rng.normal(size=256))
        x = fmap(np.maximum(rng.normal(size=(256, 3, 3)), 0.0))
        want = reference.fc_fsum(x.data, spec.weights, spec.biases)
        assert np.array_equal(bits(fc_forward(x, spec).data), bits(want))

    def test_cancelling_row_takes_exact_path(self, monkeypatch):
        # Row 1 cancels to exactly zero: its interval straddles -0.0/+0.0,
        # so it alone is summed by math.fsum and must store +0.0.
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(engine.math, "fsum", lambda v: calls.append(1) or fsum(v))
        w = [[1.0, 2.0, 3.0], [0.1, -0.1, 0.0], [-4.0, 0.5, 1.0]]
        x = fmap(np.array([1.0, 1.0, 2.0]).reshape(3, 1, 1))
        got = fc_forward(x, fc_layer(w, [0.5, -0.0, 0.25])).data.ravel()
        assert len(calls) == 1
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


def captured_screens(patch: pytest.MonkeyPatch) -> list:
    """Patch engine._screen to record a copy of every (sums, bound, n) it gets."""
    calls = []
    screen = engine._screen

    def capture(s, a, n):
        calls.append((s.copy(), a.copy(), n))
        return screen(s, a, n)

    patch.setattr(engine, "_screen", capture)
    return calls


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
    """The magnitude bound both kernels hand _screen must be at least the
    correctly rounded sum of the terms' magnitudes, bias included."""

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_conv_bound_covers_every_window(self, case):
        x, spec = case
        g = spec.geom
        with pytest.MonkeyPatch.context() as patch:
            calls = captured_screens(patch)
            conv_forward(x, spec)
        (_, bound, _), = calls
        rows = conv_windows(x.data.astype(np.float64), g.kernel, g.stride, g.pad)
        want = magnitude_sums(rows, spec.weights.reshape(len(spec.biases), -1), spec.biases)
        assert np.all(bound >= want)

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_fc_bound_covers_every_row(self, case):
        x, conv = case
        w = conv.weights.reshape(len(conv.biases), -1)
        flat = np.resize(x.data.ravel(), w.shape[1])
        spec = fc_layer(w, conv.biases)
        with pytest.MonkeyPatch.context() as patch:
            calls = captured_screens(patch)
            fc_forward(fmap(flat.reshape(-1, 1, 1)), spec)
        (_, bound, _), = calls
        assert np.all(bound >= magnitude_sums([flat.astype(np.float64)], w, spec.biases)[0])

    def test_parallel_terms_need_the_margin(self, monkeypatch):
        # Cauchy-Schwarz is tight where |x| and |w| are parallel, and for
        # three ones the float64 sqrt(3) * sqrt(3) is just below 3.
        calls = captured_screens(monkeypatch)
        spec = conv_spec(1, 1, in_ch=3)
        spec.weights = np.ones((1, 3, 1, 1), dtype=np.float32)
        spec.biases = np.zeros(1, dtype=np.float32)
        conv_forward(fmap(np.ones((3, 2, 2))), spec)
        fc_forward(fmap(np.ones((3, 1, 1))), fc_layer(np.ones((1, 3)), [0.0]))
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


def test_benchmark_convs_rarely_take_the_fixed_order_path(monkeypatch):
    # A bound loose enough to leave many entries unsettled still gives
    # the right bits, only slowly: count the entries, not the time.
    graph = parse_model(BENCH_CONV_STACK)
    load_weights(random_weights(graph, 5), graph)
    session = Session(graph, mean=(123.68, 116.78, 103.94), scale=0.017)
    screen = engine._screen
    calls = captured_screens(monkeypatch)
    for frame in synth_sequence(2, 227, 227, dx=2, dy=1, noise=0.01, seed=5, square=True):
        session.run_frame(frame)
    entries = sum(a.size for _, a, _ in calls)
    unsettled = sum(int(screen(s, a, n)[1].sum()) for s, a, n in calls)
    assert len(calls) == 6 and entries > 100_000
    assert unsettled < 0.005 * entries


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
        spec = LayerSpec("s", "scale", LayerGeom(LayerType.ELEMENTWISE),
                         ["data"], "out", factor=0.5)
        out = elementwise_forward(fmap([[[3.0, -4.0]]]), spec)
        assert np.array_equal(out.data, [[[1.5, -2.0]]])

    def test_bias(self):
        spec = LayerSpec("b", "bias", LayerGeom(LayerType.ELEMENTWISE),
                         ["data"], "out", value=-1.0)
        out = elementwise_forward(fmap([[[3.0, 0.25]]]), spec)
        assert np.array_equal(out.data, [[[2.0, -0.75]]])


class TestReuseBitmap:
    def test_empty(self):
        bm = build_reuse_bitmap([], 6, 4)
        assert bm.shape == (4, 6)
        assert not bm.any()

    def test_counts(self):
        ms = [RegionMapping(dst=Rect(0, 0, 4, 3), src=Rect(1, 1, 4, 3)),
              RegionMapping(dst=Rect(0, 3, 5, 4), src=Rect(0, 0, 5, 4))]
        bm = build_reuse_bitmap(ms, 8, 8)
        assert int(bm.sum()) == 12 + 20
        assert bm[0, 0] and bm[3, 4] and not bm[0, 4]

    def test_full_cover(self):
        bm = build_reuse_bitmap([RegionMapping(dst=Rect(0, 0, 5, 5),
                                               src=Rect(0, 0, 5, 5))], 5, 5)
        assert bm.all()

    def test_overlap_rejected(self):
        ms = [RegionMapping(dst=Rect(0, 0, 4, 4), src=Rect(0, 0, 4, 4)),
              RegionMapping(dst=Rect(3, 3, 4, 4), src=Rect(0, 0, 4, 4))]
        with pytest.raises(RuntimeError):
            build_reuse_bitmap(ms, 8, 8)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(RuntimeError):
            build_reuse_bitmap([RegionMapping(dst=Rect(5, 0, 4, 4),
                                              src=Rect(0, 0, 4, 4))], 8, 8)


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
        fresh = ~build_reuse_bitmap(m, 12, 12)
        assert np.array_equal(bits(out.data[:, fresh]), bits(full.data[:, fresh]))

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
        sess = make_session(cache_enabled=False)
        for f in synth_sequence(3, 32, 32):
            _, metrics = sess.run_frame(f)
            assert metrics.flushed
            assert metrics.copied_pixels == 0

    def test_infinite_threshold_matches_plain_bitwise(self):
        cfg = MatcherConfig(block_size=10, threshold_t=float("inf"),
                            skip_k=1, search_range=8)
        cached = make_session(matcher_cfg=cfg)
        plain = make_session(cache_enabled=False)
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
        plain = make_session(text, seed=2, cache_enabled=False)
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
        # prediction is kept or (after a cut) it searches.  Frame 3 must then
        # run exactly as in a session that never saw frame 2, anchor included.
        # 8-pixel blocks let the pan cover more than PRIOR_MIN of the frame.
        cfg = MatcherConfig(block_size=8, threshold_t=20.0, skip_k=1, search_range=8)
        frames = synth_sequence(4, 32, 32, dx=2, dy=1, noise=0.005, seed=23)
        if cut:
            frames[2] = synth_sequence(1, 32, 32, seed=99)[0]
        sess = make_session(matcher_cfg=cfg)
        for f in frames[:2]:
            sess.run_frame(f)
        real = engine.conv_forward_cached
        matched = []

        def fail_in_c2(input, spec, *args):
            if spec.name == "c2":
                raise RuntimeError("injected")
            return real(input, spec, *args)

        def spy(*args, **kwargs):
            matched.append(real_match(*args, **kwargs))
            return matched[-1]

        real_match = engine.match_frames
        monkeypatch.setattr(engine, "conv_forward_cached", fail_in_c2)
        monkeypatch.setattr(engine, "match_frames", spy)
        with pytest.raises(RuntimeError, match="injected"):
            sess.run_frame(frames[2])
        monkeypatch.undo()
        assert (matched[0].stats.searches > 0) == cut
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
        # A cut leaves an anchor that covers next to nothing.  The next frame
        # of the new shot searches rather than keep a prediction from it, and
        # reuses as a session that started on that shot does; the one after
        # it keeps a prediction from the new anchor.
        cfg = MatcherConfig(block_size=8, threshold_t=25.0, skip_k=1, search_range=8)
        first = synth_sequence(1, 32, 32, seed=41)[0]
        pan = synth_sequence(3, 32, 32, dx=2, dy=1, noise=0.005, seed=43)
        sess = make_session(matcher_cfg=cfg)
        runs = []
        for f in [first] + pan:
            out, metrics = sess.run_frame(f)
            runs.append((out, metrics, sess.last_match))
        assert [m.flushed for _, m, _ in runs] == [True, False, False, False]
        cut = runs[1][2]
        assert cut.stats.searches > 0 and cut.match_ratio < PRIOR_MIN

        fresh = make_session(matcher_cfg=cfg)
        fresh.run_frame(pan[0])
        want_out, want = fresh.run_frame(pan[1])
        out, metrics, match = runs[2]
        assert match.stats.searches > 0 and match == fresh.last_match
        assert metrics.copied_pixels == want.copied_pixels > 0
        assert np.array_equal(bits(out.data), bits(want_out.data))
        assert sess.cache.anchor is match

        _, metrics, match = runs[3]
        assert match.stats.searches == 0 and metrics.copied_pixels > 0

    def test_graph_without_weights_rejected(self):
        with pytest.raises(ValueError, match="no weights loaded"):
            Session(parse_model(MODEL_TEXT))

    def test_mean_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="mean has 2 entries for 3 channels"):
            make_session(mean=[1.0, 2.0])

    def test_input_smaller_than_block_rejected(self):
        text = "input 1 8 8\nc1 conv k=3 out_ch=2 p=1 in=data out=b1\n"
        with pytest.raises(ValueError, match="block"):
            make_session(text)
        plain = make_session(text, cache_enabled=False)
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
        plain = make_session(text, cache_enabled=False)
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
        # of the benchmark's conv stack; only the moving square matches.
        kw = dict(mean=(123.68, 116.78, 103.94), scale=0.017)
        cached = make_session(BENCH_CONV_STACK, seed, matcher_cfg=exact_cfg(), **kw)
        plain = make_session(BENCH_CONV_STACK, seed, cache_enabled=False, **kw)
        copied = 0
        for f in synth_sequence(3, 227, 227, dx=32, dy=16, seed=seed, square=True):
            out_c, metrics = cached.run_frame(f)
            out_p, _ = plain.run_frame(f)
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
