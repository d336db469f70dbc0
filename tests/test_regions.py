import pytest
from hypothesis import given
from hypothesis import strategies as st

from framecache import (EMPTY_RECT, LayerGeom, LayerType, Rect, RegionMapping,
                        concat_mappings, propagate_mappings, rect_intersect,
                        transform_mapping, transform_region)

from reference import window_columns

CONV_11_2_5 = LayerGeom(LayerType.CONVOLUTION, kernel=11, stride=2, pad=5)
POOL_3_2_1 = LayerGeom(LayerType.POOLING, kernel=3, stride=2, pad=1)
RELU = LayerGeom(LayerType.ELEMENTWISE)
WINDOWED = (LayerType.CONVOLUTION, LayerType.POOLING)


class TestWindowedTransform:
    def test_conv_fixture(self):
        out = transform_region(Rect(100, 100, 100, 40), CONV_11_2_5)
        assert out == Rect(53, 53, 45, 15)

    def test_elementwise_identity(self):
        assert transform_region(Rect(53, 53, 45, 15), RELU) == Rect(53, 53, 45, 15)

    def test_pool_fixture(self):
        out = transform_region(Rect(53, 53, 45, 15), POOL_3_2_1)
        assert out == Rect(27, 27, 22, 7)

    def test_chain_composition(self):
        r = Rect(100, 100, 100, 40)
        r = transform_region(r, CONV_11_2_5)
        r = transform_region(r, RELU)
        r = transform_region(r, POOL_3_2_1)
        assert r == Rect(27, 27, 22, 7)

    def test_erosion_fixture(self):
        # 5x5 region through a 3x3 stride-1 pad-1 window leaves the center 3x3
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=1)
        assert transform_region(Rect(0, 0, 5, 5), geom) == Rect(1, 1, 3, 3)

    def test_region_narrower_than_kernel_dies(self):
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=5, stride=1, pad=0)
        assert transform_region(Rect(10, 10, 4, 20), geom) == EMPTY_RECT
        assert transform_region(Rect(10, 10, 20, 4), geom) == EMPTY_RECT
        assert transform_region(Rect(10, 10, 5, 5), geom) == Rect(10, 10, 1, 1)

    def test_empty_in_empty_out(self):
        assert transform_region(EMPTY_RECT, CONV_11_2_5) == EMPTY_RECT

    @given(st.integers(0, 40), st.integers(1, 40), st.integers(0, 10), st.integers(1, 7),
           st.integers(1, 4), st.integers(0, 5), st.sampled_from(list(WINDOWED)))
    def test_matches_window_oracle(self, x, w, margin, k, s, p, layer_type):
        # the output rect is exactly the brute-force set of output columns
        # whose windows fit fully inside the region, at any offset, and
        # lies inside the output plane of any input plane holding the region
        rect = Rect(x, x, w, w)
        out = transform_region(rect, LayerGeom(layer_type, kernel=k, stride=s, pad=p))
        cols = window_columns(rect.x, rect.w, k, s, p)
        assert list(range(out.x, out.x2)) == cols
        if not out.is_empty:
            assert (out.y, out.h) == (out.x, out.w)
            assert out.x2 <= (rect.x2 + margin + 2 * p - k) // s + 1

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 50), st.integers(1, 50),
           st.integers(1, 7), st.integers(0, 5))
    def test_stride1_monotone_containment(self, x, y, w, h, k, p):
        # for stride 1, growing the input rect never shrinks the output
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=k, stride=1, pad=p)
        inner = Rect(x + 1, y + 1, w, h)
        outer = Rect(x, y, w + 3, h + 3)
        t_inner = transform_region(inner, geom)
        t_outer = transform_region(outer, geom)
        if not t_inner.is_empty:
            assert t_outer.contains(t_inner)


class TestOtherTransforms:
    def test_lrn_passes_through(self):
        # lrn mixes channels at one (y, x), so its radius erodes nothing
        geom = LayerGeom(LayerType.LRN, radius=2)
        assert transform_region(Rect(10, 10, 10, 8), geom) == Rect(10, 10, 10, 8)

    def test_lrn_keeps_a_thin_rect(self):
        geom = LayerGeom(LayerType.LRN, radius=3)
        assert transform_region(Rect(0, 0, 6, 20), geom) == Rect(0, 0, 6, 20)

    def test_fully_connected_destroys(self):
        geom = LayerGeom(LayerType.FULLY_CONNECTED)
        assert transform_region(Rect(5, 5, 100, 100), geom) == EMPTY_RECT

    def test_softmax_passes_through(self):
        # softmax normalizes over channels at one (y, x)
        assert transform_region(Rect(0, 0, 3, 3),
                                LayerGeom(LayerType.SOFTMAX)) == Rect(0, 0, 3, 3)

    def test_concat_rejected_here(self):
        with pytest.raises(ValueError):
            transform_region(Rect(0, 0, 5, 5), LayerGeom(LayerType.CONCAT))


def still(rect: Rect) -> RegionMapping:
    """A mapping that reuses rect in place (zero offset)."""
    return RegionMapping(dst=rect, src=rect)


class TestConcatTransform:
    """What concat does to reusable rectangles, through concat_mappings."""

    def test_intersection(self):
        out = concat_mappings([[still(Rect(0, 0, 10, 10))], [still(Rect(5, 5, 10, 10))]])
        assert out == [still(Rect(5, 5, 5, 5))]

    def test_empty_input_kills(self):
        # a branch without mappings has an empty reusable region, even
        # after the branches before it already agreed on one
        a, b = [still(Rect(0, 0, 10, 10))], [still(Rect(2, 2, 10, 10))]
        assert concat_mappings([a, b]) == [still(Rect(2, 2, 8, 8))]
        assert concat_mappings([a, b, []]) == []

    def test_single_input_identity(self):
        a = [still(Rect(3, 4, 5, 6)), still(Rect(9, 4, 2, 2))]
        assert concat_mappings([a]) == a


class TestPropagateMappings:
    def test_fig_mapping_pair(self):
        m = RegionMapping(dst=Rect(100, 100, 100, 40), src=Rect(120, 120, 100, 40))
        out = propagate_mappings([m], CONV_11_2_5)
        assert out == [RegionMapping(dst=Rect(53, 53, 45, 15), src=Rect(63, 63, 45, 15))]

    def test_fully_connected_drops_all(self):
        m = RegionMapping(dst=Rect(0, 0, 50, 50), src=Rect(10, 10, 50, 50))
        assert propagate_mappings([m], LayerGeom(LayerType.FULLY_CONNECTED)) == []

    def test_empty_list(self):
        assert propagate_mappings([], CONV_11_2_5) == []

    def test_sizes_stay_equal_after_asymmetric_clip(self):
        # offset (2, 1) is not a multiple of stride 4: dst keeps outputs
        # 0-2 on each axis and src only 1-2, so dst shrinks to src's 2x2
        # from its left-top corner
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=11, stride=4)
        m = RegionMapping(dst=Rect(0, 0, 20, 20), src=Rect(2, 1, 20, 20))
        assert propagate_mappings([m], geom) == [
            RegionMapping(dst=Rect(0, 0, 2, 2), src=Rect(1, 1, 2, 2))]

    def test_transform_mapping_none_when_side_dies(self):
        # dst keeps output (0, 0); src's window would start at 2 and end
        # past its input rect [1, 4)
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=2)
        m = RegionMapping(dst=Rect(0, 0, 3, 3), src=Rect(1, 1, 3, 3))
        assert transform_region(m.dst, geom) == Rect(0, 0, 1, 1)
        assert transform_mapping(m, geom) is None

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 5), st.integers(1, 4), st.integers(0, 3),
           st.sampled_from(list(WINDOWED)))
    def test_dst_disjointness_preserved(self, cols, rows, bw, bh, k, s, p, layer_type):
        # grid rects tiling the plane, through any window geometry (k < s
        # too): dsts stay disjoint, and each is exactly the brute-force
        # set of outputs whose window lies inside its input rect
        geom = LayerGeom(layer_type, kernel=k, stride=s, pad=p)
        ms = [still(Rect(c * bw, r * bh, bw, bh)) for c in range(cols) for r in range(rows)]
        out = propagate_mappings(ms, geom)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                assert rect_intersect(a.dst, b.dst).is_empty
        want = []
        for m in ms:
            xs = window_columns(m.dst.x, m.dst.w, k, s, p)
            ys = window_columns(m.dst.y, m.dst.h, k, s, p)
            if xs and ys:
                want.append(still(Rect(xs[0], ys[0], len(xs), len(ys))))
        assert out == want


class TestConcatMappings:
    def test_agreeing_offsets_intersect(self):
        a = [RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(2, 2, 10, 10))]
        b = [RegionMapping(dst=Rect(5, 5, 10, 10), src=Rect(7, 7, 10, 10))]
        out = concat_mappings([a, b])
        assert out == [RegionMapping(dst=Rect(5, 5, 5, 5), src=Rect(7, 7, 5, 5))]

    def test_conflicting_offsets_dropped(self):
        a = [RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(2, 2, 10, 10))]
        b = [RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(3, 2, 10, 10))]
        assert concat_mappings([a, b]) == []

    def test_branch_without_mappings_kills(self):
        a = [RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(0, 0, 10, 10))]
        assert concat_mappings([a, []]) == []
        assert concat_mappings([]) == []

    def test_single_branch_passthrough(self):
        a = [RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(1, 0, 10, 10))]
        assert concat_mappings([a]) == a


class TestLayerGeomValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kernel": 0}, {"stride": 0}, {"pad": -1},
    ])
    def test_bad_window(self, kwargs):
        base = {"kernel": 3, "stride": 1, "pad": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            LayerGeom(LayerType.CONVOLUTION, **base)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            LayerGeom(LayerType.LRN, radius=-1)
