import pytest
from hypothesis import given
from hypothesis import strategies as st

from framecache import (EMPTY_RECT, LayerGeom, LayerType, Rect, RegionMapping,
                        concat_mappings, propagate_mappings, transform_mapping,
                        transform_region)

from reference import window_columns

CONV_11_2_5 = LayerGeom(LayerType.CONVOLUTION, kernel=11, stride=2, pad=5)
POOL_3_2_1 = LayerGeom(LayerType.POOLING, kernel=3, stride=2, pad=1)
RELU = LayerGeom(LayerType.ELEMENTWISE)


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

    def test_clip_to_output_plane(self):
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=2)
        # unclipped right edge passes the 8-wide output plane
        out = transform_region(Rect(2, 2, 8, 8), geom, out_w=8, out_h=8)
        unclipped = transform_region(Rect(2, 2, 8, 8), geom)
        assert unclipped == Rect(4, 4, 6, 6)
        assert out == Rect(4, 4, 4, 4)

    @given(st.integers(0, 40), st.integers(1, 40),
           st.integers(1, 7), st.integers(1, 4), st.integers(0, 5))
    def test_aligned_matches_window_oracle(self, xq, w, k, s, p):
        # at stride-aligned offsets the formula equals the brute-force set
        # of output columns whose windows fit fully inside the region
        x = xq * s - p
        if x < 0:
            x += s * ((p + s - 1) // s + 1)
        rect = Rect(x, x, w, w)
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=k, stride=s, pad=p)
        out = transform_region(rect, geom)
        cols = window_columns(rect.x, rect.w, k, s, p)
        if out.is_empty:
            assert cols == [] or w < k
        else:
            assert out.x == cols[0]
            assert out.x + out.w - 1 == cols[-1]
            assert out.w == len(cols)

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
    def test_lrn_inset(self):
        geom = LayerGeom(LayerType.LRN, radius=2)
        assert transform_region(Rect(10, 10, 10, 8), geom) == Rect(12, 12, 6, 4)

    def test_lrn_collapses(self):
        geom = LayerGeom(LayerType.LRN, radius=3)
        assert transform_region(Rect(0, 0, 6, 20), geom) == EMPTY_RECT

    def test_fully_connected_destroys(self):
        geom = LayerGeom(LayerType.FULLY_CONNECTED)
        assert transform_region(Rect(5, 5, 100, 100), geom) == EMPTY_RECT

    def test_softmax_destroys(self):
        assert transform_region(Rect(0, 0, 3, 3),
                                LayerGeom(LayerType.SOFTMAX)) == EMPTY_RECT

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
        out = propagate_mappings([m], CONV_11_2_5, out_w=113, out_h=113)
        assert out == [RegionMapping(dst=Rect(53, 53, 45, 15), src=Rect(63, 63, 45, 15))]

    def test_fully_connected_drops_all(self):
        m = RegionMapping(dst=Rect(0, 0, 50, 50), src=Rect(10, 10, 50, 50))
        assert propagate_mappings([m], LayerGeom(LayerType.FULLY_CONNECTED), 1, 1) == []

    def test_empty_list(self):
        assert propagate_mappings([], CONV_11_2_5, 113, 113) == []

    def test_sizes_stay_equal_after_asymmetric_clip(self):
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=2)
        # dst hugs the right edge of an 8-wide plane, src is interior
        m = RegionMapping(dst=Rect(2, 2, 8, 8), src=Rect(0, 0, 8, 8))
        out = propagate_mappings([m], geom, out_w=8, out_h=8)
        assert len(out) == 1
        t = out[0]
        assert (t.dst.w, t.dst.h) == (t.src.w, t.src.h)
        assert t.dst == Rect(4, 4, 4, 4)
        # left-top anchored shrink keeps the original corner correspondence
        assert t.src == Rect(2, 2, 4, 4)

    def test_transform_mapping_none_when_side_dies(self):
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=0)
        m = RegionMapping(dst=Rect(0, 0, 10, 10), src=Rect(-20, 0, 10, 10))
        assert transform_mapping(m, geom, out_w=6, out_h=62) is None

    def test_dst_disjointness_preserved(self):
        geom = LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=2, pad=1)
        ms = [RegionMapping(dst=Rect(x, y, 10, 10), src=Rect(x, y, 10, 10))
              for x in (0, 10, 20) for y in (0, 10)]
        out = propagate_mappings(ms, geom, out_w=16, out_h=16)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                iw = min(a.dst.x2, b.dst.x2) - max(a.dst.x, b.dst.x)
                ih = min(a.dst.y2, b.dst.y2) - max(a.dst.y, b.dst.y)
                assert iw <= 0 or ih <= 0


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
