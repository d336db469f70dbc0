import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framecache import EMPTY_RECT, FeatureMap, Frame, Rect, RegionMapping, rect_intersect

rects = st.builds(Rect,
                  st.integers(-50, 50), st.integers(-50, 50),
                  st.integers(0, 60), st.integers(0, 60))


class TestRect:
    def test_fields_and_edges(self):
        r = Rect(2, 3, 4, 5)
        assert (r.x, r.y, r.w, r.h) == (2, 3, 4, 5)
        assert r.x2 == 6 and r.y2 == 8
        assert r.area == 20
        assert not r.is_empty

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 5)
        with pytest.raises(ValueError):
            Rect(0, 0, 5, -2)

    def test_empty_variants(self):
        assert Rect(3, 3, 0, 7).is_empty
        assert Rect(3, 3, 7, 0).is_empty
        assert EMPTY_RECT.is_empty and EMPTY_RECT.area == 0

    def test_translate(self):
        assert Rect(1, 2, 3, 4).translate(10, -2) == Rect(11, 0, 3, 4)
        # empty stays canonical regardless of offset
        assert Rect(5, 5, 0, 3).translate(1, 1) == EMPTY_RECT

    def test_contains(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(2, 2, 3, 3))
        assert outer.contains(outer)
        assert not outer.contains(Rect(8, 8, 5, 5))


class TestIntersect:
    def test_overlap(self):
        assert rect_intersect(Rect(0, 0, 10, 10), Rect(5, 5, 10, 10)) == Rect(5, 5, 5, 5)

    def test_identity(self):
        r = Rect(0, 0, 10, 10)
        assert rect_intersect(r, r) == r

    def test_touching_edges_empty(self):
        assert rect_intersect(Rect(0, 0, 4, 4), Rect(4, 0, 4, 4)) == EMPTY_RECT

    def test_disjoint_normalized(self):
        out = rect_intersect(Rect(0, 0, 2, 2), Rect(30, 30, 2, 2))
        assert out == EMPTY_RECT
        assert (out.x, out.y, out.w, out.h) == (0, 0, 0, 0)

    @given(rects, rects)
    def test_commutative(self, a, b):
        assert rect_intersect(a, b) == rect_intersect(b, a)

    @given(rects, rects, rects)
    def test_associative(self, a, b, c):
        lhs = rect_intersect(rect_intersect(a, b), c)
        rhs = rect_intersect(a, rect_intersect(b, c))
        assert lhs == rhs

    @given(rects)
    def test_idempotent(self, a):
        assert rect_intersect(a, a) == (EMPTY_RECT if a.is_empty else a)

    @given(rects, rects)
    def test_contained_in_both(self, a, b):
        out = rect_intersect(a, b)
        if not out.is_empty:
            assert a.contains(out) and b.contains(out)


class TestRegionMapping:
    def test_offset(self):
        m = RegionMapping(dst=Rect(1, 2, 5, 5), src=Rect(4, 0, 5, 5))
        assert m.offset == (3, -2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RegionMapping(dst=Rect(0, 0, 5, 5), src=Rect(0, 0, 5, 6))


class TestFrameTypes:
    def test_frame_shape_and_props(self):
        f = Frame(np.zeros((3, 4, 6), dtype=np.uint8))
        assert (f.channels, f.height, f.width) == (3, 4, 6)

    def test_frame_requires_3d(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((4, 6), dtype=np.uint8))

    @pytest.mark.parametrize("value", [300, -1, 2.7, np.nan, np.inf])
    def test_frame_rejects_values_uint8_cannot_hold(self, value):
        with pytest.raises(ValueError, match="uint8"):
            Frame(np.full((3, 4, 4), value))

    def test_frame_takes_whole_values_of_any_dtype(self):
        f = Frame(np.array([[[0.0, 7.0, 255.0]]]))
        assert f.data.dtype == np.uint8 and f.data.tolist() == [[[0, 7, 255]]]

    def test_frame_data_read_only(self):
        f = Frame(np.zeros((1, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            f.data[0, 0, 0] = 1

    def test_featuremap_dtype(self):
        fm = FeatureMap(np.ones((2, 3, 3)))
        assert fm.data.dtype == np.float32
        assert (fm.channels, fm.height, fm.width) == (2, 3, 3)
