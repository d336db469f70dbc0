"""Propagation of reusable regions through network layers.

One rule serves every layer: an output value is reusable exactly when
every input value it reads lies inside the reusable input rectangle.
Windowed layers (convolution, pooling) therefore keep the outputs whose
whole window lies inside the rectangle, which never reads padding;
elementwise layers, cross-channel normalization and softmax among them,
read one spatial position across channels, so the rectangle passes
through; fully connected layers read every input, so nothing survives;
concatenation keeps the area reusable in every input branch.

Source and destination rectangles of a mapping transform with identical
geometry, so they keep equal sizes whenever their offset is a multiple of
the layer's stride.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import EMPTY_RECT, Rect, RegionMapping, rect_intersect


class LayerType(enum.Enum):
    CONVOLUTION = "convolution"
    POOLING = "pooling"
    CONCAT = "concat"
    FULLY_CONNECTED = "fully_connected"
    # Every output reads only its own spatial position.
    ELEMENTWISE = "elementwise"


# Layer types whose output rectangle is computed from a sliding input window.
_WINDOWED = (LayerType.CONVOLUTION, LayerType.POOLING)


@dataclass(frozen=True)
class LayerGeom:
    """Geometry of one layer as seen by region propagation.

    kernel/stride/pad describe conv and pool windows.
    """

    layer_type: LayerType
    kernel: int = 1
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.layer_type in _WINDOWED:
            if self.kernel < 1 or self.stride < 1 or self.pad < 0:
                raise ValueError(f"bad window geometry {self}")


def _window_span(start: int, size: int, k: int, s: int, p: int) -> tuple[int, int]:
    """First output index and count of the windows inside [start, start + size).

    Output i reads inputs [i*s - p, i*s - p + k), so the windows inside are
    those with ceil((start + p) / s) <= i <= floor((start + size + p - k) / s).
    """
    first = -(-(start + p) // s)
    return first, max(0, (start + size + p - k) // s - first + 1)


def transform_region(rect: Rect, geom: LayerGeom) -> Rect:
    """Map an input-plane rectangle to the output-plane rectangle whose
    values read only pixels inside it.

    A rectangle inside the input plane maps inside the output plane, since
    no window inside it reaches the padding.  Concat is not handled here
    (see concat_mappings).
    """
    if rect.is_empty:
        return EMPTY_RECT
    t = geom.layer_type
    if t in _WINDOWED:
        x, w = _window_span(rect.x, rect.w, geom.kernel, geom.stride, geom.pad)
        y, h = _window_span(rect.y, rect.h, geom.kernel, geom.stride, geom.pad)
        return Rect(x, y, w, h) if w and h else EMPTY_RECT
    if t is LayerType.ELEMENTWISE:
        return rect
    if t is LayerType.FULLY_CONNECTED:
        return EMPTY_RECT
    raise ValueError(f"transform_region does not handle {t}")


def transform_mapping(m: RegionMapping, geom: LayerGeom) -> RegionMapping | None:
    """Transform both sides of a mapping through one layer; None if it dies.

    Each dst output is paired with the src output at the same place in
    its rectangle.  Their windows are the same input pixels moved by the
    offset only when the offset is a multiple of the stride; otherwise the
    copies are approximations, and the two sides may differ in size (they
    differ only then).  Both are shrunk to the common minimum width/height,
    anchored at their left-top corners.
    """
    dst = transform_region(m.dst, geom)
    src = transform_region(m.src, geom)
    if dst.is_empty or src.is_empty:
        return None
    w = min(dst.w, src.w)
    h = min(dst.h, src.h)
    return RegionMapping(dst=Rect(dst.x, dst.y, w, h), src=Rect(src.x, src.y, w, h))


def propagate_mappings(mappings: list[RegionMapping], geom: LayerGeom) -> list[RegionMapping]:
    """Transform a mapping list through one layer, dropping casualties.

    Disjoint dst rectangles stay disjoint: an output's input window lies
    inside at most one of them.  An elementwise layer passes every
    non-empty mapping through as it is and a fully connected layer none,
    so neither builds new Rects.
    """
    if geom.layer_type is LayerType.ELEMENTWISE:
        return [m for m in mappings if not m.dst.is_empty]
    if geom.layer_type is LayerType.FULLY_CONNECTED:
        return []
    out = (transform_mapping(m, geom) for m in mappings)
    return [m for m in out if m is not None]


def concat_mappings(per_input: list[list[RegionMapping]]) -> list[RegionMapping]:
    """Combine per-input mapping lists across a concat layer.

    A pixel of the concatenated output is reusable only where every input
    branch offers a mapping, and only if those mappings agree on the
    dst-to-src offset; a pixel whose branches would copy from different
    places has no single source.  Each surviving mapping is the pairwise
    intersection of dst rectangles with agreeing offsets.
    """
    if not per_input:
        return []
    combined = [(m.dst, m.offset) for m in per_input[0]]
    for branch in per_input[1:]:
        nxt = []
        for dst, off in combined:
            for m in branch:
                if m.offset != off:
                    continue
                inter = rect_intersect(dst, m.dst)
                if not inter.is_empty:
                    nxt.append((inter, off))
        combined = nxt
        if not combined:
            break
    out = [RegionMapping(dst=d, src=d.translate(*off)) for d, off in combined]
    out.sort(key=lambda m: (m.dst.y, m.dst.x))
    return out
