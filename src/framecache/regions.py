"""Propagation of reusable regions through network layers.

A rectangle that is valid for reuse in a layer's input shrinks (or survives,
or dies) on the way to that layer's output, depending on the layer type.
Windowed layers (convolution, pooling) keep only output pixels whose entire
input window lies inside the rectangle; cross-channel normalization erodes
the rectangle by its half-window on each side; elementwise layers pass it
through untouched; fully connected layers and softmax mix every input into
every output, so nothing survives; concatenation keeps the area reusable in
every input branch.

Source and destination rectangles of a mapping transform with identical
geometry, so equal sizes in imply equal sizes out (clipping aside).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import EMPTY_RECT, Rect, RegionMapping, rect_clip, rect_intersect


class LayerType(enum.Enum):
    CONVOLUTION = "convolution"
    POOLING = "pooling"
    LRN = "lrn"
    CONCAT = "concat"
    FULLY_CONNECTED = "fully_connected"
    SOFTMAX = "softmax"
    ELEMENTWISE = "elementwise"


# Layer types whose output rectangle is computed from a sliding input window.
_WINDOWED = (LayerType.CONVOLUTION, LayerType.POOLING)
# Layer types where every output element depends on every input element.
_GLOBAL = (LayerType.FULLY_CONNECTED, LayerType.SOFTMAX)


@dataclass(frozen=True)
class LayerGeom:
    """Geometry of one layer as seen by region propagation.

    kernel/stride/pad describe conv and pool windows; radius the LRN
    half-window.
    """

    layer_type: LayerType
    kernel: int = 1
    stride: int = 1
    pad: int = 0
    radius: int = 0

    def __post_init__(self):
        if self.layer_type in _WINDOWED:
            if self.kernel < 1 or self.stride < 1 or self.pad < 0:
                raise ValueError(f"bad window geometry {self}")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def transform_region(rect: Rect, geom: LayerGeom,
                     out_w: int | None = None, out_h: int | None = None) -> Rect:
    """Map an input-plane rectangle to the output-plane rectangle whose
    values depend only on pixels inside it.

    For conv/pool the first surviving output column is the first whose
    window starts at or after the rectangle's left edge in padded
    coordinates, ceil((x + p) / s); the surviving width counts the windows
    that fit fully inside, floor((w - k) / s) + 1.  A rectangle narrower
    than the kernel dies.  LRN insets by its radius, fully connected and
    softmax destroy reusability, elementwise types are the identity.

    Pass out_w/out_h to clip the result to the output plane; padding can
    otherwise admit window positions past the plane's edge.  Concat is not
    handled here (see concat_mappings).
    """
    if rect.is_empty:
        return EMPTY_RECT

    t = geom.layer_type
    if t in _WINDOWED:
        k, s, p = geom.kernel, geom.stride, geom.pad
        if rect.w < k or rect.h < k:
            return EMPTY_RECT
        out = Rect(
            _ceil_div(rect.x + p, s),
            _ceil_div(rect.y + p, s),
            (rect.w - k) // s + 1,
            (rect.h - k) // s + 1,
        )
    elif t is LayerType.LRN:
        r = geom.radius
        if rect.w <= 2 * r or rect.h <= 2 * r:
            return EMPTY_RECT
        out = Rect(rect.x + r, rect.y + r, rect.w - 2 * r, rect.h - 2 * r)
    elif t in _GLOBAL:
        return EMPTY_RECT
    elif t is LayerType.ELEMENTWISE:
        out = rect
    else:
        raise ValueError(f"transform_region does not handle {t}")

    if out_w is not None and out_h is not None:
        out = rect_clip(out, out_w, out_h)
    return out


def transform_mapping(m: RegionMapping, geom: LayerGeom,
                      out_w: int | None = None, out_h: int | None = None) -> RegionMapping | None:
    """Transform both sides of a mapping through one layer; None if it dies.

    Clipping can trim dst and src asymmetrically (one near the plane edge,
    the other interior).  The two sides must stay congruent, so both are
    shrunk to the common minimum width/height, anchored at their left-top
    corners (clipping never moves a left-top corner since transformed
    coordinates are non-negative).
    """
    dst = transform_region(m.dst, geom, out_w, out_h)
    src = transform_region(m.src, geom, out_w, out_h)
    if dst.is_empty or src.is_empty:
        return None
    w = min(dst.w, src.w)
    h = min(dst.h, src.h)
    return RegionMapping(dst=Rect(dst.x, dst.y, w, h), src=Rect(src.x, src.y, w, h))


def propagate_mappings(mappings: list[RegionMapping], geom: LayerGeom,
                       out_w: int, out_h: int) -> list[RegionMapping]:
    """Transform a mapping list through one layer, dropping casualties.

    Output dst rectangles stay pairwise disjoint.  For the supported
    geometries an output pixel's window fits inside at most one disjoint
    input rectangle, so overlap cannot actually arise; the trim pass that
    drops a mapping whose dst overlaps an earlier one is a guard against
    rounding corner cases, not an expected path.
    """
    out: list[RegionMapping] = []
    for m in mappings:
        t = transform_mapping(m, geom, out_w, out_h)
        if t is None:
            continue
        if any(not rect_intersect(t.dst, kept.dst).is_empty for kept in out):
            continue
        out.append(t)
    return out


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
