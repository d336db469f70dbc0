"""Shared geometric and tensor types.

Coordinate convention used everywhere in this package: ``x`` is the column,
``y`` is the row, origin at the top-left corner.  Image and feature-map data
is stored channel-major ("planar"): an array of shape ``(channels, height,
width)`` whose flattened form is all of channel 0, then channel 1, and so on,
row-major within each channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMPTY_RECT: "Rect"


@dataclass(frozen=True, order=True)
class Rect:
    """Integer rectangle: left-top corner (x, y), width w, height h.

    A rectangle with zero width or height is "empty"; empty rectangles are
    normalized to (0, 0, 0, 0) so equality checks are canonical.
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative extent: {self.w}x{self.h}")

    @property
    def is_empty(self) -> bool:
        return self.w == 0 or self.h == 0

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def x2(self) -> int:
        """One past the rightmost column."""
        return self.x + self.w

    @property
    def y2(self) -> int:
        """One past the bottom row."""
        return self.y + self.h

    def translate(self, dx: int, dy: int) -> "Rect":
        if self.is_empty:
            return EMPTY_RECT
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def contains(self, other: "Rect") -> bool:
        if other.is_empty:
            return True
        return (self.x <= other.x and self.y <= other.y
                and other.x2 <= self.x2 and other.y2 <= self.y2)


EMPTY_RECT = Rect(0, 0, 0, 0)


def rect_intersect(a: Rect, b: Rect) -> Rect:
    """Maximal rectangle contained in both a and b; EMPTY_RECT when disjoint."""
    x1 = max(a.x, b.x)
    y1 = max(a.y, b.y)
    x2 = min(a.x2, b.x2)
    y2 = min(a.y2, b.y2)
    if x2 <= x1 or y2 <= y1 or a.is_empty or b.is_empty:
        return EMPTY_RECT
    return Rect(x1, y1, x2 - x1, y2 - y1)


@dataclass(frozen=True)
class RegionMapping:
    """A reusable region: dst in the current frame maps to src in the previous.

    Both rectangles always have identical width and height; region
    transformations apply to both sides alike.
    """

    dst: Rect
    src: Rect

    def __post_init__(self):
        if self.dst.w != self.src.w or self.dst.h != self.src.h:
            raise ValueError(f"dst/src size mismatch: {self.dst} vs {self.src}")

    @property
    def offset(self) -> tuple[int, int]:
        """(dx, dy) such that src = dst translated by (dx, dy)."""
        return (self.src.x - self.dst.x, self.src.y - self.dst.y)


def _planar(data: np.ndarray, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr.ndim != 3:
        raise ValueError(f"expected (channels, height, width) array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Frame:
    """8-bit image: uint8 array of shape (channels, height, width), read-only.

    Data of another dtype must hold only integers in [0, 255].
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        # The range test comes first: NaN and inf fail it without a cast.
        if data.dtype != np.uint8 and not (np.all((data >= 0) & (data <= 255))
                                           and np.all(data == np.round(data))):
            raise ValueError("frame data is not exactly representable as uint8")
        object.__setattr__(self, "data", _planar(data, np.uint8))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class FeatureMap:
    """Layer data: float32 array of shape (channels, height, width), read-only."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _planar(self.data, np.float32))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]
