"""How a reusable input region shrinks as it crosses network layers.

A matched region is only reusable at a layer's output where every value's
receptive field lies inside the region, so windowed layers erode it,
layers that read one position across channels (elementwise, lrn, softmax)
pass it through, and fully-connected layers destroy it.

    python3 demos/02_region_propagation.py
"""

from framecache import (LayerGeom, LayerType, Rect, RegionMapping,
                        propagate_mappings, transform_region)

STACK = [
    ("conv 11x11, stride 2, pad 5",
     LayerGeom(LayerType.CONVOLUTION, kernel=11, stride=2, pad=5)),
    ("relu", LayerGeom(LayerType.ELEMENTWISE)),
    ("pool 3x3, stride 2, pad 1",
     LayerGeom(LayerType.POOLING, kernel=3, stride=2, pad=1)),
    ("lrn radius 2 (channels)", LayerGeom(LayerType.LRN, radius=2)),
    ("fully connected", LayerGeom(LayerType.FULLY_CONNECTED)),
]


def fmt(r: Rect) -> str:
    return "(empty)" if r.is_empty else f"({r.x},{r.y}) {r.w}x{r.h}"


def main():
    region = Rect(100, 100, 100, 40)
    print(f"matched input region: {fmt(region)}  [{region.area} px]")
    for label, geom in STACK:
        region = transform_region(region, geom)
        print(f"  after {label:28s} -> {fmt(region)}")

    print("\nA full mapping (destination + source) moves the same way:")
    mapping = RegionMapping(dst=Rect(100, 100, 100, 40),
                            src=Rect(120, 120, 100, 40))
    print(f"  input: copy {fmt(mapping.dst)} from {fmt(mapping.src)}")
    geom = LayerGeom(LayerType.CONVOLUTION, kernel=11, stride=2, pad=5)
    out = propagate_mappings([mapping], geom)
    for m in out:
        print(f"  conv output: copy {fmt(m.dst)} from {fmt(m.src)}")

    print("\nErosion in the small: a 5x5 patch through conv 3x3 s=1 p=1")
    r = transform_region(Rect(0, 0, 5, 5),
                         LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=1))
    print(f"  only the central {r.w}x{r.h} of the output is safe to copy")


if __name__ == "__main__":
    main()
