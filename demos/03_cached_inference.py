"""Cached inference over a synthetic clip, against the uncached oracle.

Runs the same frames through two sessions; the cached one matches each
frame against its predecessor, propagates the reusable regions through
the network, and copies cached convolution outputs instead of recomputing
them.  Prints per-frame work and the final agreement.

    python3 demos/03_cached_inference.py
"""

import numpy as np

from framecache import (MatcherConfig, Session, load_weights, parse_model,
                        random_weights, synth_sequence)

MODEL = """\
input 3 96 96
c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1
r1 relu in=b1 out=b2
c2 conv k=3 s=1 p=1 out_ch=12 in=b2 out=b3
r2 relu in=b3 out=b4
p1 pool k=3 s=2 p=1 in=b4 out=b5
f1 fc out=10 in=b5 out=b6
sm softmax in=b6 out=prob
"""


def build(expire_n: int) -> Session:
    graph = parse_model(MODEL)
    load_weights(random_weights(graph, seed=7), graph)
    cfg = MatcherConfig(block_size=10, threshold_t=20.0, skip_k=2)
    return Session(graph, matcher_cfg=cfg, expire_n=expire_n)


def main():
    frames = synth_sequence(20, 96, 96, dx=2, dy=0, noise=0.01, seed=3)
    cached = build(expire_n=10)
    plain = build(expire_n=1)  # every frame flushes: the uncached oracle

    print(f"{'frame':>5} {'flush':>5} {'ratio':>6} {'MACs done':>10} "
          f"{'of total':>9} {'top-1 agree':>11}")
    computed = total = agree = 0
    last_cached_metrics = None
    for i, frame in enumerate(frames, start=1):
        out_c, m = cached.run_frame(frame)
        out_p, _ = plain.run_frame(frame)
        same = np.argmax(out_c.data) == np.argmax(out_p.data)
        agree += int(same)
        computed += m.computed_macs
        total += m.total_macs
        if not m.flushed:
            last_cached_metrics = m
        print(f"{i:>5} {str(m.flushed):>5} {m.match_ratio:>6.3f} "
              f"{m.computed_macs:>10} {m.computed_macs / m.total_macs:>8.1%} "
              f"{str(bool(same)):>11}")

    print(f"\nconvolution work: {computed} of {total} MACs "
          f"({1 - computed / total:.1%} avoided)")
    print(f"top-1 agreement with the uncached oracle: {agree}/{len(frames)}")
    print("\nper-layer split on the last cache-assisted frame:")
    for e in last_cached_metrics.per_layer:
        print(f"  {e.name}: computed {e.computed_macs}, copied {e.copied_pixels} "
              f"output values, total {e.total_macs} MACs")


if __name__ == "__main__":
    main()
