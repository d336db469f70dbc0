"""The accuracy/work dial: sweeping the PSNR acceptance threshold.

A lower threshold accepts rougher block matches, so more of each frame is
copied (less compute) at the price of larger divergence from the uncached
result.  An infinite threshold accepts nothing and must agree bitwise.

    python3 demos/04_threshold_tradeoff.py
"""

import numpy as np

from framecache import (MatcherConfig, Session, load_weights, parse_model,
                        random_weights, synth_sequence)

MODEL = """\
input 3 64 64
c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1
r1 relu in=b1 out=b2
c2 conv k=3 s=1 p=1 out_ch=8 in=b2 out=b3
f1 fc out=10 in=b3 out=b4
sm softmax in=b4 out=prob
"""


def run(threshold: float, frames):
    graph = parse_model(MODEL)
    load_weights(random_weights(graph, seed=1), graph)
    cfg = MatcherConfig(block_size=10, threshold_t=threshold, skip_k=2)
    cached = Session(graph, matcher_cfg=cfg, expire_n=10)

    oracle_graph = parse_model(MODEL)
    load_weights(random_weights(oracle_graph, seed=1), oracle_graph)
    plain = Session(oracle_graph, expire_n=1)

    ratios, mses, computed, total = [], [], 0, 0
    for frame in frames:
        out_c, m = cached.run_frame(frame)
        out_p, _ = plain.run_frame(frame)
        diff = out_c.data.astype(np.float64) - out_p.data.astype(np.float64)
        mses.append(float(np.mean(diff * diff)))
        ratios.append(m.match_ratio)
        computed += m.computed_macs
        total += m.total_macs
    return (sum(ratios) / len(ratios), computed / total,
            sum(mses) / len(mses))


def main():
    # leftward drift parks the wrap seam in the grid's excluded margin, so
    # the motion estimate stays stable across thresholds and the sweep
    # isolates the verification stage
    frames = synth_sequence(15, 64, 64, dx=-2, noise=0.03, seed=6)
    print(f"{'threshold':>9} {'match':>6} {'MACs done':>9} {'output MSE':>12}")
    for t in (5.0, 10.0, 20.0, 30.0, 40.0, float("inf")):
        ratio, frac, mse = run(t, frames)
        label = "inf" if t == float("inf") else f"{t:.0f}"
        print(f"{label:>9} {ratio:>6.3f} {frac:>8.1%} {mse:>12.3e}")
    print("\nmatch ratio falls as the threshold rises; at +inf nothing is")
    print("reused and the cached engine equals the oracle exactly")


if __name__ == "__main__":
    main()
