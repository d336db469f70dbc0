"""End-to-end acceptance checks.

Each test contributes exactly one PASS/FAIL line to the scorecard printed
after the run (see conftest).  Bounds that look arbitrary are frozen here
on purpose; loosening them to make a failure go away defeats their point.
"""

import time

import numpy as np

from conftest import SCORECARD
from framecache import (Frame, LayerGeom, LayerType, MatcherConfig, Rect,
                        Session, block_search, load_weights, match_frames,
                        parse_model, partition_grid, random_weights,
                        synth_sequence, transform_region)


def report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    SCORECARD.append(line)
    print(line)
    assert ok, line


def build_session(text, seed, **kw) -> Session:
    graph = parse_model(text)
    load_weights(random_weights(graph, seed), graph)
    return Session(graph, **kw)


FOUR_LAYER = """\
input 3 64 64
c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1
r1 relu in=b1 out=b2
p1 pool k=2 s=2 in=b2 out=b3
f1 fc out=10 in=b3 out=b4
"""

PIPELINE = """\
input 3 96 96
c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1
r1 relu in=b1 out=b2
c2 conv k=3 s=1 p=1 out_ch=12 in=b2 out=b3
r2 relu in=b3 out=b4
p1 pool k=3 s=2 p=1 in=b4 out=b5
f1 fc out=10 in=b5 out=b6
sm softmax in=b6 out=prob
"""


def mac_identity_violations(metrics) -> int:
    bad = 0
    for e in metrics.per_layer:
        expect = e.computed_macs + e.copied_pixels * e.in_channels * e.kernel ** 2
        if expect != e.total_macs:
            bad += 1
    return bad


def test_criterion_01_infinite_threshold_bitwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    frames = [Frame(rng.integers(0, 256, size=(3, 64, 64), dtype=np.uint8))
              for _ in range(20)]
    cfg = MatcherConfig(threshold_t=float("inf"))
    cached = build_session(FOUR_LAYER, seed=1, matcher_cfg=cfg)
    plain = build_session(FOUR_LAYER, seed=1, expire_n=1)
    identical = 0
    for f in frames:
        out_c, _ = cached.run_frame(f)
        out_p, _ = plain.run_frame(f)
        identical += int(np.array_equal(out_c.data, out_p.data))
    elapsed = time.perf_counter() - t0
    ok = identical == 20 and elapsed < 10.0
    report(1, ok, f"threshold=+inf bitwise identical on {identical}/20 frames "
                  f"in {elapsed:.2f}s (< 10 s)")


def test_criterion_02_propagation_chain():
    r0 = Rect(100, 100, 100, 40)
    r1 = transform_region(r0, LayerGeom(LayerType.CONVOLUTION,
                                        kernel=11, stride=2, pad=5))
    r2 = transform_region(r1, LayerGeom(LayerType.ELEMENTWISE))
    r3 = transform_region(r2, LayerGeom(LayerType.POOLING,
                                        kernel=3, stride=2, pad=1))
    ok = (r1 == Rect(53, 53, 45, 15) and r2 == r1 and r3 == Rect(27, 27, 22, 7))
    report(2, ok, f"(100,100,100,40) -> {r1.x, r1.y, r1.w, r1.h} -> relu same "
                  f"-> {r3.x, r3.y, r3.w, r3.h}")


def test_criterion_03_erosion_fixture():
    out = transform_region(Rect(0, 0, 5, 5),
                           LayerGeom(LayerType.CONVOLUTION, kernel=3, stride=1, pad=1))
    ok = out == Rect(1, 1, 3, 3)
    report(3, ok, f"5x5 through conv(k=3,s=1,p=1) -> central {out.w}x{out.h} "
                  f"at ({out.x},{out.y})")


def test_criterion_04_repeated_frame_fixpoint():
    frame = synth_sequence(1, 64, 64, seed=4)[0]
    sess = build_session(FOUR_LAYER, seed=4, expire_n=10)
    outputs, flushed, copied = [], [], []
    for _ in range(12):
        out, m = sess.run_frame(Frame(frame.data.copy()))
        outputs.append(out.data)
        flushed.append(m.flushed)
        copied.append(m.copied_pixels)
    all_equal = all(np.array_equal(outputs[0], o) for o in outputs[1:])
    flush_ok = [i + 1 for i, f in enumerate(flushed) if f] == [1, 11]
    copy_ok = all(c > 0 for i, c in enumerate(copied) if i + 1 not in (1, 11))
    ok = all_equal and flush_ok and copy_ok
    report(4, ok, f"12 identical frames: outputs all equal={all_equal}, "
                  f"flushed at {[i + 1 for i, f in enumerate(flushed) if f]}, "
                  f"reuse on others={copy_ok}")


def test_criterion_05_mac_accounting_identity():
    checked = 0
    bad = 0
    for dx, dy, noise, seed in [(0, 0, 0.0, 1), (2, 0, 0.0, 2), (3, -2, 0.02, 3)]:
        sess = build_session(PIPELINE, seed=5, expire_n=5)
        for f in synth_sequence(8, 96, 96, dx=dx, dy=dy, noise=noise, seed=seed):
            _, m = sess.run_frame(f)
            bad += mac_identity_violations(m)
            checked += len(m.per_layer)
    ok = bad == 0 and checked == 3 * 8 * 2
    report(5, ok, f"computed + copied*in_ch*k^2 == total on {checked - bad}/"
                  f"{checked} conv-layer records")


def test_criterion_06_matcher_vs_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ds_hits = ds_total = 0
    es_hits = es_total = 0
    cfg_ds = MatcherConfig(block_size=10, search_range=16, strategy="diamond")
    cfg_es = MatcherConfig(block_size=10, search_range=16, strategy="exhaustive")
    for pair in range(50):
        dx = int(rng.integers(-8, 9))
        dy = int(rng.integers(-8, 9))
        ref, cur = synth_sequence(2, 64, 64, dx=dx, dy=dy, seed=7000 + pair)[:2]
        true = (-dx, -dy)
        for block in partition_grid(64, 64, 10):
            src = block.translate(*true)
            if src.x < 0 or src.y < 0 or src.x2 > 64 or src.y2 > 64:
                continue
            ds = block_search(cur, ref, block, cfg_ds)
            es = block_search(cur, ref, block, cfg_es)
            ds_total += 1
            es_total += 1
            ds_hits += int(ds.offset == true)
            es_hits += int(es.offset == true)
    elapsed = time.perf_counter() - t0
    ds_rate = ds_hits / ds_total
    es_rate = es_hits / es_total
    ok = ds_rate >= 0.95 and es_rate == 1.0 and elapsed < 30.0
    report(6, ok, f"true-offset recovery over {ds_total} interior blocks: "
                  f"diamond {ds_rate:.1%} (>= 95%), exhaustive {es_rate:.1%} "
                  f"(= 100%), {elapsed:.1f}s (< 30 s)")


def test_criterion_07_skip_search_count():
    results = []
    for w, h in [(64, 64), (227, 227)]:
        ref, cur = synth_sequence(2, w, h, dx=1, seed=77)[:2]
        cfg = MatcherConfig(block_size=10, skip_k=2)
        stats = match_frames(cur, ref, cfg).stats
        rows, cols = h // 10, w // 10
        want = -(-rows // 2) * -(-cols // 2)
        results.append((stats.searches, want))
    ok = all(got == want for got, want in results)
    report(7, ok, "skip_k=2 searches exactly ceil(rows/2)*ceil(cols/2): " +
                  ", ".join(f"{got}=={want}" for got, want in results))


def test_criterion_08_threshold_monotonicity():
    # dx < 0 puts the wrap seam inside the excluded right margin, so every
    # grid block is a clean contributor to the motion average at every T;
    # 3% noise parks block PSNRs around 32 dB, inside the sweep band
    frames = synth_sequence(10, 64, 64, dx=-2, noise=0.03, seed=88)
    means = []
    for t in (5.0, 10.0, 20.0, 30.0, 40.0):
        cfg = MatcherConfig(block_size=10, threshold_t=t, skip_k=2)
        ratios = [match_frames(cur, ref, cfg).match_ratio
                  for ref, cur in zip(frames, frames[1:])]
        means.append(sum(ratios) / len(ratios))
    ok = all(a >= b for a, b in zip(means, means[1:]))
    report(8, ok, "mean match_ratio over T=5,10,20,30,40: " +
                  " >= ".join(f"{m:.3f}" for m in means))


def test_criterion_09_matcher_throughput():
    frames = synth_sequence(201, 227, 227, dx=2, dy=1, seed=99)
    cfg = MatcherConfig(block_size=10, threshold_t=20.0, skip_k=2,
                        search_range=16, strategy="diamond")
    t0 = time.perf_counter()
    for ref, cur in zip(frames, frames[1:]):
        match_frames(cur, ref, cfg)
    elapsed = time.perf_counter() - t0
    mean_ms = elapsed * 1000.0 / 200
    ok = mean_ms < 20.0 and elapsed < 60.0
    report(9, ok, f"diamond+skip_k on 200 227x227 RGB pairs: "
                  f"{mean_ms:.2f} ms/pair (< 20), total {elapsed:.1f}s (< 60 s)")


def test_criterion_10_synthetic_end_to_end():
    t0 = time.perf_counter()
    frames = synth_sequence(50, 96, 96, channels=3, dx=2, dy=0,
                            noise=0.01, seed=1010)
    cfg = MatcherConfig(block_size=10, threshold_t=20.0, skip_k=2,
                        search_range=16, strategy="diamond")
    cached = build_session(PIPELINE, seed=10, matcher_cfg=cfg, expire_n=10)
    plain = build_session(PIPELINE, seed=10, expire_n=1)
    ratios = []
    agree = 0
    cached_macs = total_macs = 0
    for f in frames:
        out_c, m = cached.run_frame(f)
        out_p, _ = plain.run_frame(f)
        ratios.append(m.match_ratio)
        cached_macs += m.computed_macs
        total_macs += m.total_macs
        agree += int(np.argmax(out_c.data.ravel()) == np.argmax(out_p.data.ravel()))
    elapsed = time.perf_counter() - t0
    mean_ratio = sum(ratios) / len(ratios)
    reduction = 1.0 - cached_macs / total_macs
    agree_rate = agree / len(frames)
    ok = (mean_ratio >= 0.5 and reduction >= 0.30 and agree_rate >= 0.95
          and elapsed < 120.0)
    report(10, ok, f"50-frame synthetic run: mean match_ratio {mean_ratio:.3f} "
                   f"(>= 0.5), conv MAC reduction {reduction:.1%} (>= 30%), "
                   f"top-1 agreement {agree_rate:.1%} (>= 95%), "
                   f"{elapsed:.1f}s (< 2 min)")
