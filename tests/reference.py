"""Independent reference implementations used as test oracles.

Everything here is written loop-by-loop from the operation definitions,
sharing no code with the package.  Convolution and normalization use the
same per-element term order as the production kernels (bias first, then
input channel / kernel row / kernel col ascending), so comparisons can be
exact rather than approximate.  A fully connected layer has no oracle of
its own: it is conv_naive over its flattened input as the channels of one
pixel, with 1x1 kernels.
"""

import math

import numpy as np


def conv_naive(x, w, b, stride, pad):
    """Six nested loops over a zero-padded input; float64 accumulation."""
    in_c, h, wd = x.shape
    out_c, _, k, _ = w.shape
    padded = np.zeros((in_c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    padded[:, pad:pad + h, pad:pad + wd] = x.astype(np.float64)
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.empty((out_c, oh, ow), dtype=np.float64)
    for oc in range(out_c):
        for oy in range(oh):
            for ox in range(ow):
                acc = float(b[oc])
                for ic in range(in_c):
                    for ky in range(k):
                        for kx in range(k):
                            acc += float(w[oc, ic, ky, kx]) * \
                                float(padded[ic, oy * stride + ky, ox * stride + kx])
                out[oc, oy, ox] = acc
    return out.astype(np.float32)


def pool_naive(x, k, stride, pad, mode="max"):
    in_c, h, wd = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.empty((in_c, oh, ow), dtype=np.float64)
    for c in range(in_c):
        for oy in range(oh):
            for ox in range(ow):
                if mode == "max":
                    best = -math.inf
                    for ky in range(k):
                        for kx in range(k):
                            yy = oy * stride + ky - pad
                            xx = ox * stride + kx - pad
                            if 0 <= yy < h and 0 <= xx < wd:
                                best = max(best, float(x[c, yy, xx]))
                    out[c, oy, ox] = best
                else:
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            yy = oy * stride + ky - pad
                            xx = ox * stride + kx - pad
                            if 0 <= yy < h and 0 <= xx < wd:
                                acc += float(x[c, yy, xx])
                    out[c, oy, ox] = acc / (k * k)
    return out.astype(np.float32)


def lrn_naive(x, radius, alpha, beta, bias):
    """Cross-channel window sums by explicit loops.

    The final power is applied with np.power on the assembled array so the
    transcendental primitive matches the production kernel's; the part
    under test is the window indexing and accumulation order.
    """
    c, h, w = x.shape
    x64 = x.astype(np.float64)
    size = 2 * radius + 1
    acc = np.zeros((c, h, w), dtype=np.float64)
    for ci in range(c):
        for yy in range(h):
            for xx in range(w):
                s = 0.0
                for o in range(-radius, radius + 1):
                    cj = ci + o
                    if 0 <= cj < c:
                        v = float(x64[cj, yy, xx])
                        s += v * v
                acc[ci, yy, xx] = s
    denom = np.power(bias + (alpha / size) * acc, beta)
    return (x64 / denom).astype(np.float32)


def softmax_naive(x):
    c, h, w = x.shape
    x64 = x.astype(np.float64)
    out = np.empty_like(x64)
    for yy in range(h):
        for xx in range(w):
            col = [float(v) for v in x64[:, yy, xx]]
            m = max(col)
            e = [math.exp(v - m) for v in col]
            d = math.fsum(e)
            out[:, yy, xx] = [v / d for v in e]
    return out.astype(np.float32)


def sse_int(a, b):
    """Exact integer sum of squared differences between 8-bit blocks."""
    d = a.astype(np.int64) - b.astype(np.int64)
    return int((d * d).sum())


def psnr_ref(a, b):
    """100 dB for identical blocks, and at most 99 dB for any other."""
    sse = sse_int(a, b)
    if sse == 0:
        return 100.0
    return min(10.0 * math.log10(65025 * a.size / sse), 99.0)


def verify_blocks_ref(cur, ref, blocks, motion, threshold_t):
    """Step 4 block by block: the (x, y, w, h) blocks of cur, in order, whose
    counterpart moved by motion lies inside ref and scores a PSNR above
    threshold_t.  cur/ref are (C, H, W) uint8 arrays."""
    _, h, w = ref.shape
    mx, my = motion
    kept = []
    for x, y, bw, bh in blocks:
        sx, sy = x + mx, y + my
        if sx < 0 or sy < 0 or sx + bw > w or sy + bh > h:
            continue
        if psnr_ref(cur[:, y:y + bh, x:x + bw], ref[:, sy:sy + bh, sx:sx + bw]) > threshold_t:
            kept.append((x, y, bw, bh))
    return kept


def exhaustive_search_ref(cur, ref, block_x, block_y, block_w, block_h, search_range):
    """Scan every in-bounds offset; ties by (|dx|+|dy|, dy, dx).

    cur/ref are (C, H, W) uint8 arrays.  Returns (dx, dy, sse, set of
    distinct (dx, dy) offsets scored, list of the in-range (dx, dy) visits
    in order).
    """
    _, h, w = ref.shape
    cblk = cur[:, block_y:block_y + block_h, block_x:block_x + block_w]
    best = None
    visits = []
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            x = block_x + dx
            y = block_y + dy
            if x < 0 or y < 0 or x + block_w > w or y + block_h > h:
                continue
            sse = sse_int(cblk, ref[:, y:y + block_h, x:x + block_w])
            visits.append((dx, dy))
            key = (sse, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best:
                best = key
                best_off = (dx, dy, sse)
    return (*best_off, set(visits), visits)


def diamond_search_ref(cur, ref, block_x, block_y, block_w, block_h, search_range):
    """Serial diamond search for one block; ties by (sse, |dx|+|dy|, dy, dx).

    Large diamond until its best point is the center, then one small
    diamond step.  Returns (dx, dy, sse, set of distinct (dx, dy) offsets
    scored, list of the in-range (dx, dy) visits in order, an offset as
    often as a step proposes it).
    """
    large = ((0, 0), (-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (1, -1), (-1, 1), (1, 1))
    small = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
    _, h, w = ref.shape
    cblk = cur[:, block_y:block_y + block_h, block_x:block_x + block_w]
    scored = {}
    visits = []

    def best(cx, cy, pattern):
        best_key = None
        for ox, oy in pattern:
            dx, dy = cx + ox, cy + oy
            x, y = block_x + dx, block_y + dy
            if (abs(dx) > search_range or abs(dy) > search_range
                    or x < 0 or y < 0 or x + block_w > w or y + block_h > h):
                continue
            visits.append((dx, dy))
            if (dx, dy) not in scored:
                scored[(dx, dy)] = sse_int(cblk, ref[:, y:y + block_h, x:x + block_w])
            key = (scored[(dx, dy)], abs(dx) + abs(dy), dy, dx)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[3], best_key[2]

    cx = cy = 0
    while True:
        bx, by = best(cx, cy, large)
        if (bx, by) == (cx, cy):
            break
        cx, cy = bx, by
    dx, dy = best(cx, cy, small)
    return dx, dy, scored[(dx, dy)], set(scored), visits


def global_motion_ref(cur, ref, block_size, skip_k, search_range, threshold_t):
    """Step 3 block by block: diamond-search the grid blocks of every
    skip_k-th grid row and column, keep the offsets whose block scores a
    PSNR above threshold_t, and return the most common, ties by
    (|dx|+|dy|, dy, dx); (0, 0) when none is kept.  cur/ref are (C, H, W)
    uint8 arrays."""
    _, h, w = cur.shape
    bs = block_size
    votes = {}
    for y in range(0, h // bs * bs, skip_k * bs):
        for x in range(0, w // bs * bs, skip_k * bs):
            dx, dy, *_ = diamond_search_ref(cur, ref, x, y, bs, bs, search_range)
            if psnr_ref(cur[:, y:y + bs, x:x + bs],
                        ref[:, y + dy:y + dy + bs, x + dx:x + dx + bs]) > threshold_t:
                votes[(dx, dy)] = votes.get((dx, dy), 0) + 1
    if not votes:
        return (0, 0)
    return min(votes, key=lambda o: (-votes[o], abs(o[0]) + abs(o[1]), o[1], o[0]))


def window_columns(rect_x, rect_w, k, stride, pad, limit=512):
    """Output columns whose window lies fully inside [rect_x, rect_x+rect_w),
    by brute force.  One axis of the receptive-field rule."""
    cols = []
    for ox in range(limit):
        start = ox * stride - pad
        if start >= rect_x and start + k <= rect_x + rect_w:
            cols.append(ox)
    return cols


def merge_blocks_ref(verified, motion):
    """Greedy two-pass merge of (x, y, w, h) blocks over Python lists.

    Sort by (y, x) and join each block onto the strip before it when they
    share a row and touch; sort the strips by (x, w, y) and stack each onto
    the rectangle before it when they span the same columns and touch;
    return (dst, src) pairs of (x, y, w, h) tuples in (y, x) order of dst.
    """
    strips = []
    for x, y, w, h in sorted(verified, key=lambda r: (r[1], r[0])):
        if strips:
            lx, ly, lw, lh = strips[-1]
            if ly == y and lx + lw == x and lh == h:
                strips[-1] = (lx, ly, lw + w, lh)
                continue
        strips.append((x, y, w, h))
    merged = []
    for x, y, w, h in sorted(strips, key=lambda r: (r[0], r[2], r[1])):
        if merged:
            lx, ly, lw, lh = merged[-1]
            if lx == x and lw == w and ly + lh == y:
                merged[-1] = (lx, ly, lw, lh + h)
                continue
        merged.append((x, y, w, h))
    merged.sort(key=lambda r: (r[1], r[0]))
    mx, my = motion
    return [((x, y, w, h), (x + mx, y + my, w, h)) for x, y, w, h in merged]


def is_cut_ref(cur, ref, block_size, search_range, threshold_t, prior_min=0.5):
    """The cut gate motion by motion and block by block.  cur/ref are
    (C, H, W) uint8 arrays; prior_min is the matcher's PRIOR_MIN.

    Block and window sums come from a summed-area table, exact in Python
    ints.  At a motion, a grid block is in range when its counterpart lies
    inside ref and neither component exceeds r, the search range capped
    at max(H, W) - bs; its bound (bs**2 times its mean-difference SSE) is
    the sum over channels of the squared difference of the two blocks'
    channel sums.  The coarse pass visits the multiples of max(1, bs // 2)
    within r on each axis and takes, among the motions with at least
    prior_min of the grid in range, the lowest mean bound over the blocks
    in range, ties by (|dx|+|dy|, dy, dx).  The fine pass visits the
    bs x bs motions from step - 1 before that motion on each axis.  The
    pair is a cut unless, at a fine motion with prior_min of the grid in
    range, at least prior_min of the in-range blocks have a bound whose
    PSNR clears threshold_t.
    """
    c, h, w = cur.shape
    bs = block_size
    rows, cols = h // bs, w // bs
    r = min(search_range, max(h - bs, w - bs))
    step = max(1, bs // 2)

    def table(img):
        sat = np.zeros((c, h + 1, w + 1), dtype=np.int64)
        sat[:, 1:, 1:] = img.astype(np.int64).cumsum(axis=1).cumsum(axis=2)
        return sat.tolist()

    def window(sat, x, y):
        return [s[y + bs][x + bs] - s[y][x + bs] - s[y + bs][x] + s[y][x] for s in sat]

    cur_sat, ref_sat = table(cur), table(ref)
    blocks = [(j * bs, i * bs, window(cur_sat, j * bs, i * bs))
              for i in range(rows) for j in range(cols)]

    def bounds(mx, my):
        """The bounds of the blocks in range at motion (mx, my)."""
        if abs(mx) > r or abs(my) > r:
            return []
        out = []
        for x, y, sums in blocks:
            if 0 <= x + mx <= w - bs and 0 <= y + my <= h - bs:
                out.append(sum((a - b) ** 2 for a, b in zip(window(ref_sat, x + mx, y + my), sums)))
        return out

    bar = prior_min * rows * cols
    coarse = range(-(r // step) * step, r + 1, step)
    best = None
    for my in coarse:
        for mx in coarse:
            t = bounds(mx, my)
            if len(t) >= bar:
                key = (sum(t) / len(t), abs(mx) + abs(my), my, mx)
                best = key if best is None else min(best, key)
    *_, cy, cx = best
    # A bound t is an SSE of at least t / bs**2 over c * bs**2 samples.
    lim = 65025.0 * c * bs ** 4 * 10.0 ** (-threshold_t / 10)
    for my in range(cy - step + 1, cy - step + 1 + bs):
        for mx in range(cx - step + 1, cx - step + 1 + bs):
            t = bounds(mx, my)
            if len(t) >= bar and sum(v < lim for v in t) >= prior_min * len(t):
                return False
    return True
