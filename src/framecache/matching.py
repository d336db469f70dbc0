"""Block matching between consecutive frames.

The pipeline finds reusable regions in five steps: partition the current
frame into a grid of equal blocks, find per-block motion with a pluggable
block search (diamond search by default), take the offset most of the
well-matched blocks share as the global motion (a vote: the dominant motion
that the cut gate and PRIOR_MIN assume, where a mean of split votes lands
on a motion few blocks share), re-verify every block at that uniform
offset, and merge adjacent verified blocks into maximal rectangles.  Steps
1, 4 and 5 run on arrays over the block grid.  Step 4 scores every block in
view at the motion from one difference of the two frames over their
rectangle, summed per block.  Steps 3 and 4 test "PSNR > threshold_t" by
one rule, _passes.

Block similarity is PSNR over all channels jointly (MSE pooled across
channels, peak value 255).  Identical blocks score the finite sentinel
``PSNR_MAX`` so the metric stays totally ordered, and every other block
scores at most ``PSNR_MAX - 1``, however many samples it holds, so a block
never outscores one with a smaller SSE, and threshold_t = PSNR_MAX - 1
verifies only identical blocks.

Two accelerations are built in: Step 2 can search only every k-th grid row
and column (``skip_k``), and it scores no (block, offset) pair twice.  Both
search strategies score, range-check, count and rank their candidates
through one method, ``_BlockBatch.best``; a strategy only chooses which
offsets to try.

The cut gate runs before Step 2, and only where the call would search.
It decides from block sums whether one motion, keeping PRIOR_MIN of the
grid in view, could verify PRIOR_MIN of the blocks it keeps in view, so
that a pan is not taken for a cut because blocks left the frame.  A
block's mean-difference SSE bounds its SSE from below (Cauchy-Schwarz;
the successive elimination bound of Li and Salari, IEEE TIP 1995), so at
any motion the blocks whose bound clears threshold_t include every block
Step 4 would verify there.  The gate counts them at the motions of a
coarse-to-fine search over block sums, as in the mean-pyramid motion
search of Nam et al. (IEEE TCSVT 1995).  Where no count reaches the bar,
as across a scene cut, the call returns an empty result (no mappings,
match_ratio 0, no searches) instead of searching; elsewhere the pipeline
runs exactly as it would without the gate.

Temporal motion prediction: given ``prior``, an earlier searched
MatchResult, match_frames first runs Steps 1, 4 and 5 alone at the prior's
global motion, and keeps that result (with no searches) when it covers at
least PRIOR_KEEP of what the prior covered.  Otherwise it runs the same
pipeline a call without ``prior`` runs, cut gate included, so the result
is the one that call returns.  A prior that covered less than PRIOR_MIN of
the frame found no dominant motion to predict from, so the call searches.
This is the motion-vector prediction of H.264/AVC and HEVC, applied to the
one global motion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import Frame, Rect, RegionMapping

PSNR_MAX = 100.0

# Share of the prior's match_ratio a prediction must reach to be kept.
PRIOR_KEEP = 0.9
# The share of the frame below which a match found no dominant motion.  A
# prior must cover at least this much to be tried: a search across a scene
# cut covers at most a few percent of the frame, at a motion drawn from a
# few chance matches, and a prediction there could clear PRIOR_KEEP yet
# lose most of the reuse a search of the next shot finds.  The cut gate
# skips the search where no motion keeping this share of the grid in view
# could verify this share of the blocks in view.
PRIOR_MIN = 0.5

# Large/small diamond search patterns; offsets relative to the pattern center.
_LDSP = ((0, 0), (-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (1, -1), (-1, 1), (1, 1))
_SDSP = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def check_count(name: str, value, least: int):
    """Raise ValueError unless value is an integer (one operator.index
    takes, so NumPy integers pass and floats do not) of at least least."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class MatcherConfig:
    """Tuning knobs for the matcher, checked when built and then fixed.

    block_size: side of a square grid block, pixels.
    threshold_t: minimum PSNR (dB) for a block pair to count as matched.
    skip_k: grid stride for Step-2 searches (1 = search every block).
    search_range: maximum |offset| per axis explored by the block search.
    strategy: block-search strategy name; see SEARCH_STRATEGIES.
    """

    block_size: int = 10
    threshold_t: float = 20.0
    skip_k: int = 2
    search_range: int = 16
    strategy: str = "diamond"

    def __post_init__(self):
        check_count("block_size", self.block_size, 1)
        check_count("skip_k", self.skip_k, 1)
        check_count("search_range", self.search_range, 0)
        if not self.threshold_t > 0:
            raise ValueError("threshold_t must be > 0")
        if self.strategy not in SEARCH_STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"choose from {sorted(SEARCH_STRATEGIES)}")


@dataclass(frozen=True)
class BlockMatch:
    """Best match found for one grid block: offset into the previous frame."""

    block: Rect
    offset: tuple[int, int]
    psnr: float


@dataclass
class MatchStats:
    """Work counters, mostly for tests and the matcher benchmark."""

    # Step-2 block searches: 0 for a kept prediction and for a pair the cut
    # gate rejects (which covers nothing).
    searches: int = 0
    # SSEs the call scored, all steps: the search's distinct (block,
    # offset) pairs, and every block in view at the motion each Step 4
    # verifies, searched or not.  A pair the search scored is scored, and
    # counted, again in Step 4, and after a rejected prediction the search
    # and Step 4 may score pairs the prediction's verification already
    # scored.
    psnr_evals: int = 0


@dataclass(frozen=True)
class MatchResult:
    mappings: list[RegionMapping]
    global_motion: tuple[int, int]
    match_ratio: float
    matched_block_count: int
    stats: MatchStats = field(default_factory=MatchStats)


def _grid_shape(frame_w: int, frame_h: int, block_size: int) -> tuple[int, int]:
    """Step 1: (rows, cols) of the block grid; margins smaller than a block
    are left out."""
    if frame_w < block_size or frame_h < block_size:
        raise ValueError(f"frame too small: {frame_w}x{frame_h} for block size {block_size}")
    return frame_h // block_size, frame_w // block_size


def partition_grid(frame_w: int, frame_h: int, block_size: int) -> list[Rect]:
    """Row-major list of block_size x block_size tiles covering the frame.

    Right/bottom margins smaller than a full block are excluded; those
    pixels are never reusable.
    """
    rows, cols = _grid_shape(frame_w, frame_h, block_size)
    return [Rect(c * block_size, r * block_size, block_size, block_size)
            for r in range(rows) for c in range(cols)]


def psnr_from_sse(sse: float, count: int) -> float:
    """PSNR in dB for a squared-error sum over `count` 8-bit samples:
    PSNR_MAX for an SSE of 0, and at most PSNR_MAX - 1 for any other.  The
    cap binds only where an SSE of 1 would score above it, in blocks of
    more than 122,158 samples; uncapped, it would score above PSNR_MAX
    beyond 153,787."""
    if sse == 0:
        return PSNR_MAX
    return min(10.0 * math.log10(65025.0 * count / sse), PSNR_MAX - 1)


def _passes(sse: np.ndarray, count: int, t: float) -> np.ndarray:
    """psnr_from_sse(v, count) > t for every SSE v of the array sse.

    That is v < lim for v > 0, and no v > 0 passes from PSNR_MAX - 1 up,
    where lim is 0; an SSE of 0, or one so near lim that rounding could
    decide, is scored exactly by psnr_from_sse.
    """
    lim = 65025.0 * count * 10.0 ** (-t / 10) if t < PSNR_MAX - 1 else 0.0
    ok = sse < lim
    for i in np.flatnonzero((sse == 0) | (abs(sse - lim) <= 1e-9 * lim)).tolist():
        ok.flat[i] = psnr_from_sse(float(sse.flat[i]), count) > t
    return ok


def _rank(dx: np.ndarray, dy: np.ndarray) -> tuple:
    """np.lexsort keys, least significant first, that order offsets by
    (|dx|+|dy|, dy, dx): the tie order of the search and of the vote."""
    return dx, dy, np.abs(dx) + np.abs(dy)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR between two equal-shaped 8-bit blocks, MSE pooled over channels."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"block shape mismatch: {a.shape} vs {b.shape}")
    d = (a.astype(np.float64) - b.astype(np.float64)).ravel()
    return psnr_from_sse(float(np.dot(d, d)), d.size)


def _gather(frame16, h: int, w: int, y, x) -> np.ndarray:
    """The h x w windows of a [c, H, W] frame at (y[i], x[i]), one
    flattened row each."""
    windows = np.lib.stride_tricks.sliding_window_view(
        frame16, (h, w), axis=(1, 2)).transpose(1, 2, 0, 3, 4)
    return windows[y, x].reshape(len(y), frame16.shape[0] * h * w)


def _window_sse(cur_rows, ref16, h: int, w: int, ry, rx) -> np.ndarray:
    """SSE between the current-frame windows cur_rows (as _gather returns
    them) and the h x w windows of ref at (ry, rx).

    The frames are int16 copies of 8-bit data, so differences are exact.  A
    window's SSE is at most its sample count times 255**2, so it is summed
    in int32 where that fits and in int64 otherwise; either way the sums
    are the exact squared-error sums.
    """
    d = _gather(ref16, h, w, ry, rx)
    d -= cur_rows
    acc = np.int32 if d.shape[1] * 65025 < 2**31 else np.int64
    return np.einsum("nk,nk->n", d, d, dtype=acc).astype(np.float64)


def _run_sums(x: np.ndarray, n: int, shift: int, length: int) -> np.ndarray:
    """out[i] = x[i] + x[i + shift] + ... + x[i + (n - 1) * shift] for
    i < length, in about 2 * log2(n) passes over x by doubling."""
    out, pos, span, width = None, 0, x, 1
    while True:
        if n & width:
            part = span[pos * shift:pos * shift + length]
            out = part.copy() if out is None else np.add(out, part, out=out)
            pos += width
        if 2 * width > n:
            return out
        span = span[:-width * shift] + span[width * shift:]
        width *= 2


def _is_cut(cur16, ref16, rows: int, cols: int, cfg: MatcherConfig) -> bool:
    """The cut gate: True when no motion the gate tries, among those that
    keep PRIOR_MIN of the grid's blocks inside ref, could verify PRIOR_MIN
    of the blocks it keeps inside ref.

    It compares block sums, not pixels.  By Cauchy-Schwarz a block's SSE at
    a motion is at least its mean-difference SSE, the sum over channels of
    D**2 / bs**2 with D the difference of the two blocks' channel sums, so
    the blocks whose bound clears threshold_t include every block Step 4
    would verify at that motion.  Motions are searched coarse to fine over
    [-r, r]**2, r capped by the frame as _BlockBatch caps it: steps of
    bs // 2 to the lowest mean bound over the blocks inside ref, among the
    motions that keep PRIOR_MIN of the grid inside ref (no other can reach
    the bar); then the bs x bs offsets from step - 1 before that motion to
    step after it, at each of which the in-range blocks whose bound clears
    the threshold are counted.  The pair is a cut if no count reaches
    PRIOR_MIN of the in-range blocks at a motion that has PRIOR_MIN of the
    grid in range.  The bar counts blocks in view, not the grid, because a
    pan on a small frame moves blocks out of view: a match there can cover
    less than PRIOR_MIN of the grid, and the search keeps it.
    """
    bs = cfg.block_size
    c, h, w = cur16.shape
    r = min(cfg.search_range, max(h - bs, w - bs))
    step = max(1, bs // 2)
    sums = cur16[:, :rows * bs, :cols * bs].reshape(c, rows, bs, cols * bs)
    sums = sums.sum(axis=2, dtype=np.int32).reshape(c, rows, cols, bs).sum(axis=3, dtype=np.int32)
    sums = sums[:, :, None, :, None]
    # The sum of every bs x bs window of ref, on a zero canvas padded by p,
    # so that box[:, y + p, x + p] is the window at (x, y) and every motion
    # tried reads inside the canvas.  The sums are exact integers.
    acc = next(t for t in (np.uint16, np.int32, np.int64) if bs * bs * 255 <= np.iinfo(t).max)
    sq = np.int32 if (bs * bs * 255) ** 2 < 2**31 else np.int64
    p = r + bs
    hp, wp = h + 2 * p, w + 2 * p
    size = c * hp * wp
    canvas = np.zeros(size + bs * wp + bs, acc)
    canvas[:size].reshape(c, hp, wp)[:, p:p + h, p:p + w] = ref16
    box = _run_sums(_run_sums(canvas, bs, wp, size + bs), bs, 1, size).reshape(c, hp, wp)
    by, bx = np.arange(rows) * bs, np.arange(cols) * bs

    def bounds(ref_sums, part=slice(None)) -> np.ndarray:
        """The bound times bs**2 of block (i, j) of the block rows part at
        motion (a, b), as t[i, a, j, b], from ref_sums[:, i, a, j, b]."""
        d = np.subtract(ref_sums, sums[:, part], dtype=sq)
        d *= d
        return d.sum(axis=0, dtype=np.float64)

    def in_range_sum(t, my, mx, part=slice(None)):
        """The sum of t[:, a, :, b] over the blocks of the block rows part
        in range at motion (mx[b], my[a]), and their number."""
        y = by[part]
        rows_in = (y + my[:, None] >= 0) & (y + my[:, None] <= h - bs) & (abs(my[:, None]) <= r)
        cols_in = (bx + mx[:, None] >= 0) & (bx + mx[:, None] <= w - bs) & (abs(mx[:, None]) <= r)
        total = np.einsum("iab,ai->ab", np.einsum("iajb,bj->iab", t, cols_in.astype(float)),
                          rows_in.astype(float))
        return total, np.outer(rows_in.sum(axis=1), cols_in.sum(axis=1))

    bar = PRIOR_MIN * rows * cols
    coarse = np.arange(-(r // step) * step, r + 1, step)
    s0, s1, s2 = box.strides
    at_coarse = np.lib.stride_tricks.as_strided(
        box[:, coarse[0] + p:, coarse[0] + p:], (c, rows, len(coarse), cols, len(coarse)),
        (s0, bs * s1, step * s1, bs * s2, step * s2), writeable=False)
    # Slices of block rows, each holding about as many bounds as the fine
    # pass, so that small blocks do not blow up memory.
    total = n = 0
    per = max(1, h * w // (cols * len(coarse) ** 2))
    for i in range(0, rows, per):
        part = slice(i, i + per)
        part_total, part_n = in_range_sum(bounds(at_coarse[:, part], part), coarse, coarse, part)
        total, n = total + part_total, n + part_n
    mean = np.divide(total, n, out=np.full(n.shape, np.inf), where=n >= bar)
    # Ties prefer small |dx| + |dy|, as the block search's do.
    near = abs(coarse)[:, None] + abs(coarse)[None, :]
    a, b = np.unravel_index(np.lexsort((near.ravel(), mean.ravel()))[0], mean.shape)
    # bs consecutive offsets per axis: block i at the a-th reads window row
    # i * bs + y0 + a, so the window rows of all blocks and offsets are one
    # run of rows * bs.
    y0, x0 = coarse[a] - step + 1, coarse[b] - step + 1
    t = bounds(box[:, y0 + p:y0 + p + rows * bs, x0 + p:x0 + p + cols * bs]
               .reshape(c, rows, bs, cols, bs))
    # PSNR above threshold_t, for an SSE bound of t / bs**2 over c * bs**2 samples.
    lim = 65025.0 * c * bs**4 * 10.0 ** (-cfg.threshold_t / 10)
    hits, n = in_range_sum((t < lim).astype(float), y0 + np.arange(bs), x0 + np.arange(bs))
    return not ((n >= bar) & (hits >= PRIOR_MIN * n)).any()


class _BlockBatch:
    """Candidate evaluation for h x w blocks at (by[i], bx[i]), searched in
    lockstep.

    Every SSE scored for block i at offset (dx, dy) is kept in
    ``sse[i, dy + r, dx + r]``, NaN until scored, so the search scores no
    pair twice.  The radius r is the
    search range capped by the largest offset the frame admits, so the
    table never outgrows the frame.  Each block follows its own search
    trajectory; a search step scores the pattern around every block's
    center with one gather over the reference frame, the blocks' own
    windows having been gathered once, at construction.  SSE values are
    exact, so they are identical no matter which step scored them.
    """

    def __init__(self, cur16, ref16, bx: np.ndarray, by: np.ndarray, h: int, w: int,
                 cfg: MatcherConfig, stats: MatchStats):
        self.h, self.w = h, w
        self.cur_rows = _gather(cur16, h, w, by, bx)
        self.ref = ref16
        self.bx, self.by = bx, by
        self.cfg = cfg
        self.stats = stats
        self.count = cur16.shape[0] * h * w
        ref_h, ref_w = ref16.shape[1], ref16.shape[2]
        sr = cfg.search_range
        self.dx_lo = np.maximum(-sr, -bx)
        self.dx_hi = np.minimum(sr, ref_w - w - bx)
        self.dy_lo = np.maximum(-sr, -by)
        self.dy_hi = np.minimum(sr, ref_h - h - by)
        self.r = r = min(sr, max(ref_h - h, ref_w - w))
        self.sse = np.full((len(bx), 2 * r + 1, 2 * r + 1), np.nan)

    @property
    def n(self) -> int:
        return len(self.bx)

    def best(self, idx: np.ndarray, centers: np.ndarray, pattern) -> np.ndarray:
        """Per block idx[i], the lowest-SSE in-range offset of centers[i] + pattern.

        Ties prefer small |dx|+|dy|, then dy, then dx.  Offsets not yet in
        the table are scored in one gather and written back.
        """
        cand = centers[:, None, :] + np.asarray(pattern)[None]
        dx, dy = cand[..., 0], cand[..., 1]
        valid = ((self.dx_lo[idx, None] <= dx) & (dx <= self.dx_hi[idx, None])
                 & (self.dy_lo[idx, None] <= dy) & (dy <= self.dy_hi[idx, None]))
        rows, cols = np.nonzero(valid)
        blk, vdx, vdy = idx[rows], dx[rows, cols], dy[rows, cols]
        at = (blk, vdy + self.r, vdx + self.r)
        vals = self.sse[at]
        miss = np.isnan(vals)
        mb, my, mx = blk[miss], vdy[miss], vdx[miss]
        vals[miss] = _window_sse(self.cur_rows[mb], self.ref, self.h, self.w,
                                 self.by[mb] + my, self.bx[mb] + mx)
        self.sse[at] = vals
        self.stats.psnr_evals += len(mb)
        sse = np.full(dx.shape, np.inf)
        sse[rows, cols] = vals
        order = np.lexsort((*_rank(dx, dy), sse))
        return cand[np.arange(len(idx)), order[:, 0]]

    def search(self) -> tuple[np.ndarray, np.ndarray]:
        """Step 2: every block's best offset [n, 2] under cfg.strategy, and
        the SSE there."""
        offsets = SEARCH_STRATEGIES[self.cfg.strategy](self)
        return offsets, self.sse[np.arange(self.n), offsets[:, 1] + self.r,
                                 offsets[:, 0] + self.r]


def _diamond_search(b: _BlockBatch) -> np.ndarray:
    # Large diamond until its best point is the center, then one small step.
    centers = np.zeros((b.n, 2), dtype=np.int64)
    active = np.arange(b.n)
    while active.size:
        best = b.best(active, centers[active], _LDSP)
        moved = np.any(best != centers[active], axis=1)
        centers[active] = best
        active = active[moved]
    return b.best(np.arange(b.n), centers, _SDSP)


def _exhaustive_search(b: _BlockBatch) -> np.ndarray:
    # The full square of offsets, one block at a time, so one gather holds
    # at most one block's (2r+1)^2 windows.
    side = np.arange(-b.r, b.r + 1)
    square = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    center = np.zeros((1, 2), dtype=np.int64)
    return np.concatenate([b.best(np.array([i]), center, square) for i in range(b.n)])


SEARCH_STRATEGIES = {
    "diamond": _diamond_search,
    "exhaustive": _exhaustive_search,
}


def block_search(cur: Frame, ref: Frame, block: Rect, cfg: MatcherConfig) -> BlockMatch:
    """Find the best-matching same-size block in ref for `block` of cur.

    The search never proposes an offset that would push the candidate block
    outside ref or beyond cfg.search_range on either axis.
    """
    if cur.data.shape != ref.data.shape:
        raise ValueError("cur and ref must have identical dimensions")
    if not Rect(0, 0, cur.width, cur.height).contains(block) or block.is_empty:
        raise ValueError(f"block {block} outside frame")
    batch = _BlockBatch(cur.data.astype(np.int16), ref.data.astype(np.int16),
                        np.array([block.x]), np.array([block.y]), block.h, block.w,
                        cfg, MatchStats())
    offsets, sse = batch.search()
    dx, dy = offsets[0].tolist()
    return BlockMatch(block, (dx, dy), psnr_from_sse(float(sse[0]), batch.count))


def _vote(offsets: np.ndarray) -> tuple[int, int]:
    """Step 3: the most common row (dx, dy) of offsets [n, 2], ties by
    (|dx|+|dy|, dy, dx); (0, 0) when n is 0."""
    if not len(offsets):
        return (0, 0)
    found, votes = np.unique(offsets, axis=0, return_counts=True)
    dx, dy = found[:, 0], found[:, 1]
    return tuple(found[np.lexsort((*_rank(dx, dy), -votes))[0]].tolist())


def estimate_global_motion(matches: list[BlockMatch], threshold_t: float) -> tuple[int, int]:
    """The offset most matches scoring above the threshold share.

    Ties prefer small |dx|+|dy|, then dy, then dx, as the block search's
    do.  With no match above the threshold the motion falls back to (0, 0).
    """
    return _vote(np.array([m.offset for m in matches if m.psnr > threshold_t],
                          dtype=np.int64).reshape(-1, 2))


def _verify(cur16, ref16, rows: int, cols: int, h: int, w: int, motion, t: float,
            stats) -> np.ndarray:
    """Step 4 on the rows x cols grid of h x w blocks anchored at (0, 0):
    the [rows, cols] mask of the blocks whose counterpart at the uniform
    motion lies inside ref and scores above t.

    The blocks in view form a rectangle of the grid, so the rectangle at
    the motion lies inside ref.  They are scored from one difference of
    the frames over it: squared, summed over channels, then over each
    block by two reshape sums, in int32 where a block's SSE fits and in
    int64 otherwise, so every sum is exact.
    """
    mx, my = motion
    c, ref_h, ref_w = ref16.shape
    r0, r1 = max(0, -(my // h)), min(rows, (ref_h - my) // h)
    c0, c1 = max(0, -(mx // w)), min(cols, (ref_w - mx) // w)
    ok = np.zeros((rows, cols), dtype=bool)
    if r0 >= r1 or c0 >= c1:
        return ok
    nr, nc = r1 - r0, c1 - c0
    y0, x0 = r0 * h, c0 * w
    d = np.subtract(ref16[:, y0 + my:y0 + my + nr * h, x0 + mx:x0 + mx + nc * w],
                    cur16[:, y0:y0 + nr * h, x0:x0 + nc * w], dtype=np.int32)
    d *= d
    acc = np.int32 if h * w * c * 65025 < 2**31 else np.int64
    cells = d.sum(axis=0, dtype=acc).reshape(nr, h, nc * w).sum(axis=1, dtype=acc)
    cells = cells.reshape(nr, nc, w).sum(axis=2, dtype=acc)
    stats.psnr_evals += cells.size
    ok[r0:r1, c0:c1] = _passes(cells, c * h * w, t)
    return ok


def verify_blocks(cur: Frame, ref: Frame, grid: list[Rect], motion: tuple[int, int],
                  cfg: MatcherConfig) -> list[Rect]:
    """Step 4: keep blocks whose counterpart at the uniform motion offset
    lies inside ref and scores above the threshold.

    The blocks must be cells of one grid anchored at (0, 0), as
    partition_grid's are: non-empty, inside cur, of one size w x h, with
    x a multiple of w and y of h.
    """
    if cur.data.shape != ref.data.shape:
        raise ValueError("cur and ref must have identical dimensions")
    if not grid:
        return []
    frame = Rect(0, 0, cur.width, cur.height)
    w, h = grid[0].w, grid[0].h
    for block in grid:
        if (block.is_empty or not frame.contains(block) or (block.w, block.h) != (w, h)
                or block.x % w or block.y % h):
            raise ValueError(f"block {block} is empty, outside the frame, or not a "
                             f"cell of the {w}x{h} grid")
    ok = _verify(cur.data.astype(np.int16), ref.data.astype(np.int16), cur.height // h,
                 cur.width // w, h, w, motion, cfg.threshold_t, MatchStats())
    return [block for block in grid if ok[block.y // h, block.x // w]]


def _merge(verified: np.ndarray, w: int, h: int, motion) -> list[RegionMapping]:
    """Step 5 on a boolean [rows, cols] grid of w x h blocks.

    The strips are the maximal runs of verified blocks in each row.  Taken
    in (first col, last col, row) order, a strip extends the rectangle of
    the one before it when both span the same columns in adjacent rows.
    Rectangles are returned in (y, x) order.
    """
    edges = np.zeros((verified.shape[0], verified.shape[1] + 1), dtype=np.int8)
    edges[:, :-1] = verified
    edges[:, 1:] -= verified
    row, c0 = np.nonzero(edges == 1)
    _, c1 = np.nonzero(edges == -1)
    order = np.lexsort((row, c1, c0))
    row, c0, c1 = row[order], c0[order], c1[order]
    starts = np.ones(len(row), dtype=bool)
    starts[1:] = (c0[1:] != c0[:-1]) | (c1[1:] != c1[:-1]) | (row[1:] != row[:-1] + 1)
    first = np.flatnonzero(starts)
    heights = np.diff(np.append(first, len(row)))
    top, c0, c1 = row[first], c0[first], c1[first]
    order = np.lexsort((c0, top))
    mx, my = motion
    mappings = []
    for y, x0, x1, n in zip(top[order].tolist(), c0[order].tolist(), c1[order].tolist(),
                            heights[order].tolist()):
        dst = Rect(x0 * w, y * h, (x1 - x0) * w, n * h)
        mappings.append(RegionMapping(dst=dst, src=dst.translate(mx, my)))
    return mappings


def merge_blocks(verified: list[Rect], motion: tuple[int, int]) -> list[RegionMapping]:
    """Greedy two-pass merge of verified grid blocks into larger rectangles.

    First concatenate horizontally adjacent blocks within each grid row into
    strips, then stack vertically adjacent strips of identical x-extent.
    The blocks must be distinct, share one non-empty size w x h and sit on
    that size's grid (x a multiple of w, y of h), as partition_grid's do.
    """
    if not verified:
        return []
    w, h = verified[0].w, verified[0].h
    if verified[0].is_empty or any(b.w != w or b.h != h or b.x < 0 or b.y < 0
                                   or b.x % w or b.y % h for b in verified):
        raise ValueError(f"blocks are not distinct cells of one {w}x{h} grid")
    cols = np.array([b.x // w for b in verified])
    rows = np.array([b.y // h for b in verified])
    grid = np.zeros((rows.max() + 1, cols.max() + 1), dtype=bool)
    grid[rows, cols] = True
    if int(grid.sum()) != len(verified):
        raise ValueError(f"blocks are not distinct cells of one {w}x{h} grid")
    return _merge(grid, w, h, motion)


def match_frames(cur: Frame, ref: Frame, cfg: MatcherConfig | None = None,
                 prior: MatchResult | None = None) -> MatchResult:
    """Run the five-step matching pipeline on a frame pair.

    With a prior (an earlier searched MatchResult), first verify and merge
    at prior.global_motion alone; keep that result, with stats.searches
    == 0, if its match_ratio is at least PRIOR_KEEP * prior.match_ratio.
    Otherwise run the pipeline of a call without prior, whose result it
    returns; its psnr_evals then add the verification's to that call's.
    A prior whose match_ratio is below PRIOR_MIN is not tried.  Before the
    search, the cut gate (_is_cut) may return the empty result: no
    mappings, motion (0, 0), match_ratio 0 and stats.searches == 0.
    """
    cfg = cfg or MatcherConfig()
    if cur.data.shape != ref.data.shape:
        raise ValueError(f"frame dimensions differ: {cur.data.shape} vs {ref.data.shape}")
    cur16 = cur.data.astype(np.int16)
    ref16 = ref.data.astype(np.int16)

    bs, k = cfg.block_size, cfg.skip_k
    rows, cols = _grid_shape(cur.width, cur.height, bs)
    stats = MatchStats()

    def finish(motion) -> MatchResult:
        verified = _verify(cur16, ref16, rows, cols, bs, bs, motion, cfg.threshold_t, stats)
        matched = int(verified.sum())
        return MatchResult(
            mappings=_merge(verified, bs, bs, motion),
            global_motion=motion,
            match_ratio=matched * bs * bs / (cur.width * cur.height),
            matched_block_count=matched,
            stats=stats,
        )

    if prior is not None and prior.match_ratio >= PRIOR_MIN:
        predicted = finish(prior.global_motion)
        if predicted.match_ratio >= PRIOR_KEEP * prior.match_ratio:
            return predicted

    if _is_cut(cur16, ref16, rows, cols, cfg):
        return MatchResult([], (0, 0), 0.0, 0, stats)

    row, col = np.indices((rows, cols))[:, ::k, ::k].reshape(2, -1)
    batch = _BlockBatch(cur16, ref16, col * bs, row * bs, bs, bs, cfg, stats)
    offsets, best = batch.search()
    stats.searches += batch.n
    return finish(_vote(offsets[_passes(best, batch.count, cfg.threshold_t)]))
