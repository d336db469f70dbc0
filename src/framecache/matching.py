"""Block matching between consecutive frames.

The pipeline finds reusable regions in five steps: partition the current
frame into a grid of equal blocks, find per-block motion with a pluggable
block search (diamond search by default), average the motion of well-matched
blocks into one global offset, re-verify every block at that uniform offset,
and merge adjacent verified blocks into maximal rectangles.  Steps 1, 4 and
5 run on arrays over the block grid; Rects are built only for the merged
mappings.

Block similarity is PSNR over all channels jointly (MSE pooled across
channels, peak value 255).  Identical blocks score the finite sentinel
``PSNR_MAX`` so the metric stays totally ordered.

Two accelerations are built in: Step 2 can search only every k-th grid row
and column (``skip_k``), and every SSE the search computes lands in one
table per search, indexed by block and offset, so Step 4 re-verification
reads the ones at the global motion instead of recomputing them.  Both
search strategies score, range-check, count and rank their candidates
through one method, ``_BlockBatch.best``; a strategy only chooses which
offsets to try.

Temporal motion prediction: given ``prior``, an earlier searched
MatchResult, match_frames first runs Steps 1, 4 and 5 alone at the prior's
global motion, and keeps that result (with no searches) when it covers at
least PRIOR_KEEP of what the prior covered.  Otherwise it runs the same
pipeline a call without ``prior`` runs, so the result is the one that call
returns.  A prior that covered less than PRIOR_MIN of the frame, as a
scene cut leaves, found no dominant motion to predict from, so the call
searches.  This is the motion-vector prediction of H.264/AVC and HEVC,
applied to the one global motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Frame, Rect, RegionMapping

PSNR_MAX = 100.0

# Share of the prior's match_ratio a prediction must reach to be kept.
PRIOR_KEEP = 0.9
# Least match_ratio a prior must have to be tried.  A search across a scene
# cut covers at most about 2% of the frame, at a motion drawn from a few
# chance matches; a prediction there clears PRIOR_KEEP easily yet can lose
# most of the reuse a search of the next shot finds.  Below the bar the call
# searches, which costs only time.
PRIOR_MIN = 0.5

# Large/small diamond search patterns; offsets relative to the pattern center.
_LDSP = ((0, 0), (-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (1, -1), (-1, 1), (1, 1))
_SDSP = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass
class MatcherConfig:
    """Tuning knobs for the matcher.

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
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.skip_k < 1:
            raise ValueError("skip_k must be >= 1")
        if self.search_range < 0:
            raise ValueError("search_range must be >= 0")
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

    searches: int = 0        # Step-2 block_search invocations (0 for a kept prediction)
    # SSEs the call scored, all steps.  Each step scores a (block, offset)
    # pair at most once, but after a rejected prediction the search and
    # Step 4 may score pairs the prediction's verification already scored.
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
    """PSNR in dB for a squared-error sum over `count` 8-bit samples."""
    if sse == 0:
        return PSNR_MAX
    return 10.0 * math.log10(65025.0 * count / sse)


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

    The frames are int16 copies of 8-bit data, so differences are exact and
    the int64 sums equal the exact squared-error sums.
    """
    d = _gather(ref16, h, w, ry, rx)
    d -= cur_rows
    return np.einsum("nk,nk->n", d, d, dtype=np.int64).astype(np.float64)


class _BlockBatch:
    """Candidate evaluation for h x w blocks at (by[i], bx[i]), searched in
    lockstep.

    Every SSE scored for block i at offset (dx, dy) is kept in
    ``sse[i, dy + r, dx + r]``, NaN until scored.  The radius r is the
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
        order = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), sse))
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


def _mean_motion(offsets: list[tuple[int, int]]) -> tuple[int, int]:
    """Step 3: mean of the selected offsets, rounded half away from zero
    per axis; (0, 0) when none is selected."""
    if not offsets:
        return (0, 0)
    k = len(offsets)
    return (_round_half_away(sum(o[0] for o in offsets), k),
            _round_half_away(sum(o[1] for o in offsets), k))


def estimate_global_motion(matches: list[BlockMatch], threshold_t: float) -> tuple[int, int]:
    """Mean offset of matches scoring above the threshold, rounded to integers.

    Rounding is half-away-from-zero per axis.  With no match above the
    threshold the motion falls back to (0, 0).
    """
    return _mean_motion([m.offset for m in matches if m.psnr > threshold_t])


def _round_half_away(numer: int, denom: int) -> int:
    if numer >= 0:
        return (2 * numer + denom) // (2 * denom)
    return -((-2 * numer + denom) // (2 * denom))


def _verify(cur16, ref16, bx, by, h: int, w: int, motion, cfg, sse, stats) -> np.ndarray:
    """Step 4 for the h x w blocks at (by[i], bx[i]): the mask of those whose
    counterpart at the uniform motion lies inside ref and scores above the
    threshold.  sse[i] is block i's SSE at motion, NaN where not yet scored;
    the rest are scored in one gather and written back."""
    mx, my = motion
    inside = ((bx + mx >= 0) & (by + my >= 0)
              & (bx + mx + w <= ref16.shape[2]) & (by + my + h <= ref16.shape[1]))
    todo = np.flatnonzero(inside & np.isnan(sse))
    sse[todo] = _window_sse(_gather(cur16, h, w, by[todo], bx[todo]), ref16, h, w,
                            by[todo] + my, bx[todo] + mx)
    stats.psnr_evals += todo.size
    count = cur16.shape[0] * h * w
    ok = inside.copy()
    ok[inside] = [psnr_from_sse(v, count) > cfg.threshold_t for v in sse[inside].tolist()]
    return ok


def verify_blocks(cur: Frame, ref: Frame, grid: list[Rect], motion: tuple[int, int],
                  cfg: MatcherConfig) -> list[Rect]:
    """Step 4: keep blocks whose counterpart at the uniform motion offset
    lies inside ref and scores above the threshold.

    The grid's blocks must be non-empty, lie inside cur and share one size.
    """
    if cur.data.shape != ref.data.shape:
        raise ValueError("cur and ref must have identical dimensions")
    if not grid:
        return []
    frame = Rect(0, 0, cur.width, cur.height)
    w, h = grid[0].w, grid[0].h
    for block in grid:
        if block.is_empty or not frame.contains(block) or (block.w, block.h) != (w, h):
            raise ValueError(f"block {block} is empty, outside the frame, or not {w}x{h}")
    ok = _verify(cur.data.astype(np.int16), ref.data.astype(np.int16),
                 np.array([b.x for b in grid]), np.array([b.y for b in grid]), h, w,
                 motion, cfg, np.full(len(grid), np.nan), MatchStats())
    return [block for block, keep in zip(grid, ok.tolist()) if keep]


def _merge(verified: np.ndarray, w: int, h: int, motion) -> list[RegionMapping]:
    """Step 5 on a boolean [rows, cols] grid of w x h blocks.

    The strips are the maximal runs of verified blocks in each row.  Taken
    in (first col, last col, row) order, a strip extends the rectangle of
    the one before it when both span the same columns in adjacent rows.
    Rectangles are returned in (y, x) order.
    """
    edges = np.diff(np.pad(verified, ((0, 0), (1, 1))).astype(np.int8), axis=1)
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
    A prior whose match_ratio is below PRIOR_MIN is not tried.
    """
    cfg = cfg or MatcherConfig()
    if cur.data.shape != ref.data.shape:
        raise ValueError(f"frame dimensions differ: {cur.data.shape} vs {ref.data.shape}")
    cur16 = cur.data.astype(np.int16)
    ref16 = ref.data.astype(np.int16)

    bs, k = cfg.block_size, cfg.skip_k
    rows, cols = _grid_shape(cur.width, cur.height, bs)
    row, col = np.indices((rows, cols)).reshape(2, -1)
    by, bx = row * bs, col * bs
    stats = MatchStats()

    def finish(motion, sse) -> MatchResult:
        verified = _verify(cur16, ref16, bx, by, bs, bs, motion, cfg, sse, stats)
        matched = int(verified.sum())
        return MatchResult(
            mappings=_merge(verified.reshape(rows, cols), bs, bs, motion),
            global_motion=motion,
            match_ratio=matched * bs * bs / (cur.width * cur.height),
            matched_block_count=matched,
            stats=stats,
        )

    if prior is not None and prior.match_ratio >= PRIOR_MIN:
        predicted = finish(prior.global_motion, np.full(rows * cols, np.nan))
        if predicted.match_ratio >= PRIOR_KEEP * prior.match_ratio:
            return predicted

    searched = np.flatnonzero((row % k == 0) & (col % k == 0))
    batch = _BlockBatch(cur16, ref16, bx[searched], by[searched], bs, bs, cfg, stats)
    offsets, best = batch.search()
    stats.searches += batch.n

    motion = _mean_motion([o for o, v in zip(offsets.tolist(), best.tolist())
                           if psnr_from_sse(v, batch.count) > cfg.threshold_t])
    sse = np.full(rows * cols, np.nan)
    sse[searched] = batch.sse[:, motion[1] + batch.r, motion[0] + batch.r]
    return finish(motion, sse)
