"""Block matching between consecutive frames.

The pipeline finds reusable regions in five steps: partition the current
frame into a grid of equal blocks, find per-block motion with a pluggable
block search (diamond search by default), average the motion of well-matched
blocks into one global offset, re-verify every block at that uniform offset,
and merge adjacent verified blocks into maximal rectangles.

Block similarity is PSNR over all channels jointly (MSE pooled across
channels, peak value 255).  Identical blocks score the finite sentinel
``PSNR_MAX`` so the metric stays totally ordered.

Two accelerations are built in: Step 2 can search only every k-th grid row
and column (``skip_k``), and every SSE the search computes lands in one
table per search, indexed by block and offset, so Step 4 re-verification
reads the ones at the global motion instead of recomputing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Frame, Rect, RegionMapping

PSNR_MAX = 100.0

# Large/small diamond search patterns; offsets relative to the pattern center.
_LDSP = ((0, 0), (-2, 0), (2, 0), (0, -2), (0, 2), (-1, -1), (1, -1), (-1, 1), (1, 1))
_SDSP = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
_TSS_DIRS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


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

    searches: int = 0        # Step-2 block_search invocations
    psnr_evals: int = 0      # block-pair PSNR (SSE) computations, all steps


@dataclass(frozen=True)
class MatchResult:
    mappings: list[RegionMapping]
    global_motion: tuple[int, int]
    match_ratio: float
    matched_block_count: int
    stats: MatchStats = field(default_factory=MatchStats)


def partition_grid(frame_w: int, frame_h: int, block_size: int) -> list[Rect]:
    """Row-major list of block_size x block_size tiles covering the frame.

    Right/bottom margins smaller than a full block are excluded; those
    pixels are never reusable.
    """
    if frame_w < block_size or frame_h < block_size:
        raise ValueError(f"frame too small: {frame_w}x{frame_h} for block size {block_size}")
    cols = frame_w // block_size
    rows = frame_h // block_size
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


def _windows(frame: np.ndarray, h: int, w: int) -> np.ndarray:
    """View of every h x w window of a [c, H, W] frame: [y, x, c, h, w]."""
    return np.lib.stride_tricks.sliding_window_view(
        frame, (h, w), axis=(1, 2)).transpose(1, 2, 0, 3, 4)


def _window_sse(cur16, ref16, h: int, w: int, cy, cx, ry, rx) -> np.ndarray:
    """SSE between the h x w windows of cur at (cy, cx) and of ref at (ry, rx).

    The frames are int16 copies of 8-bit data, so differences are exact and
    the int64 sums equal the exact squared-error sums.
    """
    d = _windows(ref16, h, w)[ry, rx].reshape(len(ry), ref16.shape[0] * h * w)
    d -= _windows(cur16, h, w)[cy, cx].reshape(d.shape)
    return np.einsum("nk,nk->n", d, d, dtype=np.int64).astype(np.float64)


class _BlockBatch:
    """Candidate evaluation for equal-sized blocks searched in lockstep.

    Every SSE scored for block i at offset (dx, dy) is kept in
    ``sse[i, dy + r, dx + r]``, NaN until scored.  The radius r is the
    search range capped by the largest offset the frame admits, so the
    table never outgrows the frame.  Each block follows its own search
    trajectory; a search step scores the pattern around every block's
    center with one gather over the frames.  SSE values are exact, so they
    are identical no matter which code path or summation order produced
    them.
    """

    def __init__(self, cur16, ref16, blocks: list[Rect], cfg: MatcherConfig,
                 stats: MatchStats):
        self.h, self.w = blocks[0].h, blocks[0].w
        self.cur = cur16
        self.ref = ref16
        self.blocks = blocks
        self.cfg = cfg
        self.stats = stats
        self.count = cur16.shape[0] * self.h * self.w
        self.bx = np.array([blk.x for blk in blocks])
        self.by = np.array([blk.y for blk in blocks])
        ref_h, ref_w = ref16.shape[1], ref16.shape[2]
        sr = cfg.search_range
        self.dx_lo = np.maximum(-sr, -self.bx)
        self.dx_hi = np.minimum(sr, ref_w - self.w - self.bx)
        self.dy_lo = np.maximum(-sr, -self.by)
        self.dy_hi = np.minimum(sr, ref_h - self.h - self.by)
        self.r = r = min(sr, max(ref_h - self.h, ref_w - self.w))
        self.sse = np.full((len(blocks), 2 * r + 1, 2 * r + 1), np.nan)

    @property
    def n(self) -> int:
        return len(self.blocks)

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
        cy, cx = self.by[mb], self.bx[mb]
        vals[miss] = _window_sse(self.cur, self.ref, self.h, self.w, cy, cx, cy + my, cx + mx)
        self.sse[at] = vals
        self.stats.psnr_evals += len(mb)
        sse = np.full(dx.shape, np.inf)
        sse[rows, cols] = vals
        order = np.lexsort((dx, dy, np.abs(dx) + np.abs(dy), sse))
        return cand[np.arange(len(idx)), order[:, 0]]


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


def _three_step_search(b: _BlockBatch) -> np.ndarray:
    sr = b.cfg.search_range
    centers = np.zeros((b.n, 2), dtype=np.int64)
    if sr == 0:
        return b.best(np.arange(b.n), centers, ((0, 0),))
    rounds = max(1, (sr - 1).bit_length())
    step = 1 << (rounds - 1)
    while step >= 1:
        pattern = ((0, 0),) + tuple((ox * step, oy * step) for ox, oy in _TSS_DIRS)
        centers = b.best(np.arange(b.n), centers, pattern)
        step //= 2
    return centers


def _exhaustive_search(b: _BlockBatch) -> np.ndarray:
    out = np.zeros((b.n, 2), dtype=np.int64)
    for i, blk in enumerate(b.blocks):
        dx_lo, dx_hi = int(b.dx_lo[i]), int(b.dx_hi[i])
        dy_lo, dy_hi = int(b.dy_lo[i]), int(b.dy_hi[i])
        region = b.ref[:, blk.y + dy_lo:blk.y + dy_hi + blk.h,
                       blk.x + dx_lo:blk.x + dx_hi + blk.w]
        d = _windows(region, blk.h, blk.w) - b.cur[:, blk.y:blk.y2, blk.x:blk.x2]
        sse = np.einsum("ijchw,ijchw->ij", d, d, dtype=np.int64).astype(np.float64)
        dxs, dys = np.meshgrid(np.arange(dx_lo, dx_hi + 1), np.arange(dy_lo, dy_hi + 1))
        b.stats.psnr_evals += sse.size
        b.sse[i, dy_lo + b.r:dy_hi + b.r + 1, dx_lo + b.r:dx_hi + b.r + 1] = sse
        order = np.lexsort((dxs.ravel(), dys.ravel(),
                            (np.abs(dxs) + np.abs(dys)).ravel(), sse.ravel()))
        j = int(order[0])
        out[i] = (dxs.ravel()[j], dys.ravel()[j])
    return out


SEARCH_STRATEGIES = {
    "diamond": _diamond_search,
    "three-step": _three_step_search,
    "exhaustive": _exhaustive_search,
}


def _search_blocks(cur16, ref16, blocks, cfg, stats) -> tuple[list[BlockMatch], np.ndarray]:
    """Step 2 for equal-sized blocks: their matches and the batch's SSE table."""
    batch = _BlockBatch(cur16, ref16, blocks, cfg, stats)
    offsets = SEARCH_STRATEGIES[cfg.strategy](batch)
    best = batch.sse[np.arange(batch.n), offsets[:, 1] + batch.r, offsets[:, 0] + batch.r]
    return [BlockMatch(blk, (dx, dy), psnr_from_sse(v, batch.count))
            for blk, (dx, dy), v in zip(blocks, offsets.tolist(), best.tolist())], batch.sse


def block_search(cur: Frame, ref: Frame, block: Rect, cfg: MatcherConfig) -> BlockMatch:
    """Find the best-matching same-size block in ref for `block` of cur.

    The search never proposes an offset that would push the candidate block
    outside ref or beyond cfg.search_range on either axis.
    """
    if cur.data.shape != ref.data.shape:
        raise ValueError("cur and ref must have identical dimensions")
    if not Rect(0, 0, cur.width, cur.height).contains(block) or block.is_empty:
        raise ValueError(f"block {block} outside frame")
    matches, _ = _search_blocks(cur.data.astype(np.int16), ref.data.astype(np.int16),
                                [block], cfg, MatchStats())
    return matches[0]


def estimate_global_motion(matches: list[BlockMatch], threshold_t: float) -> tuple[int, int]:
    """Mean offset of matches scoring above the threshold, rounded to integers.

    Rounding is half-away-from-zero per axis.  With no match above the
    threshold the motion falls back to (0, 0).
    """
    selected = [m for m in matches if m.psnr > threshold_t]
    if not selected:
        return (0, 0)
    sx = sum(m.offset[0] for m in selected)
    sy = sum(m.offset[1] for m in selected)
    k = len(selected)
    return (_round_half_away(sx, k), _round_half_away(sy, k))


def _round_half_away(numer: int, denom: int) -> int:
    if numer >= 0:
        return (2 * numer + denom) // (2 * denom)
    return -((-2 * numer + denom) // (2 * denom))


def _verify_blocks(cur16, ref16, grid, motion, cfg, sse, stats) -> list[Rect]:
    """Step 4 for equal-sized blocks; sse[i] is grid[i]'s SSE at motion, NaN
    where not yet scored."""
    mx, my = motion
    h, w = grid[0].h, grid[0].w
    xs = np.array([block.x for block in grid])
    ys = np.array([block.y for block in grid])
    inside = ((xs + mx >= 0) & (ys + my >= 0)
              & (xs + mx + w <= ref16.shape[2]) & (ys + my + h <= ref16.shape[1]))
    todo = inside & np.isnan(sse)
    sse[todo] = _window_sse(cur16, ref16, h, w, ys[todo], xs[todo],
                            ys[todo] + my, xs[todo] + mx)
    stats.psnr_evals += int(todo.sum())
    count = cur16.shape[0] * h * w
    return [block for block, ok, v in zip(grid, inside.tolist(), sse.tolist())
            if ok and psnr_from_sse(v, count) > cfg.threshold_t]


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
    return _verify_blocks(cur.data.astype(np.int16), ref.data.astype(np.int16), grid,
                          motion, cfg, np.full(len(grid), np.nan), MatchStats())


def merge_blocks(verified: list[Rect], motion: tuple[int, int]) -> list[RegionMapping]:
    """Greedy two-pass merge of verified grid blocks into larger rectangles.

    First concatenate horizontally adjacent blocks within each grid row into
    strips, then stack vertically adjacent strips of identical x-extent.
    """
    mx, my = motion
    strips: list[Rect] = []
    for block in sorted(verified, key=lambda r: (r.y, r.x)):
        last = strips[-1] if strips else None
        if last is not None and last.y == block.y and last.x2 == block.x and last.h == block.h:
            strips[-1] = Rect(last.x, last.y, last.w + block.w, last.h)
        else:
            strips.append(block)

    merged: list[Rect] = []
    for strip in sorted(strips, key=lambda r: (r.x, r.w, r.y)):
        last = merged[-1] if merged else None
        if last is not None and last.x == strip.x and last.w == strip.w and last.y2 == strip.y:
            merged[-1] = Rect(last.x, last.y, last.w, last.h + strip.h)
        else:
            merged.append(strip)

    merged.sort(key=lambda r: (r.y, r.x))
    return [RegionMapping(dst=r, src=r.translate(mx, my)) for r in merged]


def match_frames(cur: Frame, ref: Frame, cfg: MatcherConfig | None = None) -> MatchResult:
    """Run the full five-step matching pipeline on a frame pair."""
    cfg = cfg or MatcherConfig()
    if cur.data.shape != ref.data.shape:
        raise ValueError(f"frame dimensions differ: {cur.data.shape} vs {ref.data.shape}")
    cur16 = cur.data.astype(np.int16)
    ref16 = ref.data.astype(np.int16)

    grid = partition_grid(cur.width, cur.height, cfg.block_size)
    cols = cur.width // cfg.block_size

    stats = MatchStats()
    searched = [i for i in range(len(grid))
                if not ((i // cols) % cfg.skip_k or (i % cols) % cfg.skip_k)]
    matches, table = _search_blocks(cur16, ref16, [grid[i] for i in searched], cfg, stats)
    stats.searches += len(searched)

    motion = estimate_global_motion(matches, cfg.threshold_t)
    r = table.shape[1] // 2
    sse = np.full(len(grid), np.nan)
    sse[searched] = table[:, motion[1] + r, motion[0] + r]
    verified = _verify_blocks(cur16, ref16, grid, motion, cfg, sse, stats)
    mappings = merge_blocks(verified, motion)

    covered = sum(m.dst.area for m in mappings)
    return MatchResult(
        mappings=mappings,
        global_motion=motion,
        match_ratio=covered / (cur.width * cur.height),
        matched_block_count=len(verified),
        stats=stats,
    )
