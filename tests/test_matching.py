import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framecache import (PSNR_MAX, SEARCH_STRATEGIES, BlockMatch, Frame, MatcherConfig,
                        MatchResult, MatchStats, Rect, block_search,
                        estimate_global_motion, match_frames, merge_blocks,
                        partition_grid, psnr, verify_blocks)
from framecache.synth import synth_sequence

from framecache import matching
from framecache.matching import (PRIOR_KEEP, PRIOR_MIN, _BlockBatch, _window_sse,
                                 psnr_from_sse)
from reference import (diamond_search_ref, exhaustive_search_ref, global_motion_ref,
                       merge_blocks_ref, psnr_ref, verify_blocks_ref)


def noise_frame(seed, channels=1, h=24, w=24):
    rng = np.random.default_rng(seed)
    return Frame(rng.integers(0, 256, size=(channels, h, w), dtype=np.uint8))


def texture_pair(dx, dy, seed=0, w=64, h=64, channels=3, noise=0.0):
    """(ref, cur) where cur content at (x, y) comes from ref at (x-dx, y-dy),
    toroidal."""
    ref, cur = synth_sequence(2, w, h, channels=channels, dx=dx, dy=dy,
                              noise=noise, seed=seed)
    return ref, cur


class TestPartitionGrid:
    def test_227(self):
        grid = partition_grid(227, 227, 10)
        assert len(grid) == 484
        assert grid[0] == Rect(0, 0, 10, 10)
        assert grid[-1] == Rect(210, 210, 10, 10)

    def test_two_blocks(self):
        assert partition_grid(20, 10, 10) == [Rect(0, 0, 10, 10), Rect(10, 0, 10, 10)]

    def test_single_block(self):
        assert partition_grid(10, 10, 10) == [Rect(0, 0, 10, 10)]

    def test_row_major_order(self):
        grid = partition_grid(20, 20, 10)
        assert grid == [Rect(0, 0, 10, 10), Rect(10, 0, 10, 10),
                        Rect(0, 10, 10, 10), Rect(10, 10, 10, 10)]

    def test_too_small(self):
        with pytest.raises(ValueError, match="frame too small"):
            partition_grid(8, 20, 10)


class TestPsnr:
    def test_identical_sentinel(self):
        a = noise_frame(1).data[:, :8, :8]
        assert psnr(a, a) == PSNR_MAX

    def test_plus_one_everywhere(self):
        a = np.full((1, 6, 6), 100, dtype=np.uint8)
        assert psnr(a, a + 1) == 10 * math.log10(65025)
        assert psnr(a, a + 1) == pytest.approx(48.1308, abs=1e-4)

    def test_full_range_zero_db(self):
        a = np.zeros((1, 4, 4), dtype=np.uint8)
        b = np.full((1, 4, 4), 255, dtype=np.uint8)
        assert psnr(a, b) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))

    def test_matches_integer_reference(self):
        for seed in range(5):
            a = noise_frame(seed).data[:, :10, :10]
            b = noise_frame(seed + 100).data[:, :10, :10]
            assert psnr(a, b) == psnr_ref(a, b)


class TestBlockSearch:
    def test_identical_frames_all_strategies(self):
        f = noise_frame(3, channels=3)
        block = Rect(8, 8, 8, 8)
        for strategy in ("diamond", "exhaustive"):
            cfg = MatcherConfig(block_size=8, strategy=strategy, search_range=5)
            m = block_search(f, f, block, cfg)
            assert m.offset == (0, 0)
            assert m.psnr == PSNR_MAX

    def test_exhaustive_finds_pure_translation(self):
        # ref equals cur translated by (-3, -2), wraparound fill
        ref, cur = texture_pair(3, 2, seed=5)
        cfg = MatcherConfig(strategy="exhaustive", search_range=8)
        m = block_search(cur, ref, Rect(20, 20, 10, 10), cfg)
        assert m.offset == (-3, -2)
        assert m.psnr == PSNR_MAX

    def test_exhaustive_equals_reference_on_noise(self):
        # pure noise exercises the tie-break order hard
        cfg = MatcherConfig(block_size=8, strategy="exhaustive", search_range=5)
        for seed in range(8):
            cur = noise_frame(seed)
            ref = noise_frame(seed + 50)
            for bx, by in ((0, 0), (8, 8), (16, 16)):
                m = block_search(cur, ref, Rect(bx, by, 8, 8), cfg)
                dx, dy, *_ = exhaustive_search_ref(cur.data, ref.data, bx, by, 8, 8, 5)
                assert m.offset == (dx, dy)

    def test_diamond_never_worse_than_zero_offset(self):
        cfg = MatcherConfig(block_size=8, strategy="diamond", search_range=5)
        for seed in range(6):
            cur = noise_frame(seed, channels=3)
            ref = noise_frame(seed + 9, channels=3)
            block = Rect(8, 8, 8, 8)
            m = block_search(cur, ref, block, cfg)
            zero = psnr(cur.data[:, 8:16, 8:16], ref.data[:, 8:16, 8:16])
            assert m.psnr >= zero

    def test_diamond_bounded_by_exhaustive(self):
        for seed in range(6):
            cur = noise_frame(seed, channels=3)
            ref = noise_frame(seed + 31, channels=3)
            block = Rect(8, 8, 8, 8)
            ds = block_search(cur, ref, block,
                              MatcherConfig(block_size=8, strategy="diamond", search_range=5))
            es = block_search(cur, ref, block,
                              MatcherConfig(block_size=8, strategy="exhaustive", search_range=5))
            assert ds.psnr <= es.psnr

    @pytest.mark.parametrize("strategy", ["diamond", "exhaustive"])
    def test_lockstep_search_equals_serial_reference(self, strategy, monkeypatch):
        # every block of a grid searched at once must follow its own serial
        # trajectory: same offset, same PSNR, and the same offsets scored,
        # each as often as the serial search visits it
        search_ref = {"diamond": diamond_search_ref, "exhaustive": exhaustive_search_ref}[strategy]
        cfg = MatcherConfig(block_size=8, strategy=strategy, search_range=6)
        pairs = [(noise_frame(s, channels=3, h=40, w=48),
                  noise_frame(s + 70, channels=3, h=40, w=48)) for s in range(3)]
        pairs += [texture_pair(dx, dy, seed=5, w=48, h=40, noise=0.05)
                  for dx, dy in ((3, -2), (-5, 4))]
        # two-level frames: many offsets tie on SSE, exercising the tie-break
        rng = np.random.default_rng(8)
        pairs += [tuple(Frame(rng.integers(0, 2, size=(1, 40, 48), dtype=np.uint8))
                        for _ in range(2)) for _ in range(3)]
        # diagonal stripes: every offset with dx + dy = 3 is an exact match
        stripes = rng.integers(0, 2, size=100, dtype=np.uint8)[
            np.add.outer(np.arange(41), np.arange(50))][None]
        pairs += [(Frame(stripes[:, :40, :48]), Frame(stripes[:, 1:41, 2:50]))]

        class Rows(np.ndarray):
            # the batch's block windows: a pick of rows keeps the block indices
            def __getitem__(self, blk):
                picked = np.asarray(self)[blk].view(Rows)
                picked.blk = blk
                return picked

        scorings = []

        def recording_sse(cur_rows, ref16, h, w, ry, rx):
            scorings.append((cur_rows.blk, ry, rx))
            return _window_sse(np.asarray(cur_rows), ref16, h, w, ry, rx)

        monkeypatch.setattr(matching, "_window_sse", recording_sse)
        for ref, cur in pairs:
            grid = partition_grid(cur.width, cur.height, 8)
            stats = MatchStats()
            batch = _BlockBatch(cur.data.astype(np.int16), ref.data.astype(np.int16),
                                np.array([b.x for b in grid]), np.array([b.y for b in grid]),
                                8, 8, cfg, stats)
            batch.cur_rows = batch.cur_rows.view(Rows)
            scorings.clear()
            offsets, best = SEARCH_STRATEGIES[strategy](batch)
            visited = [Counter() for _ in grid]
            for blk, ry, rx in scorings:
                for i, y, x in zip(blk.tolist(), ry.tolist(), rx.tolist()):
                    visited[i][(x - grid[i].x, y - grid[i].y)] += 1
            evals = 0
            for i, block in enumerate(grid):
                dx, dy, sse, scored, visits = search_ref(
                    cur.data, ref.data, block.x, block.y, 8, 8, 6)
                assert tuple(offsets[i].tolist()) == (dx, dy)
                assert best[i] == sse
                assert psnr_from_sse(best[i], batch.count) == pytest.approx(psnr_ref(
                    cur.data[:, block.y:block.y2, block.x:block.x2],
                    ref.data[:, block.y + dy:block.y2 + dy, block.x + dx:block.x2 + dx]),
                    rel=1e-12)
                assert set(visited[i]) == scored
                assert sum(visited[i].values()) == len(visits)
                assert visited[i] == Counter(visits)
                evals += len(visits)
            assert stats.psnr_evals == evals

    def test_offsets_respect_range_and_bounds(self):
        cfg = MatcherConfig(block_size=8, search_range=3, strategy="diamond")
        cur = noise_frame(2)
        ref = noise_frame(77)
        for block in partition_grid(24, 24, 8):
            m = block_search(cur, ref, block, cfg)
            dx, dy = m.offset
            assert abs(dx) <= 3 and abs(dy) <= 3
            assert 0 <= block.x + dx <= 24 - 8
            assert 0 <= block.y + dy <= 24 - 8

    def test_block_outside_frame_rejected(self):
        f = noise_frame(0)
        with pytest.raises(ValueError):
            block_search(f, f, Rect(20, 20, 8, 8), MatcherConfig(block_size=8))


def block_matches(*offsets, psnr=30.0):
    return [BlockMatch(Rect(0, 0, 10, 10), o, psnr) for o in offsets]


class TestGlobalMotion:
    def test_majority_beats_the_mean(self):
        # the mean (4, 2) is an offset no block found
        matches = block_matches((2, 2), (2, 2), (8, 2))
        assert estimate_global_motion(matches, 20.0) == (2, 2)
        # and the mean (-1, 0) of split votes loses to their majority
        matches = block_matches((-2, 0), (-2, 0), (-2, 0), (1, 0), (1, 0))
        assert estimate_global_motion(matches, 20.0) == (-2, 0)

    def test_ties_by_distance_then_dy_then_dx(self):
        assert estimate_global_motion(block_matches((2, 2), (1, 1)), 20.0) == (1, 1)
        assert estimate_global_motion(block_matches((1, 0), (0, 1), (-1, 0), (0, -1)),
                                      20.0) == (0, -1)
        assert estimate_global_motion(block_matches((1, 0), (-1, 0)), 20.0) == (-1, 0)
        # only the offsets with the most votes tie
        assert estimate_global_motion(block_matches((0, 0), (3, 3), (3, 3)), 20.0) == (3, 3)

    def test_below_threshold_filtered(self):
        # two votes at or below the threshold lose to one above it
        matches = (block_matches((2, 2)) + block_matches((100, 100), (100, 100), psnr=5.0)
                   + block_matches((7, 7), (7, 7), psnr=20.0))
        assert estimate_global_motion(matches, 20.0) == (2, 2)

    def test_no_match_above_threshold(self):
        assert estimate_global_motion([], 20.0) == (0, 0)
        matches = [BlockMatch(Rect(0, 0, 10, 10), (5, 5), 10.0)]
        assert estimate_global_motion(matches, 20.0) == (0, 0)


class TestVerifyBlocks:
    def test_identical_all_verified(self):
        f = noise_frame(4, channels=3, h=30, w=30)
        grid = partition_grid(30, 30, 10)
        out = verify_blocks(f, f, grid, (0, 0), MatcherConfig())
        assert out == grid

    def test_out_of_bounds_blocks_skipped(self):
        f = noise_frame(4, h=30, w=30)
        grid = partition_grid(30, 30, 10)
        out = verify_blocks(f, f, grid, (5, 0), MatcherConfig())
        # rightmost column cannot shift right by 5
        assert all(b.x + 5 + 10 <= 30 for b in out)
        assert not any(b.x == 20 for b in out)

    def test_empty_grid(self):
        f = noise_frame(4, h=30, w=30)
        assert verify_blocks(f, f, [], (0, 0), MatcherConfig()) == []

    @pytest.mark.parametrize("grid", [
        [Rect(-5, 0, 10, 10)],                       # left of the frame
        [Rect(0, -1, 10, 10)],                       # above it
        [Rect(35, 0, 10, 10)],                       # past the right edge
        [Rect(0, 35, 10, 10)],                       # past the bottom edge
        [Rect(0, 0, 0, 10)],                         # empty
        [Rect(0, 0, 10, 10), Rect(10, 0, 8, 8)],     # sizes differ
        [Rect(5, 0, 10, 10)],                        # off the grid
    ])
    def test_rejects_bad_blocks(self, grid):
        # a constant frame would verify any block scored against wrapped or
        # clipped pixels, so only the up-front check can refuse these
        f = Frame(np.full((1, 40, 40), 7, dtype=np.uint8))
        with pytest.raises(ValueError):
            verify_blocks(f, f, grid, (5, 0), MatcherConfig())


@st.composite
def step4_cases(draw):
    """(cur, ref, cells, motion, threshold_t): a frame pair whose margins
    need not be whole blocks, grid cells in any order, and a motion that
    keeps them in view, moves them partly out of it or all out of it.  A
    shifted pair has blocks of SSE 0 and of small SSEs; a saturated pair has
    3-channel 105 x 105 blocks whose SSE, every sample 255 apart, exceeds
    int32."""
    kind = draw(st.sampled_from(("shift", "noise", "saturated")))
    c, bs = (3, 105) if kind == "saturated" else (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    h, w = (bs * draw(st.integers(1, 5)) + draw(st.integers(0, bs - 1)) for _ in range(2))
    motion = tuple(draw(st.integers(-3, 3) | st.integers(-n - 2, n + 2)) for n in (w, h))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "saturated":
        ref = rng.choice([0, 255], size=(c, h, w))
    else:
        ref = rng.integers(0, 256, size=(c, h, w))
    cur = rng.integers(0, 256, size=(c, h, w))
    if kind != "noise":
        # cur at (x, y) is ref at (x + mx, y + my) where that is in view,
        # inverted if saturated, else with a share of samples moved by up
        # to 3
        mx, my = motion
        y0, y1, x0, x1 = max(0, -my), min(h, h - my), max(0, -mx), min(w, w - mx)
        if y0 < y1 and x0 < x1:
            cur[:, y0:y1, x0:x1] = ref[:, y0 + my:y1 + my, x0 + mx:x1 + mx]
        if kind == "saturated":
            cur = 255 - cur
        else:
            share = draw(st.sampled_from((0.0, 0.01, 0.1)))
            cur += rng.integers(-3, 4, size=cur.shape) * (rng.random(cur.shape) < share)
    grid = partition_grid(w, h, bs)
    cells = draw(st.permutations(grid))[:draw(st.integers(1, len(grid)))]
    threshold = draw(st.sampled_from((PSNR_MAX - 1, PSNR_MAX, math.inf))
                     | st.floats(0.5, PSNR_MAX + 1))
    return (Frame(np.clip(cur, 0, 255).astype(np.uint8)), Frame(ref.astype(np.uint8)),
            cells, motion, threshold)


def as_tuples(rects):
    return [(r.x, r.y, r.w, r.h) for r in rects]


class TestVerifyOracle:
    @settings(max_examples=100, deadline=None)
    @given(step4_cases())
    def test_verify_blocks_equals_the_oracle(self, case):
        cur, ref, cells, motion, t = case
        cfg = MatcherConfig(block_size=cells[0].w, threshold_t=t)
        assert as_tuples(verify_blocks(cur, ref, cells, motion, cfg)) == \
            verify_blocks_ref(cur.data, ref.data, as_tuples(cells), motion, t)

    @settings(max_examples=100, deadline=None)
    @given(step4_cases())
    def test_kept_prediction_equals_the_oracle(self, case):
        # A prior covering PRIOR_MIN is kept when the oracle's blocks cover
        # PRIOR_KEEP of that; it scores every block in view, once.
        cur, ref, cells, motion, t = case
        bs = cells[0].w
        cfg = MatcherConfig(block_size=bs, threshold_t=t)
        res = match_frames(cur, ref, cfg, prior=MatchResult([], motion, PRIOR_MIN, 0))
        grid = as_tuples(partition_grid(cur.width, cur.height, bs))
        verified = verify_blocks_ref(cur.data, ref.data, grid, motion, t)
        ratio = len(verified) * bs * bs / (cur.width * cur.height)
        if ratio >= PRIOR_KEEP * PRIOR_MIN:
            in_view = verify_blocks_ref(cur.data, ref.data, grid, motion, -math.inf)
            assert (res.global_motion, res.match_ratio, res.matched_block_count,
                    res.stats.searches, res.stats.psnr_evals) == \
                (motion, ratio, len(verified), 0, len(in_view))
            assert [((m.dst.x, m.dst.y, m.dst.w, m.dst.h), (m.src.x, m.src.y, m.src.w, m.src.h))
                    for m in res.mappings] == merge_blocks_ref(verified, motion)
        else:
            assert res.stats.searches > 0 or res.match_ratio == 0

    @settings(max_examples=100, deadline=None)
    @given(c=st.integers(1, 4), bs=st.integers(3, 8), margin=st.integers(0, 7), data=st.data())
    def test_threshold_at_a_block_sse(self, c, bs, margin, data):
        # At threshold_t = psnr_from_sse(s0, count), blocks of SSE s0 + 1
        # and s0 fail and one of s0 - 1 passes, however close their PSNRs.
        count = c * bs * bs
        s0 = data.draw(st.integers(1, (count - 8) * 65025))
        cur = np.zeros((c, bs + margin % bs, 3 * bs + margin), dtype=np.uint8)
        ref = cur.copy()
        for cell, sse in enumerate((s0 + 1, s0, s0 - 1)):
            # greedy squares: at most 7 beyond sse // 255**2, so they fit
            diffs = []
            while sse:
                diffs.append(min(255, math.isqrt(sse)))
                sse -= diffs[-1] ** 2
            block = np.zeros(count, dtype=np.uint8)
            block[:len(diffs)] = diffs
            ref[:, :bs, cell * bs:(cell + 1) * bs] = block.reshape(c, bs, bs)
        t = psnr_from_sse(s0, count)
        cur_f, ref_f = Frame(cur), Frame(ref)
        grid = partition_grid(cur_f.width, cur_f.height, bs)
        out = verify_blocks(cur_f, ref_f, grid, (0, 0), MatcherConfig(block_size=bs, threshold_t=t))
        assert as_tuples(out) == verify_blocks_ref(cur, ref, as_tuples(grid), (0, 0), t)
        assert grid[0] not in out and grid[1] not in out and grid[2] in out


    @pytest.mark.parametrize("t, identical_kept", [(100.01, False), (PSNR_MAX - 1, True)])
    def test_block_of_one_differing_sample_never_outscores_an_identical_one(
            self, t, identical_kept):
        # Over a 227x227 RGB block an SSE of 1 is 100.02 dB uncapped, above
        # the identical block's PSNR_MAX.  Capped at PSNR_MAX - 1, it
        # verifies at neither threshold: at 100.01 the identical block
        # fails too (PSNR_MAX is below it), at PSNR_MAX - 1 it passes.
        ref = np.random.default_rng(0).integers(0, 255, size=(3, 227, 227), dtype=np.uint8)
        cur = ref.copy()
        cur[1, 113, 57] += 1
        grid = partition_grid(227, 227, 227)
        cfg = MatcherConfig(block_size=227, threshold_t=t)
        kept = verify_blocks(Frame(ref), Frame(ref), grid, (0, 0), cfg)
        assert kept == (grid if identical_kept else [])
        assert verify_blocks(Frame(cur), Frame(ref), grid, (0, 0), cfg) == []
        assert as_tuples(kept) == verify_blocks_ref(ref, ref, as_tuples(grid), (0, 0), t)
        assert verify_blocks_ref(cur, ref, as_tuples(grid), (0, 0), t) == []
        assert psnr_from_sse(1, ref.size) < PSNR_MAX


class TestMergeBlocks:
    def test_horizontal_merge(self):
        out = merge_blocks([Rect(0, 0, 10, 10), Rect(10, 0, 10, 10)], (2, 2))
        assert len(out) == 1
        assert out[0].dst == Rect(0, 0, 20, 10)
        assert out[0].src == Rect(2, 2, 20, 10)

    def test_square_merge(self):
        blocks = [Rect(0, 0, 10, 10), Rect(10, 0, 10, 10),
                  Rect(0, 10, 10, 10), Rect(10, 10, 10, 10)]
        out = merge_blocks(blocks, (0, 0))
        assert [m.dst for m in out] == [Rect(0, 0, 20, 20)]

    def test_l_shape_two_mappings(self):
        blocks = [Rect(0, 0, 10, 10), Rect(10, 0, 10, 10), Rect(0, 10, 10, 10)]
        out = merge_blocks(blocks, (0, 0))
        assert [m.dst for m in out] == [Rect(0, 0, 20, 10), Rect(0, 10, 10, 10)]

    def test_area_preserved_and_disjoint(self):
        rng = np.random.default_rng(0)
        grid = partition_grid(60, 60, 10)
        for _ in range(20):
            take = [b for b in grid if rng.random() < 0.5]
            out = merge_blocks(take, (3, -1))
            assert sum(m.dst.area for m in out) == sum(b.area for b in take)
            for i, a in enumerate(out):
                assert a.src == a.dst.translate(3, -1)
                for b in out[i + 1:]:
                    inter_w = min(a.dst.x2, b.dst.x2) - max(a.dst.x, b.dst.x)
                    inter_h = min(a.dst.y2, b.dst.y2) - max(a.dst.y, b.dst.y)
                    assert inter_w <= 0 or inter_h <= 0

    @settings(max_examples=200, deadline=None)
    @given(grid=arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))),
           size=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           motion=st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_grid_merge_equals_list_merge(self, grid, size, motion):
        # the grid merge returns the Rect-list merge's mappings, in its order
        w, h = size
        rows, cols = np.nonzero(grid)
        blocks = [Rect(int(c) * w, int(r) * h, w, h) for r, c in zip(rows, cols)]
        blocks.reverse()   # input order must not matter
        got = [((m.dst.x, m.dst.y, m.dst.w, m.dst.h), (m.src.x, m.src.y, m.src.w, m.src.h))
               for m in merge_blocks(blocks, motion)]
        assert got == merge_blocks_ref([(b.x, b.y, b.w, b.h) for b in blocks], motion)

    @pytest.mark.parametrize("blocks", [
        [Rect(0, 0, 10, 10), Rect(10, 0, 8, 10)],    # sizes differ
        [Rect(5, 0, 10, 10)],                        # off the grid
        [Rect(-10, 0, 10, 10)],                      # left of the origin
        [Rect(0, 0, 10, 10), Rect(0, 0, 10, 10)],    # duplicate
        [Rect(0, 0, 0, 10)],                         # empty
    ])
    def test_rejects_blocks_off_one_grid(self, blocks):
        with pytest.raises(ValueError):
            merge_blocks(blocks, (0, 0))


class TestMatchFrames:
    def test_identical_frames(self):
        f = noise_frame(5, channels=3, h=47, w=33)
        res = match_frames(f, f, MatcherConfig())
        assert res.global_motion == (0, 0)
        # 3x4 grid of 10px blocks inside 33x47
        assert res.match_ratio == (30 * 40) / (33 * 47)
        assert res.mappings == [type(res.mappings[0])(dst=Rect(0, 0, 30, 40),
                                                      src=Rect(0, 0, 30, 40))]
        assert res.matched_block_count == 12

    def test_uniform_shift_constant_border(self):
        ref, _ = texture_pair(0, 0, seed=21, w=100, h=100)
        shifted = np.empty_like(ref.data)
        shifted[:, :, :96] = ref.data[:, :, 4:]
        shifted[:, :, 96:] = 128
        cur = Frame(shifted)
        res = match_frames(cur, ref, MatcherConfig(skip_k=1))
        assert res.global_motion == (4, 0)
        # exhaustive verification oracle at the uniform offset
        expect = []
        for b in partition_grid(100, 100, 10):
            if b.x + 4 + 10 <= 100:
                blk_c = cur.data[:, b.y:b.y2, b.x:b.x2]
                blk_r = ref.data[:, b.y:b.y2, b.x + 4:b.x2 + 4]
                if psnr_ref(blk_c, blk_r) > 20.0:
                    expect.append(b)
        got = sorted((m.dst for m in res.mappings), key=lambda r: (r.y, r.x))
        assert sum(m.dst.area for m in res.mappings) == sum(b.area for b in expect)
        assert res.matched_block_count == len(expect)

    def test_unrelated_noise_low_ratio(self):
        cur = noise_frame(1, channels=3, h=100, w=100)
        ref = noise_frame(2, channels=3, h=100, w=100)
        res = match_frames(cur, ref, MatcherConfig())
        assert res.match_ratio < 0.05

    def test_skip_k_search_counts(self):
        ref, cur = texture_pair(1, 1, seed=2, w=70, h=50)
        for k in (1, 2, 3):
            res = match_frames(cur, ref, MatcherConfig(skip_k=k))
            rows, cols = 5, 7
            assert res.stats.searches == math.ceil(rows / k) * math.ceil(cols / k)

    def test_skip_k_invariant_given_same_motion(self):
        ref, cur = texture_pair(2, 0, seed=8)
        res1 = match_frames(cur, ref, MatcherConfig(skip_k=1))
        res2 = match_frames(cur, ref, MatcherConfig(skip_k=2))
        assert res1.global_motion == res2.global_motion
        assert res1.mappings == res2.mappings
        assert res1.match_ratio == res2.match_ratio

    def test_threshold_monotonicity(self):
        ref, cur = texture_pair(2, 1, seed=13, noise=0.08)
        ratios = [match_frames(cur, ref, MatcherConfig(threshold_t=t)).match_ratio
                  for t in (5, 10, 20, 30, 40)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_deterministic(self):
        ref, cur = texture_pair(3, -1, seed=17, noise=0.02)
        a = match_frames(cur, ref, MatcherConfig())
        b = match_frames(cur, ref, MatcherConfig())
        assert a.mappings == b.mappings
        assert a.global_motion == b.global_motion
        assert a.match_ratio == b.match_ratio
        assert a.stats == b.stats

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            match_frames(noise_frame(0, h=24, w=24), noise_frame(0, h=24, w=32),
                         MatcherConfig())

    @pytest.mark.parametrize("k", [1, 2])
    def test_psnr_evals_count_every_scoring(self, k):
        # Step 2 scores every offset the serial diamond search visits, as
        # often as it visits it; Step 4 scores every block in view at the
        # global motion once
        pairs = [texture_pair(3, -2, seed=5, w=64, h=48, noise=0.05),
                 (noise_frame(3, channels=3, h=48, w=64),
                  noise_frame(4, channels=3, h=48, w=64))]
        cfg = MatcherConfig(skip_k=k)
        for ref, cur in pairs:
            res = match_frames(cur, ref, cfg)
            mx, my = res.global_motion
            cols = cur.width // cfg.block_size
            expect = 0
            for i, b in enumerate(partition_grid(cur.width, cur.height, cfg.block_size)):
                if (i // cols) % k == 0 and (i % cols) % k == 0:
                    *_, visits = diamond_search_ref(cur.data, ref.data, b.x, b.y,
                                                    b.w, b.h, cfg.search_range)
                    expect += len(visits)
                expect += Rect(0, 0, cur.width, cur.height).contains(b.translate(mx, my))
            assert res.stats.psnr_evals == expect

    @pytest.mark.parametrize("strategy", ["diamond", "exhaustive"])
    def test_huge_search_range_bounded_by_frame(self, strategy):
        # a range wider than the frame reaches no further than the frame does
        ref, cur = texture_pair(3, -2, seed=5, w=48, h=40, noise=0.05)
        huge = match_frames(cur, ref, MatcherConfig(block_size=8, strategy=strategy,
                                                    search_range=10**6))
        wide = match_frames(cur, ref, MatcherConfig(block_size=8, strategy=strategy,
                                                    search_range=40))
        assert huge == wide

    def test_memory_does_not_grow_with_search_range(self):
        # A range as wide as a 227x227 frame needs no more memory than the
        # cut gate's canvas, and on a small pan finds what the default does.
        ref, cur = texture_pair(2, 1, seed=0, w=227, h=227, noise=0.05)
        tracemalloc.start()
        try:
            wide = match_frames(cur, ref, MatcherConfig(search_range=217, skip_k=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert wide == match_frames(cur, ref, MatcherConfig(search_range=16, skip_k=2))

    def test_square_pan_takes_the_most_voted_motion(self):
        # The square and the wrap seam split the votes of a (16, 16) pan:
        # their mean, (-10, -7), verifies almost nothing.
        ref, cur = synth_sequence(2, 227, 227, dx=16, dy=16, seed=0, square=True)
        res = match_frames(cur, ref)
        assert res.global_motion == (-16, -16) and res.match_ratio > 0.7

    @pytest.mark.parametrize("pair", [1, 2, 3, 4, 5, 7])
    def test_grating_pan_finds_the_true_motion(self, pair):
        # Blocks of this texture split between (-2, -1) and offsets along a
        # grating; the mean of pair 1 lands on (-2, 0).  Pair 6 is left out:
        # there (-3, 0) wins the vote, and it verifies more of the frame
        # (0.879) than the true motion does (0.838).
        clip = synth_sequence(8, 227, 227, dx=2, dy=1, noise=0.01, seed=932251194, square=True)
        assert match_frames(clip[pair], clip[pair - 1]).global_motion == (-2, -1)

    def test_verified_blocks_individually_pass_threshold(self):
        # generating condition: every constituent grid block of every mapping
        # passed psnr > T at the uniform motion
        ref, cur = texture_pair(2, 2, seed=30, noise=0.05)
        cfg = MatcherConfig()
        res = match_frames(cur, ref, cfg)
        mx, my = res.global_motion
        for m in res.mappings:
            for by in range(m.dst.y, m.dst.y2, cfg.block_size):
                for bx in range(m.dst.x, m.dst.x2, cfg.block_size):
                    blk_c = cur.data[:, by:by + 10, bx:bx + 10]
                    blk_r = ref.data[:, by + my:by + my + 10, bx + mx:bx + mx + 10]
                    assert psnr_ref(blk_c, blk_r) > cfg.threshold_t


def scene_pair(kind, seed, w=48, h=40):
    """(ref, cur) for a noisy pan, a clean pan, a scene cut or plain noise."""
    if kind == "pan":
        return texture_pair(3, -2, seed=seed, w=w, h=h, noise=0.03)
    if kind == "clean":
        return texture_pair(-2, 1, seed=seed, w=w, h=h)
    if kind == "cut":
        return (synth_sequence(1, w, h, channels=3, seed=seed)[0],
                synth_sequence(1, w, h, channels=3, seed=seed + 1000)[0])
    return noise_frame(seed, channels=3, h=h, w=w), noise_frame(seed + 1, channels=3, h=h, w=w)


class TestPrior:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(("pan", "clean", "cut", "noise")),
           strategy=st.sampled_from(sorted(SEARCH_STRATEGIES)),
           k=st.integers(1, 3), search_range=st.sampled_from((0, 3, 8)),
           seed=st.integers(0, 30),
           motion=st.none() | st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
           ratio=st.floats(0.0, 1.0))
    def test_kept_prediction_or_the_plain_match(self, kind, strategy, k, search_range,
                                                seed, motion, ratio):
        # A prior either yields the verify-and-merge result at its motion,
        # unsearched and covering at least PRIOR_KEEP of the prior, or the
        # result of a call without prior, at the cost of that call plus the
        # verification of the prediction, if one was tried.  A prior that
        # covered less than PRIOR_MIN is not tried.  A cut is unsearched
        # too but covers nothing, so a kept prediction is told apart by
        # its coverage.
        ref, cur = scene_pair(kind, seed)
        cfg = MatcherConfig(block_size=8, skip_k=k, search_range=search_range,
                            strategy=strategy)
        plain = match_frames(cur, ref, cfg)
        p = plain.global_motion if motion is None else motion
        res = match_frames(cur, ref, cfg, prior=MatchResult([], p, ratio, 0))

        grid = partition_grid(cur.width, cur.height, 8)
        frame = Rect(0, 0, cur.width, cur.height)
        verified = verify_blocks(cur, ref, grid, p, cfg)
        predicted_ratio = len(verified) * 64 / frame.area

        def at(mx, my):
            return {(b.x, b.y, mx, my) for b in grid if frame.contains(b.translate(mx, my))}

        if res.stats.searches == 0 and res.match_ratio > 0:
            assert ratio >= PRIOR_MIN
            assert res.match_ratio == predicted_ratio >= PRIOR_KEEP * ratio
            assert res.global_motion == p
            assert res.mappings == merge_blocks(verified, p)
            assert res.matched_block_count == len(verified)
            assert res.stats.psnr_evals == len(at(*p))
        else:
            assert ratio < PRIOR_MIN or predicted_ratio < PRIOR_KEEP * ratio
            assert ((res.mappings, res.global_motion, res.match_ratio,
                     res.matched_block_count, res.stats.searches)
                    == (plain.mappings, plain.global_motion, plain.match_ratio,
                        plain.matched_block_count, plain.stats.searches))
            tried = len(at(*p)) if ratio >= PRIOR_MIN else 0
            assert res.stats.psnr_evals == tried + plain.stats.psnr_evals

    def test_pan_prediction_is_kept_and_equals_the_search(self):
        ref, cur = texture_pair(2, 1, seed=4, w=100, h=80, noise=0.02)
        plain = match_frames(cur, ref)
        res = match_frames(cur, ref, prior=plain)
        assert res.stats.searches == 0 and res.stats.psnr_evals < plain.stats.psnr_evals
        assert (res.mappings, res.global_motion, res.match_ratio) == \
            (plain.mappings, plain.global_motion, plain.match_ratio)

    @pytest.mark.parametrize("dx, dy, seed", [(0, 0, 2), (2, 1, 6)])
    def test_anchor_left_by_a_cut_is_not_tried(self, dx, dy, seed):
        # Across a cut the gate finds no motion that could cover PRIOR_MIN,
        # so the call returns the empty result unsearched.  As a prior it
        # is not tried: the next frame of the new shot (still or panning)
        # gets exactly what a search finds.
        old = synth_sequence(1, 227, 227, noise=0.01, seed=5000 + seed)[0]
        shot = synth_sequence(2, 227, 227, dx=dx, dy=dy, noise=0.01, seed=9000 + seed,
                              square=True)
        cut = match_frames(shot[0], old)
        assert cut == MatchResult([], (0, 0), 0.0, 0, MatchStats())
        plain = match_frames(shot[1], shot[0])
        assert plain.stats.searches > 0 and plain.match_ratio > PRIOR_MIN
        assert match_frames(shot[1], shot[0], prior=cut) == plain

    def test_prior_that_covered_nothing_is_not_tried(self):
        cur = noise_frame(1, channels=3, h=60, w=60)
        ref = noise_frame(2, channels=3, h=60, w=60)
        res = match_frames(cur, ref, prior=MatchResult([], (0, 0), 0.0, 0))
        assert res == match_frames(cur, ref)

    def test_dropped_coverage_runs_the_search(self):
        ref, cur = texture_pair(2, 1, seed=4, w=100, h=80, noise=0.02)
        stale = MatchResult([], (-5, 3), 0.8, 0)
        res = match_frames(cur, ref, prior=stale)
        assert res.stats.searches > 0
        assert res.mappings == match_frames(cur, ref).mappings


class TestVoteOracle:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(("pan", "clean", "cut", "noise")),
           bs=st.sampled_from((6, 8)), k=st.integers(1, 3),
           search_range=st.sampled_from((0, 3, 8)),
           threshold=st.sampled_from((5.0, 12.0, 20.0, 30.0)), seed=st.integers(0, 30))
    def test_vote_equals_the_oracle(self, kind, bs, k, search_range, threshold, seed):
        # Wherever the cut gate lets the search run, Step 3 takes the
        # motion a block-by-block diamond search and vote take.
        ref, cur = scene_pair(kind, seed)
        cfg = MatcherConfig(block_size=bs, skip_k=k, search_range=search_range,
                            threshold_t=threshold)
        res = match_frames(cur, ref, cfg)
        assume(res.stats.searches > 0)
        assert res.global_motion == global_motion_ref(cur.data, ref.data, bs, k,
                                                      search_range, threshold)


class TestCutGate:
    @settings(max_examples=40, deadline=None)
    @given(dx=st.integers(-16, 16), dy=st.integers(-16, 16),
           size=st.sampled_from(((227, 227), (96, 80))), square=st.booleans(),
           noise=st.sampled_from((0.0, 0.03)), threshold=st.sampled_from((20.0, PSNR_MAX - 1)),
           seed=st.integers(0, 2**16))
    def test_translations_pass_the_gate(self, dx, dy, size, square, noise, threshold, seed):
        # Any translation within the search range, with or without the
        # moving square and noise, is matched exactly as with no gate.  The
        # one exception: no noisy block is bit-identical to its source, so
        # at PSNR_MAX - 1 nothing verifies and the gate returns the empty
        # result without searching.
        w, h = size
        ref, cur = synth_sequence(2, w, h, dx=dx, dy=dy, noise=noise, seed=seed, square=square)
        cfg = MatcherConfig(threshold_t=threshold)
        gated = match_frames(cur, ref, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matching, "_is_cut", lambda *args: False)
            ungated = match_frames(cur, ref, cfg)
        if noise and threshold == PSNR_MAX - 1:
            assert ungated.match_ratio == 0
            assert gated == MatchResult([], (0, 0), 0.0, 0, MatchStats())
        else:
            assert gated == ungated

    @pytest.mark.parametrize("dx, dy", [(11, 11), (11, -11)])
    def test_pan_off_a_small_frame_is_not_a_cut(self, dx, dy):
        # The pan moves 24 of the 72 blocks out of view and the square
        # hides more, so the match covers less than PRIOR_MIN of the grid
        # but most of the blocks in view: the gate lets the search run.
        ref, cur = synth_sequence(2, 96, 80, dx=dx, dy=dy, seed=0, square=True)
        res = match_frames(cur, ref, MatcherConfig(threshold_t=PSNR_MAX - 1))
        assert res.global_motion == (-dx, -dy) and res.stats.searches > 0
        assert 0 < res.matched_block_count < PRIOR_MIN * 72

    @pytest.mark.parametrize("seed", range(4))
    def test_cut_returns_the_empty_result(self, seed):
        # Independent textures, as the scenes of a cut clip: no search.
        old, new = (synth_sequence(1, 227, 227, noise=0.01, seed=seed * 2 + i)[0]
                    for i in range(2))
        assert match_frames(new, old) == MatchResult([], (0, 0), 0.0, 0, MatchStats())

    def test_gate_skips_a_kept_prediction(self, monkeypatch):
        # The gate runs only where the call would search.
        ref, cur = texture_pair(2, 1, seed=4, w=100, h=80, noise=0.02)
        plain = match_frames(cur, ref)
        monkeypatch.setattr(matching, "_is_cut", lambda *args: pytest.fail("gate ran"))
        assert match_frames(cur, ref, prior=plain).stats.searches == 0


class TestWindowSse:
    @pytest.mark.parametrize("h, w", [(25, 1321), (2, 16513)])
    def test_sums_are_exact_at_the_accumulator_edge(self, h, w):
        # 25 x 1321 = 33025 samples is the largest window whose SSE fits
        # int32 (33025 * 255**2 < 2**31); 2 x 16513 is one sample more.
        ref16 = np.full((1, h, w), 255, dtype=np.int16)
        cur_rows = np.zeros((2, h * w), dtype=np.int16)
        sse = _window_sse(cur_rows, ref16, h, w, np.zeros(2, int), np.zeros(2, int))
        assert sse.tolist() == [h * w * 65025.0] * 2


class TestMatcherConfig:
    def test_defaults(self):
        cfg = MatcherConfig()
        assert (cfg.block_size, cfg.threshold_t, cfg.skip_k,
                cfg.search_range, cfg.strategy) == (10, 20.0, 2, 16, "diamond")

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0}, {"skip_k": 0}, {"search_range": -1},
        {"threshold_t": 0.0}, {"threshold_t": -3.0}, {"strategy": "bogus"},
        {"strategy": "three-step"}, {"block_size": 10.5}, {"skip_k": 2.0},
        {"search_range": 2.5}, {"block_size": True}, {"skip_k": True},
        {"search_range": False},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MatcherConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [("block_size", 10.5), ("threshold_t", 30.0),
                                             ("strategy", "exhaustive")])
    def test_fields_cannot_be_assigned(self, field, value):
        # Checked once, at construction: a later assignment raises there,
        # not midway through a stream.
        cfg = MatcherConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == MatcherConfig()

    def test_numpy_integer_sizes_allowed(self):
        cfg = MatcherConfig(block_size=np.int64(10), skip_k=np.int32(1), search_range=np.int16(4))
        f = noise_frame(0, h=20, w=20)
        assert match_frames(f, f, cfg).match_ratio == 1.0

    def test_infinite_threshold_allowed(self):
        cfg = MatcherConfig(threshold_t=math.inf)
        f = noise_frame(0, h=20, w=20)
        res = match_frames(f, f, cfg)
        assert res.mappings == [] and res.match_ratio == 0.0
