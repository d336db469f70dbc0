"""Walkthrough of the five-step block matcher.

Generates two frames of a drifting texture, then runs each stage by hand:
grid partition, per-block search, a vote for the global motion,
verification, and the merge into maximal reusable rectangles.  Run directly:

    python3 demos/01_block_matching.py
"""

from framecache import (MatcherConfig, block_search, estimate_global_motion,
                        match_frames, merge_blocks, partition_grid,
                        synth_sequence, verify_blocks)


def main():
    # two 64x64 frames, content sliding 3 px right and 1 px down per frame;
    # the current frame therefore matches the previous one at offset (-3, -1)
    ref, cur = synth_sequence(2, 64, 64, dx=3, dy=1, noise=0.01, seed=42)
    cfg = MatcherConfig(block_size=10, threshold_t=20.0, skip_k=2,
                        search_range=16, strategy="diamond")

    print("Step 1: partition the current frame into a block grid")
    grid = partition_grid(cur.width, cur.height, cfg.block_size)
    cols = cur.width // cfg.block_size
    rows = len(grid) // cols
    print(f"  {len(grid)} blocks of {cfg.block_size}x{cfg.block_size}; margins beyond "
          f"{cols * cfg.block_size}x{rows * cfg.block_size} px are never cached\n")

    print("Step 2: diamond-search a subsample of blocks (skip_k=2)")
    searched = [b for i, b in enumerate(grid)
                if (i // cols) % cfg.skip_k == 0 and (i % cols) % cfg.skip_k == 0]
    matches = [block_search(cur, ref, b, cfg) for b in searched]
    for m in matches[:5]:
        print(f"  block at ({m.block.x:2d},{m.block.y:2d}) -> offset {m.offset}, "
              f"{m.psnr:.1f} dB")
    print(f"  ... {len(matches)} blocks searched in total\n")

    print("Step 3: take the offset most well-matched blocks share")
    motion = estimate_global_motion(matches, cfg.threshold_t)
    print(f"  global motion estimate: {motion}\n")

    print("Step 4: verify every grid block at that uniform offset")
    verified = verify_blocks(cur, ref, grid, motion, cfg)
    print(f"  {len(verified)} of {len(grid)} blocks verified "
          f"(blocks whose source would fall outside the frame are skipped)\n")

    print("Step 5: merge verified blocks into maximal rectangles")
    merged = merge_blocks(verified, motion)
    for m in merged:
        print(f"  reuse {m.dst.w}x{m.dst.h} at ({m.dst.x},{m.dst.y}) "
              f"from previous frame at ({m.src.x},{m.src.y})")

    print("\nThe one-call version, with counters:")
    result = match_frames(cur, ref, cfg)
    s = result.stats
    print(f"  match_ratio {result.match_ratio:.3f}, motion {result.global_motion}, "
          f"{len(result.mappings)} mapping(s)")
    print(f"  {s.searches} searches, {s.psnr_evals} PSNR evaluations")


if __name__ == "__main__":
    main()
