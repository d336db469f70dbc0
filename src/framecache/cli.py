"""Command-line harness.

Subcommands:
  run           run a model over a frame directory, write per-frame CSV + JSON summary
  compare       run cached and uncached in lockstep, report output divergence (JSON)
  sweep         repeat compare over a range of one parameter, write a CSV table
  bench-matcher time the block matcher per strategy, with and without --skip-k (CSV)
  synth         generate a seeded synthetic PNM frame sequence (and optional weights)

Frames are consumed from a directory in lexicographic filename order.  CSV
schemas are fixed; see the README for column meanings.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .core import Frame
from .engine import ModelGraph, Session
from .matching import SEARCH_STRATEGIES, MatcherConfig, match_frames
from .model_io import (load_frame_pnm, load_weights, parse_model, random_weights,
                       write_frame_pnm)
from .synth import synth_sequence

RUN_CSV_HEADER = ["frame", "match_ratio", "computed_macs", "total_macs",
                  "copied_pixels", "wall_time_ms", "flushed", "top_indices", "top_values"]
SWEEP_CSV_HEADER = ["value", "mean_match_ratio", "mean_computed_macs_fraction",
                    "mean_mse", "mean_wall_time_ms"]
BENCH_CSV_HEADER = ["strategy", "optimized", "pairs", "mean_ms", "stddev_ms",
                    "mean_match_ratio"]

_FRAME_SUFFIXES = {".pgm", ".ppm", ".pnm"}


def _parse_mean(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise ValueError(f"bad --mean value {raw!r} (want comma-separated floats)")


def _matcher_cfg(args) -> MatcherConfig:
    return MatcherConfig(block_size=args.block_size, threshold_t=args.threshold,
                         skip_k=args.skip_k, search_range=args.search_range,
                         strategy=args.strategy)


def _load_graph(args) -> ModelGraph:
    graph = parse_model(Path(args.model).read_text())
    load_weights(Path(args.weights).read_bytes(), graph)
    return graph


def _load_frames(dirpath: str) -> list[tuple[str, Frame]]:
    d = Path(dirpath)
    if not d.is_dir():
        raise ValueError(f"frames path {dirpath!r} is not a directory")
    names = sorted(p.name for p in d.iterdir()
                   if p.suffix.lower() in _FRAME_SUFFIXES and p.is_file())
    if not names:
        raise ValueError(f"no frames found in {dirpath!r}")
    return [(n, load_frame_pnm((d / n).read_bytes())) for n in names]


def _top_entries(output) -> tuple[list[int], list[float]]:
    """Top-5 (index, value) of the flattened output, largest first (all
    entries if there are fewer).  Ties go to the lower index."""
    vec = output.data.ravel()
    idx = np.lexsort((np.arange(vec.size), -vec))[:5].tolist()
    return idx, [float(vec[i]) for i in idx]


def _session(args, graph, cache_enabled=True) -> Session:
    return Session(graph, matcher_cfg=_matcher_cfg(args), expire_n=args.expire,
                   cache_enabled=cache_enabled, mean=_parse_mean(args.mean),
                   scale=args.scale)


def cmd_run(args) -> int:
    graph = _load_graph(args)
    frames = _load_frames(args.frames)
    session = _session(args, graph, cache_enabled=not args.no_cache)
    rows = []
    all_metrics = []
    for i, (_, frame) in enumerate(frames, start=1):
        output, m = session.run_frame(frame)
        all_metrics.append(m)
        top_i, top_v = _top_entries(output)
        rows.append([i, f"{m.match_ratio:.6f}", m.computed_macs, m.total_macs,
                     m.copied_pixels, f"{m.wall_time:.3f}",
                     "true" if m.flushed else "false",
                     ";".join(str(v) for v in top_i),
                     ";".join(f"{v:.6g}" for v in top_v)])

    out_csv = Path(args.out)
    with out_csv.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RUN_CSV_HEADER)
        w.writerows(rows)

    total = sum(m.total_macs for m in all_metrics)
    computed = sum(m.computed_macs for m in all_metrics)
    summary = {
        "frames": len(frames),
        "flush_count": sum(1 for m in all_metrics if m.flushed),
        "mean_match_ratio": statistics.fmean(m.match_ratio for m in all_metrics),
        "mean_wall_time_ms": statistics.fmean(m.wall_time for m in all_metrics),
        "total_computed_macs": computed,
        "total_macs": total,
        "computed_macs_fraction": computed / total if total else 1.0,
        "total_copied_pixels": sum(m.copied_pixels for m in all_metrics),
    }
    out_json = out_csv.with_suffix(".json")
    out_json.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"processed {len(frames)} frames: "
          f"mean match_ratio {summary['mean_match_ratio']:.3f}, "
          f"computed MACs {summary['computed_macs_fraction']:.1%} of full")
    print(f"wrote {out_csv} and {out_json}")
    return 0


def _compare_frames(args, graph, frames):
    """Run cached vs uncached in lockstep; per-frame divergence records."""
    cached = _session(args, graph, cache_enabled=True)
    plain = _session(args, graph, cache_enabled=False)
    records = []
    for i, (_, frame) in enumerate(frames, start=1):
        out_c, m_c = cached.run_frame(frame)
        out_p, _ = plain.run_frame(frame)
        a = out_c.data.astype(np.float64).ravel()
        b = out_p.data.astype(np.float64).ravel()
        diff = a - b
        order_a = np.lexsort((np.arange(a.size), -a))
        order_b = np.lexsort((np.arange(b.size), -b))
        k3 = min(3, a.size)
        records.append({
            "frame": i,
            "mse": float(np.mean(diff * diff)),
            "max_abs_diff": float(np.max(np.abs(diff))),
            "top1_agree": bool(order_a[0] == order_b[0]),
            "top3_agree": set(order_a[:k3].tolist()) == set(order_b[:k3].tolist()),
            "match_ratio": m_c.match_ratio,
            "computed_macs_fraction": (m_c.computed_macs / m_c.total_macs
                                       if m_c.total_macs else 1.0),
            "wall_time_ms": m_c.wall_time,
            "flushed": m_c.flushed,
        })
    return records


def _compare_summary(records) -> dict:
    return {
        "frames": len(records),
        "mean_mse": statistics.fmean(r["mse"] for r in records),
        "max_abs_diff": max(r["max_abs_diff"] for r in records),
        "top1_agreement_rate": statistics.fmean(r["top1_agree"] for r in records),
        "top3_agreement_rate": statistics.fmean(r["top3_agree"] for r in records),
        "mean_match_ratio": statistics.fmean(r["match_ratio"] for r in records),
        "mean_computed_macs_fraction":
            statistics.fmean(r["computed_macs_fraction"] for r in records),
        "mean_wall_time_ms": statistics.fmean(r["wall_time_ms"] for r in records),
    }


def cmd_compare(args) -> int:
    graph = _load_graph(args)
    frames = _load_frames(args.frames)
    records = _compare_frames(args, graph, frames)
    report = {"summary": _compare_summary(records), "per_frame": records}
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _write_csv(out: str | None, lines: list[list]):
    """CSV lines to the file out, or to stdout when out is not given."""
    if out:
        with Path(out).open("w", newline="") as fh:
            csv.writer(fh).writerows(lines)
        print(f"wrote {out}")
    else:
        csv.writer(sys.stdout).writerows(lines)


def cmd_sweep(args) -> int:
    graph = _load_graph(args)
    frames = _load_frames(args.frames)
    raw_values = args.values.split(",")
    if len(raw_values) < 2:
        raise ValueError("sweep needs at least 2 values")
    rows = []
    for raw in raw_values:
        value = float(raw) if args.param == "threshold" else int(raw)
        sub = argparse.Namespace(**vars(args))
        if args.param == "threshold":
            sub.threshold = value
        elif args.param == "block-size":
            sub.block_size = value
        else:
            sub.expire = value
        records = _compare_frames(sub, graph, frames)
        s = _compare_summary(records)
        rows.append([raw, f"{s['mean_match_ratio']:.6f}",
                     f"{s['mean_computed_macs_fraction']:.6f}",
                     f"{s['mean_mse']:.6g}", f"{s['mean_wall_time_ms']:.3f}"])

    _write_csv(args.out, [SWEEP_CSV_HEADER] + rows)
    return 0


def cmd_bench_matcher(args) -> int:
    frames = _load_frames(args.frames)
    if len(frames) < 2:
        raise ValueError("bench-matcher needs at least 2 frames")
    # every config is built, and so checked, before any is timed
    configs = [(MatcherConfig(block_size=args.block_size, threshold_t=args.threshold,
                              skip_k=args.skip_k if optimized else 1,
                              search_range=args.search_range, strategy=strategy), optimized)
               for strategy in args.strategies.split(",") for optimized in (False, True)]
    pairs = [(frames[i - 1][1], frames[i][1]) for i in range(1, len(frames))]
    rows = []
    for cfg, optimized in configs:
        times = []
        ratios = []
        for ref, cur in pairs:
            t0 = time.perf_counter()
            result = match_frames(cur, ref, cfg)
            times.append((time.perf_counter() - t0) * 1000.0)
            ratios.append(result.match_ratio)
        rows.append([cfg.strategy, "true" if optimized else "false", len(pairs),
                     f"{statistics.fmean(times):.3f}",
                     f"{statistics.pstdev(times):.3f}",
                     f"{statistics.fmean(ratios):.6f}"])

    _write_csv(args.out, [BENCH_CSV_HEADER] + rows)
    return 0


def cmd_synth(args) -> int:
    frames = synth_sequence(count=args.count, width=args.width, height=args.height,
                            channels=args.channels, dx=args.dx, dy=args.dy,
                            noise=args.noise, seed=args.seed, square=args.with_square)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "pgm" if args.channels == 1 else "ppm"
    for i, frame in enumerate(frames):
        (out / f"frame_{i:04d}.{suffix}").write_bytes(write_frame_pnm(frame))
    print(f"wrote {len(frames)} {args.width}x{args.height} frames to {out}")
    if args.weights_out:
        if not args.model:
            raise ValueError("--weights-out needs --model")
        graph = parse_model(Path(args.model).read_text())
        blob = random_weights(graph, seed=args.seed)
        Path(args.weights_out).write_bytes(blob)
        print(f"wrote {len(blob)} weight bytes to {args.weights_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framecache",
        description="Cached CNN inference over frame sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    matcher = argparse.ArgumentParser(add_help=False)
    matcher.add_argument("--block-size", type=int, default=10)
    matcher.add_argument("--threshold", type=float, default=20.0,
                         help="minimum PSNR (dB) to accept a block match")
    matcher.add_argument("--skip-k", type=int, default=2)
    matcher.add_argument("--search-range", type=int, default=16)
    matcher.add_argument("--strategy", choices=sorted(SEARCH_STRATEGIES),
                         default="diamond")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--model", required=True)
    engine.add_argument("--weights", required=True)
    engine.add_argument("--frames", required=True)
    engine.add_argument("--expire", type=int, default=10,
                        help="frames between forced full computations")
    engine.add_argument("--mean", default="0",
                        help="per-channel preprocessing means, comma separated")
    engine.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("run", parents=[engine, matcher],
                       help="run one session, write per-frame metrics")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--out", default="metrics.csv", help="CSV path; JSON lands beside it")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", parents=[engine, matcher],
                       help="cached vs uncached divergence report")
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", parents=[engine, matcher],
                       help="compare across values of one parameter")
    p.add_argument("--param", required=True, choices=["threshold", "block-size", "expire"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench-matcher", parents=[matcher],
                       help="time the matcher per strategy, searching every block "
                            "(optimized=false) and every --skip-k-th (optimized=true)")
    p.add_argument("--frames", required=True)
    p.add_argument("--strategies", default=",".join(sorted(SEARCH_STRATEGIES)))
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench_matcher)

    p = sub.add_parser("synth", help="generate a synthetic PNM frame sequence")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--channels", type=int, choices=[1, 3], default=3)
    p.add_argument("--dx", type=int, default=2)
    p.add_argument("--dy", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-square", action="store_true")
    p.add_argument("--model", default=None,
                   help="model text to size --weights-out against")
    p.add_argument("--weights-out", default=None,
                   help="also write a seeded random weight blob for --model")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
