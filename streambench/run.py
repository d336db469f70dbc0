"""Streaming-inference benchmark for framecache.

    python3 streambench/run.py --workload stream_pan --seed 1 --seconds 20 --trace 0

Runs one workload closed loop on one thread for --seconds, checks every
result, and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The trace spans and the result are also written under streambench/out/.
See streambench/README.md.
"""

import os

# One thread everywhere: pin the BLAS pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stream_pan", "stream_cut"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "framecache" / "__init__.py").is_file():
        print(f"streambench: no framecache sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads  # noqa: E402  (needs the paths above)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = out_dir / f"{stem}.spans.jsonl" if args.trace else None
    result, errors, absent = workloads.run(args.workload, args.seed, args.seconds,
                                           bool(args.trace), trace_path=trace_path)
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if absent:
        print(f"absent spans: {', '.join(absent)}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}", file=sys.stderr)
    line = json.dumps(result)
    (out_dir / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
