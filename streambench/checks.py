"""Correctness checks written apart from framecache.

Nothing here calls into the program under test.  The model is described
by the benchmark's own layer table; its geometry, MAC counts, weight
layout and a float64 forward pass are computed from that table with
plain numpy.  Matcher results are checked against integer SSE computed
here and against a noise-free twin of the generated clip.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Largest |program - oracle| allowed on a softmax output when the frame
# must be exact: it copied nothing, or it reused only bit-identical blocks.
# The program stores float32 between layers while the oracle stays in
# float64; the observed gap is below 1e-6.
OUTPUT_TOL = 1e-5
# Score the matcher gives identical blocks (framecache.matching.PSNR_MAX).
PSNR_IDENTICAL = 100.0


@dataclass(frozen=True)
class Layer:
    """One layer of a linear chain; params as in the model text."""

    name: str
    op: str
    params: dict = field(default_factory=dict)


def render_model(layers: list[Layer], input_dims: tuple[int, int, int]) -> str:
    """Model text for framecache.parse_model; each layer feeds the next."""
    c, h, w = input_dims
    lines = [f"input {c} {h} {w}"]
    prev = "data"
    for layer in layers:
        kv = [f"{k}={v}" for k, v in layer.params.items()]
        lines.append(" ".join([layer.name, layer.op, *kv, f"in={prev}", f"out={layer.name}"]))
        prev = layer.name
    return "\n".join(lines) + "\n"


def _window_out(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


def layer_dims(layers: list[Layer], input_dims) -> list[tuple[tuple, tuple]]:
    """(input dims, output dims) per layer, as (channels, height, width)."""
    dims = []
    cur = tuple(input_dims)
    for layer in layers:
        c, h, w = cur
        p = layer.params
        if layer.op in ("conv", "pool"):
            k, s, pad = p["k"], p.get("s", 1), p.get("p", 0)
            out_c = p["out_ch"] if layer.op == "conv" else c
            nxt = (out_c, _window_out(h, k, s, pad), _window_out(w, k, s, pad))
        elif layer.op == "fc":
            nxt = (p["out"], 1, 1)
        else:
            nxt = cur
        dims.append((cur, nxt))
        cur = nxt
    return dims


def conv_geometry(layers, input_dims) -> dict[str, dict]:
    """Per conv layer: in_ch, k, outputs (elements) and full MAC count."""
    geo = {}
    for layer, (ind, outd) in zip(layers, layer_dims(layers, input_dims)):
        if layer.op != "conv":
            continue
        k = layer.params["k"]
        outputs = outd[0] * outd[1] * outd[2]
        geo[layer.name] = {"in_ch": ind[0], "k": k, "outputs": outputs,
                           "total": outputs * ind[0] * k * k}
    return geo


def decode_weights(blob: bytes, layers, input_dims) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Split a weight blob by the documented layout: per conv or fc layer in
    order, its weights then its biases, little-endian float32."""
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    out, pos = {}, 0
    for layer, (ind, outd) in zip(layers, layer_dims(layers, input_dims)):
        if layer.op == "conv":
            k = layer.params["k"]
            shape = (outd[0], ind[0], k, k)
        elif layer.op == "fc":
            shape = (outd[0], ind[0] * ind[1] * ind[2])
        else:
            continue
        n = int(np.prod(shape))
        out[layer.name] = (flat[pos:pos + n].reshape(shape), flat[pos + n:pos + n + shape[0]])
        pos += n + shape[0]
    if pos != flat.size:
        raise ValueError(f"weight blob holds {flat.size} values, layout needs {pos}")
    return out


def _windows(x: np.ndarray, k: int, s: int, p: int, fill: float) -> np.ndarray:
    """(C, out_h, out_w, k, k) view of every k x k window at stride s."""
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p)), constant_values=fill)
    return np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))[:, ::s, ::s]


def oracle_forward(frame: np.ndarray, layers, weights, mean, scale) -> np.ndarray:
    """float64 forward pass of the layer chain; returns the flat output."""
    x = (frame.astype(np.float64) - np.asarray(mean, dtype=np.float64)[:, None, None]) * scale
    for layer in layers:
        p = layer.params
        if layer.op == "conv":
            w, b = weights[layer.name]
            win = _windows(x, p["k"], p.get("s", 1), p.get("p", 0), 0.0)
            c, oh, ow = win.shape[:3]
            cols = win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, -1)
            x = (cols @ w.reshape(w.shape[0], -1).T + b).T.reshape(-1, oh, ow)
        elif layer.op == "pool":
            x = _windows(x, p["k"], p.get("s", 1), p.get("p", 0), -np.inf).max(axis=(3, 4))
        elif layer.op == "relu":
            x = np.maximum(x, 0.0)
        elif layer.op == "lrn":
            r = p["r"]
            size = 2 * r + 1
            sq = np.pad(x * x, ((r, r), (0, 0), (0, 0)))
            acc = sum(sq[o:o + x.shape[0]] for o in range(size))
            x = x / (p.get("bias", 1.0) + p.get("alpha", 1e-4) / size * acc) ** p.get("beta", 0.75)
        elif layer.op == "fc":
            w, b = weights[layer.name]
            x = (w @ x.ravel() + b).reshape(-1, 1, 1)
        elif layer.op == "softmax":
            e = np.exp(x - x.max(axis=0, keepdims=True))
            x = e / e.sum(axis=0, keepdims=True)
        else:
            raise ValueError(f"oracle has no op {layer.op!r}")
    return x.ravel()


def check_output(out: np.ndarray, oracle: np.ndarray, exact: bool) -> list[str]:
    """Every frame must give a probability vector.  An exact frame must
    also match the oracle within OUTPUT_TOL and agree with it on top-1."""
    out = np.asarray(out, dtype=np.float64).ravel()
    if out.shape != oracle.shape:
        return [f"output has {out.size} values, oracle {oracle.size}"]
    problems = []
    if not np.all(np.isfinite(out)) or out.min() < 0 or abs(out.sum() - 1.0) > 1e-4:
        problems.append(f"not a probability vector (sum {out.sum():.6f})")
    if exact:
        diff = float(np.abs(out - oracle).max())
        if diff > OUTPUT_TOL:
            problems.append(f"max |out - oracle| = {diff:.3g} > {OUTPUT_TOL}")
        if int(out.argmax()) != int(oracle.argmax()):
            problems.append(f"top-1 {int(out.argmax())} != oracle {int(oracle.argmax())}")
    return problems


def check_conv_records(metrics, geometry: dict[str, dict], flushed_expected: bool) -> list[str]:
    """MAC identity and totals of a frame's conv records against the
    benchmark's own geometry; flush flag against the expiry schedule."""
    problems = []
    if metrics.flushed != flushed_expected:
        problems.append(f"flushed={metrics.flushed}, schedule says {flushed_expected}")
    names = [r.name for r in metrics.per_layer]
    if names != list(geometry):
        return problems + [f"conv records {names}, model has {list(geometry)}"]
    for r in metrics.per_layer:
        g = geometry[r.name]
        if r.total_macs != g["total"]:
            problems.append(f"{r.name}: total {r.total_macs} != {g['total']}")
        if r.computed_macs < 0 or r.copied_pixels < 0:
            problems.append(f"{r.name}: negative count")
        if r.computed_macs + r.copied_pixels * g["in_ch"] * g["k"] ** 2 != g["total"]:
            problems.append(f"{r.name}: computed {r.computed_macs} + copied {r.copied_pixels}"
                            f" * {g['in_ch']} * {g['k']}^2 != {g['total']}")
        if flushed_expected and r.copied_pixels:
            problems.append(f"{r.name}: flush copied {r.copied_pixels}")
    if metrics.computed_macs != sum(r.computed_macs for r in metrics.per_layer):
        problems.append("computed_macs is not the sum of its records")
    if metrics.total_macs != sum(g["total"] for g in geometry.values()):
        problems.append("total_macs is not the model's MAC count")
    if metrics.copied_pixels != sum(r.copied_pixels for r in metrics.per_layer):
        problems.append("copied_pixels is not the sum of its records")
    return problems


def block_grid(cur: np.ndarray, prev: np.ndarray, motion, bs: int, reduce):
    """reduce(|cur block - prev block at motion|) per grid block, as int64;
    -1 where the block's source leaves the frame.  reduce is "sse" or "max"."""
    c, h, w = cur.shape
    rows, cols = h // bs, w // bs
    mx, my = motion
    out = np.full((rows, cols), -1, dtype=np.int64)
    # grid columns/rows whose source window lies inside prev
    c0 = max(0, -(mx // bs))
    c1 = min(cols, (w - mx) // bs)
    r0 = max(0, -(my // bs))
    r1 = min(rows, (h - my) // bs)
    if c0 >= c1 or r0 >= r1:
        return out
    ys, xs = slice(r0 * bs, r1 * bs), slice(c0 * bs, c1 * bs)
    ps = (slice(r0 * bs + my, r1 * bs + my), slice(c0 * bs + mx, c1 * bs + mx))
    d = cur[:, ys, xs].astype(np.int64) - prev[:, ps[0], ps[1]].astype(np.int64)
    d = d.reshape(c, r1 - r0, bs, c1 - c0, bs)
    if reduce == "sse":
        vals = (d * d).sum(axis=(0, 2, 4))
    else:
        vals = np.abs(d).max(axis=(0, 2, 4))
    out[r0:r1, c0:c1] = vals
    return out


def psnr_db(sse: int, count: int) -> float:
    if sse == 0:
        return PSNR_IDENTICAL
    return 10.0 * np.log10(65025.0 * count / sse)


def check_match(result, cur: np.ndarray, prev: np.ndarray, bs: int, threshold: float,
                motion=None, rigid=None, sse=None) -> list[str]:
    """Structural checks on a MatchResult; when motion is given, that
    global_motion equals it; when rigid is given (a boolean block grid),
    that every block it marks is covered.  sse may pass in the pair's
    block_grid at global_motion, to spare recomputing it."""
    c, h, w = cur.shape
    rows, cols = h // bs, w // bs
    mx, my = result.global_motion
    problems = []
    if motion is not None and (mx, my) != tuple(motion):
        problems.append(f"global_motion {(mx, my)} != true motion {tuple(motion)}")
    cover = np.zeros((rows, cols), dtype=np.int64)
    for m in result.mappings:
        d, s = m.dst, m.src
        if d.x < 0 or d.y < 0 or d.x + d.w > w or d.y + d.h > h or d.w <= 0 or d.h <= 0:
            problems.append(f"dst {d} outside the frame")
            continue
        if (s.x - d.x, s.y - d.y, s.w, s.h) != (mx, my, d.w, d.h):
            problems.append(f"src {s} is not dst {d} shifted by {(mx, my)}")
        if d.x % bs or d.y % bs or d.w % bs or d.h % bs or d.x + d.w > cols * bs \
                or d.y + d.h > rows * bs:
            problems.append(f"dst {d} is not a union of grid blocks")
            continue
        cover[d.y // bs:(d.y + d.h) // bs, d.x // bs:(d.x + d.w) // bs] += 1
    if (cover > 1).any():
        problems.append(f"{int((cover > 1).sum())} blocks under overlapping dsts")
    covered = cover > 0
    if covered.any():
        if sse is None:
            sse = block_grid(cur, prev, (mx, my), bs, "sse")
        count = c * bs * bs
        for r, col in zip(*np.nonzero(covered)):
            v = int(sse[r, col])
            if v < 0 or not psnr_db(v, count) > threshold:
                problems.append(f"block ({col}, {r}) mapped with SSE {v}")
                break
    if rigid is not None:
        missed = rigid & ~covered
        if missed.any():
            problems.append(f"{int(missed.sum())} rigid blocks not covered")
    area = int(covered.sum()) * bs * bs
    if abs(result.match_ratio - area / (w * h)) > 1e-12:
        problems.append(f"match_ratio {result.match_ratio} != covered {area} / {w * h}")
    return problems


class PairCheck:
    """check_match for consecutive pairs of one noisy clip.

    twin is the same clip generated without noise: a block moved rigidly
    by a motion iff its twin content equals its twin source there.  Step 4
    must cover every such block, since noise alone keeps it above 32 dB.
    The rigid blocks are taken at `truth` when given, which global_motion
    must then equal, else at the motion found.  Block grids depend only on
    the pair and the motion, so each is computed once.
    """

    def __init__(self, clip, twin, noise: float, cfg):
        bound = math.ceil(noise * 255) + 1
        for a, b in zip(clip, twin):
            if np.abs(a.data.astype(np.int16) - b.data.astype(np.int16)).max() > bound:
                raise RuntimeError("noise-free twin does not match the clip")
        self.clip, self.twin, self.cfg = clip, twin, cfg
        self._grids = {}

    def _grid(self, t: int, motion) -> tuple[np.ndarray, np.ndarray]:
        key = (t, motion)
        if key not in self._grids:
            bs, clip, twin = self.cfg.block_size, self.clip, self.twin
            self._grids[key] = (
                block_grid(clip[t].data, clip[t - 1].data, motion, bs, "sse"),
                block_grid(twin[t].data, twin[t - 1].data, motion, bs, "max") == 0)
        return self._grids[key]

    def __call__(self, result, t: int, truth=None) -> list[str]:
        found = tuple(result.global_motion)
        sse, _ = self._grid(t, found)
        _, rigid = self._grid(t, truth or found)
        return check_match(result, self.clip[t].data, self.clip[t - 1].data,
                           self.cfg.block_size, self.cfg.threshold_t, motion=truth,
                           rigid=rigid, sse=sse)
