"""Model text parsing, weight blob loading, and PNM frame I/O.

Model format, one layer per line:

    input <C> <H> <W>
    <name> <type> key=value ... in=<blob>[,<blob>...] out=<blob>

The header defines the input blob, always named "data".  Types and their
keys: conv (k, s=1, p=0, out_ch), pool (k, s=1, p=0, mode=max|avg), relu,
lrn (r, alpha=1e-4, beta=0.75, bias=1.0), fc (out), softmax, concat,
scale (factor), bias (value); engine.OPS names the LayerSpec field and
value type of each.  Float values must be finite, and lrn needs bias > 0
and alpha >= 0.  '#' starts a comment.  Layer order is execution order;
consuming a blob produced by a later line is a cycle.

Weights are a raw little-endian float32 stream, one segment per
parameterized layer in declaration order: conv as [out_ch*in_ch*k*k
weights][out_ch biases], fc as [out*in weights][out biases].

Frames are binary PGM (P5, grayscale) or PPM (P6, RGB), maxval 255;
PPM's interleaved pixels are stored planar in Frame.
"""

from __future__ import annotations

import numpy as np

from .core import Frame
from .engine import OPS, LayerSpec, ModelGraph


class ModelParseError(ValueError):
    """Model text error, message prefixed by the offending line number."""


def _fail(line_no: int, msg: str):
    raise ModelParseError(f"line {line_no}: {msg}")


def parse_model(text: str) -> ModelGraph:
    """Parse the model text into a validated ModelGraph (no weights yet)."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((no, stripped))
    if not lines:
        raise ModelParseError("no layers (empty model text)")

    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 4 or parts[0] != "input":
        _fail(head_no, f"expected header 'input <C> <H> <W>', got {head!r}")
    try:
        in_c, in_h, in_w = (int(v) for v in parts[1:])
    except ValueError:
        _fail(head_no, f"non-integer input dimensions in {head!r}")
    if in_c < 1 or in_h < 1 or in_w < 1:
        _fail(head_no, "input dimensions must be positive")

    if len(lines) == 1:
        raise ModelParseError("no layers")

    # First pass: tokenize layers, record blob producers.
    raw_layers = []
    producer: dict[str, int] = {ModelGraph.INPUT_BLOB: -1}
    names = set()
    for idx, (no, line) in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) < 2:
            _fail(no, f"expected '<name> <type> ...', got {line!r}")
        name, ltype = toks[0], toks[1]
        if "=" in name:
            _fail(no, f"missing layer name in {line!r}")
        if ltype not in OPS:
            _fail(no, f"unknown layer type {ltype!r}")
        if name in names:
            _fail(no, f"duplicate layer name {name!r}")
        names.add(name)

        # in= and out= close every line, in that order; keys come before
        # them.  fc also has an 'out' parameter key, so only the trailing
        # position tells the output blob apart from it.
        if len(toks) < 4 or not toks[-2].startswith("in=") or not toks[-1].startswith("out="):
            _fail(no, "line must end with in=<blob>[,<blob>...] out=<blob>")
        in_blobs = toks[-2][len("in="):].split(",")
        out_blob = toks[-1][len("out="):]
        if not all(in_blobs):
            _fail(no, "missing or empty in= blob list")
        if not out_blob:
            _fail(no, "missing out= blob")
        keys = OPS[ltype].keys
        values = {}
        for tok in toks[2:-2]:
            if "=" not in tok:
                _fail(no, f"expected key=value, got {tok!r}")
            key, _, raw = tok.partition("=")
            if key not in keys:
                _fail(no, f"unknown key {key!r} for type {ltype!r}")
            try:
                values[keys[key].field] = keys[key].type(raw)
            except ValueError:
                _fail(no, f"bad numeric value for {key}: {raw!r}")
        missing = [key for key, k in keys.items() if k.default is None and k.field not in values]
        if missing:
            _fail(no, f"{ltype} requires {sorted(missing)}")
        for k in keys.values():
            values.setdefault(k.field, k.default)
        if out_blob in producer:
            _fail(no, f"duplicate blob producer for {out_blob!r}")
        producer[out_blob] = idx
        raw_layers.append((no, name, ltype, values, in_blobs, out_blob))

    # Second pass: check wiring, infer dimensions, build specs.
    blob_dims: dict[str, tuple[int, int, int]] = {ModelGraph.INPUT_BLOB: (in_c, in_h, in_w)}
    layers: list[LayerSpec] = []
    for idx, (no, name, ltype, values, in_blobs, out_blob) in enumerate(raw_layers):
        for b in in_blobs:
            if b not in producer:
                _fail(no, f"undefined blob {b!r}")
            if producer[b] >= idx:
                _fail(no, f"cycle detected: blob {b!r} is produced later")
        try:
            spec = LayerSpec(name, ltype, in_blobs, out_blob, **values)
            blob_dims[out_blob] = OPS[ltype].dims(spec, [blob_dims[b] for b in in_blobs])
        except ValueError as e:
            _fail(no, str(e))
        layers.append(spec)

    return ModelGraph(input_dims=(in_c, in_h, in_w), layers=layers, blob_dims=blob_dims)


def serialize_model(graph: ModelGraph) -> str:
    """Model text for a graph; parse_model(serialize_model(g)) equals g."""
    c, h, w = graph.input_dims
    out = [f"input {c} {h} {w}"]
    for s in graph.layers:
        parts = [s.name, s.op]
        for key, k in OPS[s.op].keys.items():
            parts.append(f"{key}={getattr(s, k.field)}")
        parts.append("in=" + ",".join(s.in_blobs))
        parts.append(f"out={s.out_blob}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def expected_weight_bytes(graph: ModelGraph) -> int:
    return 4 * sum(int(np.prod(ws)) + int(np.prod(bs))
                   for _, ws, bs in graph.param_shapes())


def load_weights(blob: bytes, graph: ModelGraph) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Attach weight/bias arrays from a raw blob to the graph's layers.

    Returns {layer name: (weights, biases)}; the same arrays are stored on
    each LayerSpec.  The blob length must match the declared parameter
    count exactly.
    """
    expected = expected_weight_bytes(graph)
    if len(blob) != expected:
        raise ValueError(f"weight blob length mismatch: expected {expected} bytes, "
                         f"got {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4")
    store = {}
    pos = 0
    for spec, ws, bs in graph.param_shapes():
        wn = int(np.prod(ws))
        bn = int(np.prod(bs))
        w = flat[pos:pos + wn].reshape(ws)
        b = flat[pos + wn:pos + wn + bn]
        pos += wn + bn
        spec.weights = w
        spec.biases = b
        store[spec.name] = (w, b)
    return store


def serialize_weights(graph: ModelGraph) -> bytes:
    """Concatenate the graph's loaded weights back into blob form."""
    chunks = []
    for spec, _, _ in graph.param_shapes():
        if spec.weights is None or spec.biases is None:
            raise ValueError(f"layer {spec.name!r} has no weights to serialize")
        chunks.append(np.ascontiguousarray(spec.weights, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(spec.biases, dtype="<f4").tobytes())
    return b"".join(chunks)


def random_weights(graph: ModelGraph, seed: int = 0) -> bytes:
    """Seeded Gaussian weight blob (std 1/sqrt(fan-in), zero biases)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _, ws, bs in graph.param_shapes():
        fan_in = int(np.prod(ws[1:]))
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=ws).astype("<f4")
        b = np.zeros(bs, dtype="<f4")
        chunks.append(w.tobytes())
        chunks.append(b.tobytes())
    return b"".join(chunks)


def _next_token(data: bytes, i: int) -> tuple[bytes, int]:
    n = len(data)
    while i < n:
        if data[i:i + 1].isspace():
            i += 1
        elif data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
        else:
            break
    start = i
    while i < n and not data[i:i + 1].isspace():
        i += 1
    if start == i:
        raise ValueError("invalid PNM header (truncated)")
    return data[start:i], i


def load_frame_pnm(data: bytes) -> Frame:
    """Decode binary PGM (P5) or PPM (P6), maxval 255, into a planar Frame."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported magic {magic!r} (want binary P5 or P6)")
    channels = 1 if magic == b"P5" else 3
    i = 2
    vals = []
    for _ in range(3):
        tok, i = _next_token(data, i)
        if not tok.isdigit():
            raise ValueError(f"invalid PNM header token {tok!r}")
        vals.append(int(tok))
    w, h, maxval = vals
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255)")
    if w < 1 or h < 1:
        raise ValueError(f"bad PNM dimensions {w}x{h}")
    i += 1  # single whitespace byte after maxval
    raster = data[i:i + w * h * channels]
    if len(raster) != w * h * channels:
        raise ValueError(f"truncated pixel data: expected {w * h * channels} bytes, "
                         f"got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        planar = arr.reshape(1, h, w)
    else:
        planar = arr.reshape(h, w, 3).transpose(2, 0, 1)
    return Frame(planar)


def write_frame_pnm(frame: Frame) -> bytes:
    """Canonical binary PNM bytes; inverse of load_frame_pnm for canonical files."""
    if frame.channels == 1:
        header = b"P5\n%d %d\n255\n" % (frame.width, frame.height)
        raster = frame.data[0].tobytes()
    elif frame.channels == 3:
        header = b"P6\n%d %d\n255\n" % (frame.width, frame.height)
        raster = np.ascontiguousarray(frame.data.transpose(1, 2, 0)).tobytes()
    else:
        raise ValueError(f"PNM supports 1 or 3 channels, frame has {frame.channels}")
    return header + raster
