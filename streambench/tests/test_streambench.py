"""Fast tests of the benchmark itself, at toy size.

    python3 -m pytest streambench/tests -q

Each workload runs end to end on a short clip and a narrow model, and
each correctness check is shown to reject a corrupted result.
"""

import dataclasses
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _metric_names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_at_toy_size(name, trace):
    result, errors, absent = W.run(name, seed=5, seconds=0.01, trace=trace, size=W.TOY)
    assert absent == [] and result["correct"] and result["attempted"] >= 1
    # the only failures allowed are on the workload's known-fault probes
    assert result["failed"] == len(errors)
    assert all("(probe_" in line for line in errors)
    expected = _metric_names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_raising_operation_fails_the_run(name, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(W.matching, "match_frames", boom)
    monkeypatch.setattr(W.engine.Session, "run_frame", boom)
    result, errors, _ = W.run(name, seed=5, seconds=0.01, trace=False, size=W.TOY)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["frames_per_s"]["value"] == 0
    assert all("RuntimeError: broken" in line for line in errors)


def test_verdict_spares_only_known_fault_checks():
    w = W.StreamPan(W.TOY, seed=1)
    ok, fault = W.Op(0, "cached", 1), W.Op(1, "probe_misaligned", 1)
    assert w.known_fault(fault) and not w.known_fault(ok)
    assert not w.known_fault(W.Op(2, "probe_misaligned", 0))   # its flush must pass
    assert w.known_fault(W.Op(3, "probe_motion", 1))
    assert not w.known_fault(W.Op(3, "probe_motion", 2))
    assert W.verdict(w, [ok, fault], {1: ["off"]}) == (True, 1)
    assert W.verdict(w, [ok, fault], {0: ["off"]}) == (False, 1)
    assert W.verdict(w, [ok, dataclasses.replace(fault, error="E")], {}) == (False, 1)


def _ops(workload):
    workload.setup()
    workload.prepare()
    runner = W.Runner(workload)
    workload.round(runner.next_op)
    return runner.ops


@pytest.fixture(scope="module")
def pan_frames():
    w = W.StreamPan(W.TOY, seed=7)
    return w, _ops(w)


def test_output_check_rejects_perturbation(pan_frames):
    w, ops = pan_frames
    flush = next(op for op in ops if op.kind == "flush")
    weights = checks.decode_weights(w.blob, w.layers, w.input_dims)
    oracle = checks.oracle_forward(w.clip[flush.index].data, w.layers, weights,
                                   W.MEAN, W.INPUT_SCALE)
    out = flush.result[0].data.astype(np.float64).ravel()
    assert checks.check_output(out, oracle, exact=True) == []
    bad = out.copy()
    bad[0] += 2 * checks.OUTPUT_TOL
    assert any("oracle" in p for p in checks.check_output(bad, oracle, exact=True))
    swapped = out[::-1].copy()
    assert any("top-1" in p for p in checks.check_output(swapped, oracle, exact=True))
    assert checks.check_output(swapped, oracle, exact=False) == []
    assert any("probability" in p for p in checks.check_output(2 * out, oracle, exact=False))


def test_aligned_probe_reuses_exactly_and_rejects_a_stale_copy(pan_frames):
    w, ops = pan_frames
    flush, cached = [op for op in ops if op.kind == "probe_aligned"]
    assert cached.result[1].copied_pixels > 0
    clip = w.probe_clips["probe_aligned"]
    oracle = w.oracles(w.probe_blob, clip)
    assert w.check([flush, cached]) == {}
    # the previous frame's output handed back as this frame's
    stale = flush.result[0].data
    assert any("oracle" in p for p in checks.check_output(stale, oracle[1], exact=True))


def test_conv_check_rejects_broken_mac_identity(pan_frames):
    w, ops = pan_frames
    cached = next(op for op in ops if op.kind == "cached")
    metrics = cached.result[1]
    assert checks.check_conv_records(metrics, w.geometry, flushed_expected=False) == []
    rec = metrics.per_layer[0]
    broken = dataclasses.replace(metrics, per_layer=[
        dataclasses.replace(rec, copied_pixels=rec.copied_pixels + 1), *metrics.per_layer[1:]])
    problems = checks.check_conv_records(broken, w.geometry, flushed_expected=False)
    assert any("copied" in p for p in problems)
    assert checks.check_conv_records(metrics, w.geometry, flushed_expected=True)


def test_pair_check_rejects_wrong_motion_and_lost_cover(pan_frames):
    w, ops = pan_frames
    cached = next(op for op in ops if op.kind == "cached")
    result, t = cached.match, cached.index
    truth = (-W.PAN[0], -W.PAN[1])
    assert result.global_motion == truth
    pairs = checks.PairCheck(w.clip, w.pan_clip(noise=0.0), W.NOISE, w.cfg)
    assert pairs(result, t) == [] and pairs(result, t, truth=truth) == []
    wrong = dataclasses.replace(result, global_motion=(-1, -1))
    problems = pairs(wrong, t, truth=truth)
    assert any("is not dst" in p for p in problems)
    assert any("true motion" in p for p in problems)
    dropped = dataclasses.replace(result, mappings=result.mappings[1:])
    problems = pairs(dropped, t)
    assert any("rigid blocks not covered" in p for p in problems)
    assert any("match_ratio" in p for p in problems)
    # the workload checks the match behind each cache-assisted frame
    assert w.check([cached]) == {}
    assert w.check([dataclasses.replace(cached, match=dropped)]) != {}


def test_match_check_rejects_block_below_threshold(pan_frames):
    w, ops = pan_frames
    cached = next(op for op in ops if op.kind == "cached")
    m = cached.match.mappings[0]
    # the same mapping, claimed for a frame whose content is unrelated
    noise = np.random.default_rng(0).integers(0, 256, size=w.clip[0].data.shape, dtype=np.uint8)
    problems = checks.check_match(dataclasses.replace(cached.match, mappings=[m]), noise,
                                  w.clip[cached.index - 1].data, w.cfg.block_size,
                                  w.cfg.threshold_t)
    assert any("mapped with SSE" in p for p in problems)


def test_tracer_self_time_and_absent_span():
    calls = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return calls.inner() + 1

    calls.inner, calls.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(calls, "inner", "inner", lambda r: {"value": r})
    tracer.wrap(calls, "outer", "outer")
    tracer.wrap(calls, "removed_by_refactor", "gone")
    tracer.op = 3
    assert calls.outer() == 2
    tracer.unwrap()
    assert calls.outer is outer and tracer.absent == ["gone"]
    names = [s["name"] for s in tracer.spans]
    assert names == ["outer", "inner"]
    inner_span = tracer.spans[1]
    assert inner_span["parent"] == 0 and inner_span["op"] == 3
    assert inner_span["attrs"] == {"value": 1}
    self_outer, self_inner = tracer.self_times()
    outer_span = tracer.spans[0]
    whole = outer_span["end"] - outer_span["start"]
    assert self_outer == pytest.approx(whole - (inner_span["end"] - inner_span["start"]))
    assert 0 <= self_inner <= whole


def test_tail_has_ten_values_beyond_it():
    values = list(range(54, 0, -1))
    assert W.tail(values) == 44
    assert sum(v > W.tail(values) for v in values) == W.TAIL_BEYOND
    assert W.tail([3.0, 1.0]) == 1.0


def test_best_ms_takes_each_frame_at_its_fastest():
    ops = [W.Op(0, "cached", 1, ms=5.0), W.Op(1, "cached", 2, ms=9.0),
           W.Op(2, "cached", 1, ms=4.0), W.Op(3, "cached", 2, ms=7.0),
           W.Op(4, "cached", 1, ms=1.0, error="E"), W.Op(5, "flush", 0, ms=0.5)]
    assert sorted(W.best_ms(ops, "cached")) == [4.0, 7.0]
    assert W.best_ms(ops, "flush") == [0.5]
    assert sorted(W.best_ms(ops)) == [0.5, 4.0, 7.0]
