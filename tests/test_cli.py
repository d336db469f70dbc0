import csv
import json
from pathlib import Path

import numpy as np
import pytest

from framecache import expected_weight_bytes, load_frame_pnm, parse_model
from framecache.cli import (BENCH_CSV_HEADER, RUN_CSV_HEADER,
                            SWEEP_CSV_HEADER, main)

MODEL_TEXT = """\
input 1 32 32
c1 conv k=5 out_ch=4 s=2 p=2 in=data out=b1
r1 relu in=b1 out=b2
p1 pool k=2 s=2 in=b2 out=b3
c2 conv k=3 out_ch=6 s=1 p=1 in=b3 out=b4
f1 fc out=10 in=b4 out=b5
sm softmax in=b5 out=prob
"""


@pytest.fixture(scope="session")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    model = d / "model.txt"
    model.write_text(MODEL_TEXT)
    weights = d / "weights.bin"
    rc = main(["synth", "--out", str(d / "unused"), "--count", "1",
               "--width", "32", "--height", "32", "--channels", "1",
               "--model", str(model), "--weights-out", str(weights)])
    assert rc == 0
    return model, weights


@pytest.fixture(scope="session")
def moving_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("moving")
    rc = main(["synth", "--out", str(d), "--count", "30", "--width", "32",
               "--height", "32", "--channels", "1", "--dx", "2", "--seed", "1"])
    assert rc == 0
    return d


@pytest.fixture(scope="session")
def noisy_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("noisy")
    rc = main(["synth", "--out", str(d), "--count", "12", "--width", "32",
               "--height", "32", "--channels", "1", "--dx", "2",
               "--noise", "0.02", "--seed", "4"])
    assert rc == 0
    return d


@pytest.fixture(scope="session")
def identical_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("still")
    rc = main(["synth", "--out", str(d), "--count", "5", "--width", "32",
               "--height", "32", "--channels", "1", "--dx", "0", "--dy", "0",
               "--seed", "2"])
    assert rc == 0
    return d


def engine_args(model_files, frames_dir):
    model, weights = model_files
    return ["--model", str(model), "--weights", str(weights),
            "--frames", str(frames_dir)]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSynthCommand:
    def test_writes_frames(self, moving_dir):
        files = sorted(moving_dir.glob("frame_*.pgm"))
        assert len(files) == 30
        assert files[0].name == "frame_0000.pgm"
        raw = files[0].read_bytes()
        assert raw.startswith(b"P5")
        f = load_frame_pnm(raw)
        assert f.data.shape == (1, 32, 32)

    def test_color_frames_are_ppm(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--count", "2",
                   "--width", "16", "--height", "16"])
        assert rc == 0
        files = sorted(tmp_path.glob("frame_*.ppm"))
        assert len(files) == 2
        assert load_frame_pnm(files[0].read_bytes()).data.shape == (3, 16, 16)

    def test_weight_blob_sized_for_model(self, model_files):
        model, weights = model_files
        graph = parse_model(model.read_text())
        assert weights.stat().st_size == expected_weight_bytes(graph)

    def test_weights_out_requires_model(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--count", "1",
                   "--weights-out", str(tmp_path / "w.bin")])
        assert rc == 1


class TestRunCommand:
    def test_csv_json_and_flush_schedule(self, model_files, moving_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = main(["run", *engine_args(model_files, moving_dir),
                   "--expire", "10", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == RUN_CSV_HEADER
        assert len(rows) == 30
        flushed = [int(r[0]) for r in rows if r[6] == "true"]
        assert flushed == [1, 11, 21]
        for r in rows:
            assert int(r[2]) <= int(r[3])
            assert len(r[7].split(";")) == len(r[8].split(";")) == 5

        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["frames"] == 30
        assert summary["flush_count"] == 3
        assert 0.0 < summary["computed_macs_fraction"] <= 1.0
        assert summary["total_copied_pixels"] > 0

    def test_small_output_is_ranked(self, moving_dir, tmp_path):
        # an output of fewer than five entries is listed largest first too
        model = tmp_path / "tiny.txt"
        model.write_text("input 1 32 32\nf1 fc out=3 in=data out=out\n")
        weights = tmp_path / "tiny.bin"
        weights.write_bytes(np.concatenate([np.zeros(3 * 32 * 32),
                                            [0.1, 0.7, 0.2]]).astype("<f4").tobytes())
        out = tmp_path / "tiny.csv"
        rc = main(["run", *engine_args((model, weights), moving_dir), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        for r in rows:
            assert r[7] == "1;2;0"
            assert r[8] == "0.7;0.2;0.1"

    def test_no_cache_runs_everything(self, model_files, moving_dir, tmp_path):
        out = tmp_path / "plain.csv"
        rc = main(["run", *engine_args(model_files, moving_dir),
                   "--expire", "1", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        for r in rows:
            assert r[4] == "0"
            assert r[2] == r[3]
            assert r[6] == "true"

    def test_missing_model_path(self, model_files, moving_dir, tmp_path):
        _, weights = model_files
        rc = main(["run", "--model", str(tmp_path / "nope.txt"),
                   "--weights", str(weights), "--frames", str(moving_dir),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_empty_frames_dir(self, model_files, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["run", *engine_args(model_files, empty),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestCompareCommand:
    def test_identical_frames_mse_zero(self, model_files, identical_dir, tmp_path):
        out = tmp_path / "cmp.json"
        rc = main(["compare", *engine_args(model_files, identical_dir),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["frames"] == 5
        assert report["summary"]["mean_mse"] == 0.0
        assert report["summary"]["top1_agreement_rate"] == 1.0
        for rec in report["per_frame"]:
            assert rec["mse"] == 0.0
            assert rec["max_abs_diff"] == 0.0

    def test_infinite_threshold_mse_zero(self, model_files, noisy_dir, tmp_path):
        out = tmp_path / "cmp.json"
        rc = main(["compare", *engine_args(model_files, noisy_dir),
                   "--threshold", "inf", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["summary"]["mean_mse"] == 0.0
        assert report["summary"]["mean_match_ratio"] == 0.0

    def test_stdout_when_no_out(self, model_files, identical_dir, capsys):
        rc = main(["compare", *engine_args(model_files, identical_dir)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "summary" in report and "per_frame" in report


class TestSweepCommand:
    def test_threshold_monotone(self, model_files, noisy_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *engine_args(model_files, noisy_dir),
                   "--param", "threshold", "--values", "5,20,40",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == SWEEP_CSV_HEADER
        assert [r[0] for r in rows] == ["5", "20", "40"]
        ratios = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_expire_one_never_diverges(self, model_files, noisy_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *engine_args(model_files, noisy_dir),
                   "--param", "expire", "--values", "1,10", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0][3]) == 0.0

    def test_needs_two_values(self, model_files, noisy_dir, tmp_path):
        rc = main(["sweep", *engine_args(model_files, noisy_dir),
                   "--param", "threshold", "--values", "20",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1


class TestBenchMatcherCommand:
    def test_rows_and_shape(self, moving_dir, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench-matcher", "--frames", str(moving_dir),
                   "--strategies", "diamond,exhaustive", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == BENCH_CSV_HEADER
        assert [(r[0], r[1]) for r in rows] == [
            ("diamond", "false"), ("diamond", "true"),
            ("exhaustive", "false"), ("exhaustive", "true")]
        for r in rows:
            assert int(r[2]) == 29
            assert float(r[3]) >= 0.0
            assert 0.0 <= float(r[5]) <= 1.0

    def test_unknown_strategy(self, moving_dir, tmp_path):
        rc = main(["bench-matcher", "--frames", str(moving_dir),
                   "--strategies", "psychic", "--out", str(tmp_path / "b.csv")])
        assert rc == 1


def test_mean_flag_per_channel(model_files, moving_dir, tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["run", *engine_args(model_files, moving_dir),
               "--mean", "120", "--scale", "0.01", "--out", str(out)])
    assert rc == 0


def test_mean_flag_wrong_arity(model_files, moving_dir, tmp_path):
    rc = main(["run", *engine_args(model_files, moving_dir),
               "--mean", "1,2", "--out", str(tmp_path / "m.csv")])
    assert rc == 1
