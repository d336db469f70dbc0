from dataclasses import fields

import numpy as np
import pytest

from framecache import (Frame, ModelParseError, expected_weight_bytes,
                        load_frame_pnm, load_weights, parse_model,
                        random_weights, serialize_model, serialize_weights,
                        write_frame_pnm)
from framecache.engine import OPS, LayerSpec

BASIC = """\
input 3 227 227
c1 conv k=11 s=4 p=0 out_ch=96 in=data out=b1
"""

FULL = """\
# toy network exercising every layer type
input 3 32 32
c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1
r1 relu in=b1 out=b2
n1 lrn r=2 alpha=0.0001 beta=0.75 bias=1.0 in=b2 out=b3
p1 pool k=3 s=2 p=1 mode=max in=b3 out=b4
sc scale factor=0.5 in=b4 out=b5a
bi bias value=1.0 in=b4 out=b5b
cc concat in=b5a,b5b out=b6
c2 conv k=3 out_ch=4 in=b6 out=b7
f1 fc out=10 in=b7 out=b8
sm softmax in=b8 out=prob
"""

AVG_POOL = "p2 pool k=2 mode=avg in=b7 out=b9\n"

# A value for every model-text key: REQUIRED fills the required keys of a
# base line, and OTHER differs from both that value and the key's default.
REQUIRED = {"k": 3, "out_ch": 4, "r": 1, "out": 3, "factor": 2.0, "value": 1.0}
OTHER = {"k": 5, "s": 2, "p": 1, "out_ch": 5, "mode": "avg", "r": 2, "alpha": 0.25,
         "beta": 0.5, "bias": 2.0, "out": 6, "factor": 0.5, "value": -1.5}


class TestParseModel:
    def test_conv_dims_example(self):
        g = parse_model(BASIC)
        assert g.input_dims == (3, 227, 227)
        assert g.blob_dims["b1"] == (96, 55, 55)
        assert g.output_blob == "b1"

    def test_full_graph_dims(self):
        g = parse_model(FULL)
        assert g.blob_dims["b1"] == (8, 16, 16)
        assert g.blob_dims["b4"] == (8, 8, 8)
        assert g.blob_dims["b6"] == (16, 8, 8)
        assert g.blob_dims["b7"] == (4, 6, 6)
        assert g.blob_dims["b8"] == (10, 1, 1)
        assert g.blob_dims["prob"] == (10, 1, 1)
        assert [s.name for s in g.layers] == ["c1", "r1", "n1", "p1", "sc",
                                              "bi", "cc", "c2", "f1", "sm"]

    def test_comments_and_blank_lines(self):
        g = parse_model("# lead\n\ninput 1 8 8\n\n# mid\nr relu in=data out=o\n")
        assert g.output_blob == "o"

    def test_defaults(self):
        g = parse_model("input 1 8 8\nc conv k=3 out_ch=2 in=data out=o\n")
        spec = g.layer("c")
        assert (spec.geom.stride, spec.geom.pad) == (1, 0)
        g2 = parse_model("input 1 8 8\np pool k=2 in=data out=o\n")
        assert g2.layer("p").pool_mode == "max"

    def test_fc_out_key_and_out_blob_coexist(self):
        # fc's parameter key is also called out; the blob reference is
        # always the trailing token
        g = parse_model("input 1 4 4\nf1 fc out=7 in=data out=scores\n")
        assert g.layer("f1").out_features == 7
        assert g.output_blob == "scores"
        assert g.blob_dims["scores"] == (7, 1, 1)

    def test_no_layers(self):
        with pytest.raises(ModelParseError, match="no layers"):
            parse_model("input 3 8 8\n")

    def test_cycle_detected(self):
        text = ("input 1 8 8\n"
                "a relu in=b out=a_out\n"
                "b relu in=a_out out=b\n")
        with pytest.raises(ModelParseError, match="cycle detected"):
            parse_model(text)

    def test_undefined_blob(self):
        with pytest.raises(ModelParseError, match="undefined blob"):
            parse_model("input 1 8 8\na relu in=ghost out=o\n")

    def test_duplicate_blob_producer(self):
        text = ("input 1 8 8\n"
                "a relu in=data out=x\n"
                "b relu in=data out=x\n")
        with pytest.raises(ModelParseError, match="duplicate blob producer"):
            parse_model(text)

    def test_unknown_type(self):
        with pytest.raises(ModelParseError, match="unknown layer type"):
            parse_model("input 1 8 8\na deconv k=3 in=data out=o\n")

    def test_unknown_key(self):
        with pytest.raises(ModelParseError, match="unknown key"):
            parse_model("input 1 8 8\na relu k=3 in=data out=o\n")

    def test_missing_required_key(self):
        with pytest.raises(ModelParseError, match="requires"):
            parse_model("input 1 8 8\na conv out_ch=2 in=data out=o\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ModelParseError, match="line 3"):
            parse_model("input 1 8 8\na relu in=data out=x\nb bogus in=x out=y\n")

    def test_bad_header(self):
        with pytest.raises(ModelParseError):
            parse_model("input 3 227\nc relu in=data out=o\n")
        with pytest.raises(ModelParseError):
            parse_model("c1 relu in=data out=o\n")

    def test_kernel_exceeds_input(self):
        with pytest.raises(ModelParseError, match="dimension mismatch"):
            parse_model("input 1 4 4\nc conv k=7 out_ch=1 in=data out=o\n")

    def test_concat_spatial_mismatch(self):
        text = ("input 1 8 8\n"
                "p pool k=2 s=2 in=data out=small\n"
                "cc concat in=data,small out=o\n")
        with pytest.raises(ModelParseError, match="spatial"):
            parse_model(text)

    def test_missing_in_out_tail(self):
        with pytest.raises(ModelParseError, match="in="):
            parse_model("input 1 8 8\na relu out=o in=data\n")

    def test_round_trip(self):
        for g in (parse_model(FULL), parse_model(FULL + AVG_POOL)):
            text = serialize_model(g)
            g2 = parse_model(text)
            assert g2.input_dims == g.input_dims
            assert g2.blob_dims == g.blob_dims
            assert [s.name for s in g2.layers] == [s.name for s in g.layers]
            for a, b in zip(g.layers, g2.layers):
                assert (a.op, a.geom, a.in_blobs, a.out_blob) == \
                    (b.op, b.geom, b.in_blobs, b.out_blob)
                assert (a.out_channels, a.out_features, a.pool_mode) == \
                    (b.out_channels, b.out_features, b.pool_mode)
                assert (a.alpha, a.beta, a.norm_bias, a.factor, a.value) == \
                    (b.alpha, b.beta, b.norm_bias, b.factor, b.value)
        assert g.layer("p2").pool_mode == "avg"

    @pytest.mark.parametrize("op,key", [(op, key) for op in OPS for key in OPS[op].keys])
    def test_every_key_reaches_its_field_and_back(self, op, key):
        keys = OPS[op].keys
        base = {k: REQUIRED[k] for k, spec_key in keys.items() if spec_key.default is None}

        def parse(values):
            text = " ".join(f"{k}={v}" for k, v in values.items())
            return parse_model(f"input 2 12 12\nl {op} {text} in=data out=o\n")

        graph = parse({**base, key: OTHER[key]})
        a, b = parse(base).layer("l"), graph.layer("l")
        changed = {f.name for f in fields(b) if getattr(a, f.name) != getattr(b, f.name)}
        assert changed == {keys[key].field}
        assert getattr(b, keys[key].field) == OTHER[key]
        assert b.geom.layer_type is OPS[op].layer_type
        assert f"{key}={OTHER[key]}" in serialize_model(graph).split()

    @pytest.mark.parametrize("layer", ["n lrn r=1 bias=-5", "n lrn r=1 bias=0",
                                       "n lrn r=1 alpha=-1e-4", "n lrn r=1 beta=nan",
                                       "s scale factor=nan", "s scale factor=inf",
                                       "b bias value=-1e400"])
    def test_values_outside_the_domain_rejected(self, layer):
        with pytest.raises(ModelParseError, match="line 2: layer"):
            parse_model(f"input 1 4 4\n{layer} in=data out=o\n")

    def test_lrn_bias_power_below_the_normal_range_rejected(self):
        # 1e-200**2 underflows to 0, and a 0 input would store 0 / 0.
        with pytest.raises(ModelParseError, match="line 2: layer 'n': lrn bias\\*\\*beta"):
            parse_model("input 1 2 2\nn lrn r=1 bias=1e-200 beta=2 in=data out=o\n")
        parse_model("input 1 2 2\nn lrn r=1 bias=1e-100 beta=3 in=data out=o\n")
        parse_model("input 1 2 2\nn lrn r=1 bias=1e-200 beta=-2 in=data out=o\n")

    def test_key_defaults_equal_the_field_defaults(self):
        # A spec built directly takes LayerSpec's defaults, a parsed one OPS's.
        field_default = {f.name: f.default for f in fields(LayerSpec)}
        for op in OPS.values():
            for key in op.keys.values():
                if key.default is not None:
                    assert field_default[key.field] == key.default

    def test_serialized_text(self):
        # Every key of every op, defaults written out, in a fixed order.
        assert serialize_model(parse_model(FULL + AVG_POOL)) == (
            "input 3 32 32\n"
            "c1 conv k=5 s=2 p=2 out_ch=8 in=data out=b1\n"
            "r1 relu in=b1 out=b2\n"
            "n1 lrn r=2 alpha=0.0001 beta=0.75 bias=1.0 in=b2 out=b3\n"
            "p1 pool k=3 s=2 p=1 mode=max in=b3 out=b4\n"
            "sc scale factor=0.5 in=b4 out=b5a\n"
            "bi bias value=1.0 in=b4 out=b5b\n"
            "cc concat in=b5a,b5b out=b6\n"
            "c2 conv k=3 s=1 p=0 out_ch=4 in=b6 out=b7\n"
            "f1 fc out=10 in=b7 out=b8\n"
            "sm softmax in=b8 out=prob\n"
            "p2 pool k=2 s=1 p=0 mode=avg in=b7 out=b9\n")


class TestWeights:
    def test_minimal_conv_is_eight_bytes(self):
        g = parse_model("input 1 4 4\nc conv k=1 out_ch=1 in=data out=o\n")
        assert expected_weight_bytes(g) == 8

    def test_byte_budget(self):
        g = parse_model(FULL)
        c1 = (8 * 3 * 5 * 5 + 8) * 4
        c2 = (4 * 16 * 3 * 3 + 4) * 4
        f1 = (10 * 4 * 6 * 6 + 10) * 4
        assert expected_weight_bytes(g) == c1 + c2 + f1

    def test_truncated_blob_reports_counts(self):
        g = parse_model("input 1 4 4\nc conv k=1 out_ch=1 in=data out=o\n")
        with pytest.raises(ValueError, match="expected 8 bytes, got 4"):
            load_weights(b"\x00" * 4, g)

    def test_load_known_values(self):
        g = parse_model("input 1 4 4\nc conv k=1 out_ch=1 in=data out=o\n")
        blob = np.array([2.5, -1.0], dtype="<f4").tobytes()
        store = load_weights(blob, g)
        w, b = store["c"]
        assert w.shape == (1, 1, 1, 1) and b.shape == (1,)
        assert w[0, 0, 0, 0] == np.float32(2.5)
        assert b[0] == np.float32(-1.0)
        assert g.layer("c").weights is w

    def test_layers_consume_in_declaration_order(self):
        text = ("input 1 4 4\n"
                "c conv k=1 out_ch=1 in=data out=a\n"
                "f fc out=2 in=a out=b\n")
        g = parse_model(text)
        vals = np.arange(1, 1 + 2 + 32 + 2, dtype="<f4")
        store = load_weights(vals.tobytes(), g)
        assert store["c"][0].ravel()[0] == 1.0
        assert store["c"][1][0] == 2.0
        assert store["f"][0][0, 0] == 3.0
        assert np.array_equal(store["f"][1], [35.0, 36.0])

    def test_random_round_trip_bit_identical(self):
        g = parse_model(FULL)
        blob = random_weights(g, seed=42)
        assert len(blob) == expected_weight_bytes(g)
        load_weights(blob, g)
        assert serialize_weights(g) == blob

    def test_random_weights_seeded(self):
        g = parse_model(BASIC)
        assert random_weights(g, seed=1) == random_weights(g, seed=1)
        assert random_weights(g, seed=1) != random_weights(g, seed=2)

    def test_fc_bias_tail(self):
        g = parse_model("input 2 2 2\nf fc out=3 in=data out=o\n")
        assert expected_weight_bytes(g) == (3 * 8 + 3) * 4


class TestPnm:
    def test_p5_round_major(self):
        data = b"P5 2 2 255 " + bytes([0, 64, 128, 255])
        f = load_frame_pnm(data)
        assert f.data.shape == (1, 2, 2)
        assert f.data.tolist() == [[[0, 64], [128, 255]]]

    def test_p6_deinterleave(self):
        data = b"P6 2 1 255 " + bytes([10, 20, 30, 40, 50, 60])
        f = load_frame_pnm(data)
        assert f.data.shape == (3, 1, 2)
        assert f.data[0].tolist() == [[10, 40]]
        assert f.data[1].tolist() == [[20, 50]]
        assert f.data[2].tolist() == [[30, 60]]

    def test_comments_in_header(self):
        data = b"P5\n# width height\n2 1\n# maxval\n255\n" + bytes([7, 9])
        f = load_frame_pnm(data)
        assert f.data.tolist() == [[[7, 9]]]

    def test_unsupported_maxval(self):
        data = b"P6 1 1 65535 " + bytes([0] * 6)
        with pytest.raises(ValueError, match="maxval"):
            load_frame_pnm(data)

    def test_unsupported_magic(self):
        with pytest.raises(ValueError, match="P7"):
            load_frame_pnm(b"P7 1 1 255 \x00")

    def test_truncated_raster(self):
        with pytest.raises(ValueError, match="truncated"):
            load_frame_pnm(b"P5 2 2 255 " + bytes([1, 2, 3]))

    def test_p5_write_read_round_trip(self):
        arr = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
        data = write_frame_pnm(Frame(arr))
        back = load_frame_pnm(data)
        assert np.array_equal(back.data, arr)

    def test_p6_write_read_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
        data = write_frame_pnm(Frame(arr))
        assert data.startswith(b"P6")
        back = load_frame_pnm(data)
        assert np.array_equal(back.data, arr)

    def test_canonical_encode_stable(self):
        arr = np.zeros((1, 2, 2), dtype=np.uint8)
        assert write_frame_pnm(Frame(arr)) == write_frame_pnm(Frame(arr))

    def test_two_channel_frame_rejected(self):
        with pytest.raises(ValueError):
            write_frame_pnm(Frame(np.zeros((2, 2, 2), dtype=np.uint8)))
