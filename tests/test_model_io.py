import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prunekit import model_io, nn

from _oracles import save_config, synth_dataset_loop


def small_ckpt(seed=0):
    spec = nn.NetworkSpec(
        (nn.conv2d(1, 2, kernel=3, padding=1), nn.relu(), nn.flatten(),
         nn.linear(2 * 4 * 4, 3), nn.softmax_ce_head()),
        (1, 4, 4), 3)
    return model_io.Checkpoint(spec, nn.init_params(spec, seed),
                               {"seed": seed, "epochs": 0, "dataset": "synth",
                                "accuracy": 0.5})


def idx_images_bytes(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    head = b"\x00\x00\x08\x03" + n.to_bytes(4, "big") + h.to_bytes(4, "big") \
        + w.to_bytes(4, "big")
    return head + images.astype(np.uint8).tobytes()


def idx_labels_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return b"\x00\x00\x08\x01" + len(labels).to_bytes(4, "big") + labels.tobytes()


class TestCheckpointRoundTrip:
    def test_bit_identical(self, tmp_path):
        ckpt = small_ckpt(3)
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, ckpt)
        back = model_io.load_checkpoint(path)
        assert back.metadata == ckpt.metadata
        assert back.spec == ckpt.spec
        for p, q in zip(ckpt.params, back.params):
            if p is None:
                assert q is None
                continue
            assert p.weights.tobytes() == q.weights.tobytes()
            assert p.bias.tobytes() == q.bias.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        ckpt = small_ckpt(1)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model_io.save_checkpoint(a, ckpt)
        model_io.save_checkpoint(b, ckpt)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_tensor_byte(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(model_io.ChecksumError, match="checksum mismatch"):
            model_io.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(model_io.FormatError, match="bad magic at byte 0"):
            model_io.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import json
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        header = json.loads(blob[9:9 + hlen])
        header["version"] = 99
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        path.write_bytes(blob[:5] + len(new_header).to_bytes(4, "little")
                         + new_header + blob[9 + hlen:])
        with pytest.raises(model_io.FormatError, match="unsupported version 99"):
            model_io.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(model_io.FormatError, match="truncated tensor data"):
            model_io.load_checkpoint(path)

    def test_tensor_size_audited_against_spec(self, tmp_path):
        # Shapes in the container are cross-checked with the layer spec.
        ckpt = small_ckpt()
        ckpt.params[0].weights = np.zeros((2, 1, 3, 3))
        bad = model_io.Checkpoint.__new__(model_io.Checkpoint)
        bad.spec, bad.params, bad.metadata = ckpt.spec, ckpt.params, ckpt.metadata
        bad.params[0] = nn.LayerParams(np.zeros((5, 1, 3, 3)), np.zeros(5))
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, bad)
        with pytest.raises(ValueError, match="layer 0: weights"):
            model_io.load_checkpoint(path)


def write_container(path, ckpt, tensors):
    """A checkpoint file holding exactly `tensors`: (layer, name, array) triples."""
    manifest = [{"layer": i, "name": name, "shape": list(arr.shape)}
                for i, name, arr in tensors]
    header = json.dumps({"version": model_io.FORMAT_VERSION,
                         "spec": model_io.spec_to_dict(ckpt.spec),
                         "metadata": ckpt.metadata, "tensors": manifest},
                        sort_keys=True, separators=(",", ":")).encode()
    blob = model_io.MAGIC + len(header).to_bytes(4, "little") + header
    for _, _, arr in tensors:
        payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blob += (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little") + payload
    path.write_bytes(blob)


def all_tensors(ckpt):
    return [(i, name, getattr(p, name)) for i, p in enumerate(ckpt.params)
            if p is not None for name in ("weights", "bias")]


class TestCheckpointFailsLoud:
    def test_container_writer_matches_save(self, tmp_path):
        ckpt = small_ckpt()
        model_io.save_checkpoint(tmp_path / "a.ckpt", ckpt)
        write_container(tmp_path / "b.ckpt", ckpt, all_tensors(ckpt))
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(model_io.FormatError, match="3 trailing bytes") as err:
            model_io.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def test_missing_bias(self, tmp_path):
        ckpt = small_ckpt()
        path = tmp_path / "m.ckpt"
        write_container(path, ckpt,
                        [t for t in all_tensors(ckpt) if t[:2] != (0, "bias")])
        with pytest.raises(model_io.FormatError,
                           match=r"layer 0 \(conv2d\) has no bias tensor"):
            model_io.load_checkpoint(path)

    def test_bias_shape_checked_against_spec(self, tmp_path):
        ckpt = small_ckpt()
        tensors = [(i, name, np.zeros(1) if (i, name) == (0, "bias") else arr)
                   for i, name, arr in all_tensors(ckpt)]
        path = tmp_path / "m.ckpt"
        write_container(path, ckpt, tensors)
        with pytest.raises(model_io.FormatError,
                           match=r"layer 0: bias \(1,\) != \(2,\)"):
            model_io.load_checkpoint(path)

    def test_duplicate_and_stray_tensors(self, tmp_path):
        ckpt = small_ckpt()
        path = tmp_path / "m.ckpt"
        write_container(path, ckpt, all_tensors(ckpt) + [all_tensors(ckpt)[0]])
        with pytest.raises(model_io.FormatError, match="stored twice"):
            model_io.load_checkpoint(path)
        write_container(path, ckpt, all_tensors(ckpt) + [(1, "weights", np.zeros(2))])
        with pytest.raises(model_io.FormatError, match="unexpected tensor 'weights' "
                                                       "for layer 1"):
            model_io.load_checkpoint(path)

    def write_header(self, path, header: bytes):
        path.write_bytes(model_io.MAGIC + len(header).to_bytes(4, "little") + header)

    def saved_header(self, tmp_path):
        model_io.save_checkpoint(tmp_path / "good.ckpt", small_ckpt())
        blob = (tmp_path / "good.ckpt").read_bytes()
        hlen = int.from_bytes(blob[5:9], "little")
        return json.loads(blob[9:9 + hlen])

    def load_fails(self, path, pattern):
        with pytest.raises(model_io.FormatError, match=pattern) as err:
            model_io.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self.write_header(path, b"{not json")
        self.load_fails(path, "header is not JSON")
        self.write_header(path, b"\xff\xfe\x00")
        self.load_fails(path, "header is not JSON")

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "m.ckpt"
        self.write_header(path, b"[1, 2, 3]")
        self.load_fails(path, "header is a JSON list, not an object")

    @pytest.mark.parametrize("key", ["spec", "tensors", "metadata"])
    def test_header_missing_key(self, tmp_path, key):
        header = self.saved_header(tmp_path)
        del header[key]
        path = tmp_path / "m.ckpt"
        self.write_header(path, json.dumps(header).encode())
        self.load_fails(path, f"header has no '{key}'")

    @pytest.mark.parametrize("layer,pattern", [
        ({"kind": "conv2d", "in_channels": 1}, "spec layer 0 has no 'out_channels'"),
        ({"in_channels": 1}, "spec layer 0 has no 'kind'"),
        ("conv2d", "spec layer 0: "),
        ({"kind": "conv2d", "in_channels": 1, "out_channels": 0, "kernel": [3, 3],
          "stride": 1, "padding": 1}, "spec layer 0: conv2d: channel counts"),
        ({"kind": "pool"}, "spec layer 0: unknown layer kind 'pool'"),
    ])
    def test_malformed_spec_layer(self, tmp_path, layer, pattern):
        header = self.saved_header(tmp_path)
        header["spec"]["layers"][0] = layer
        path = tmp_path / "m.ckpt"
        self.write_header(path, json.dumps(header).encode())
        self.load_fails(path, pattern)

    @pytest.mark.parametrize("edit,want", [
        (lambda h: h.update(tensors=5), "header 'tensors' is not a JSON list"),
        (lambda h: h.update(metadata=5), "header 'metadata' is not a JSON dict"),
        (lambda h: h["spec"]["layers"][0].update(kernel=[3]),
         "spec layer 0: kernel must be a pair of integers, got [3]"),
        (lambda h: h["spec"]["layers"][0].update(stride=1.0),
         "spec layer 0: stride must be an integer, got 1.0"),
        (lambda h: h["spec"].update(num_classes="3"),
         "spec: num_classes must be an integer, got 3"),
        (lambda h: h["spec"].update(input_dims=[1, 4.0, 4]),
         "spec: input_dims must be an integer, got 4.0"),
        (lambda h: h["tensors"][0].update(shape=[-2, -1, 3, 3]),
         "tensor entry 0 has shape [-2, -1, 3, 3]"),
        (lambda h: h["tensors"][0].update(shape=[float("inf")]),
         "tensor entry 0 is not a {layer, name, shape} record"),
        (lambda h: h["spec"]["layers"].__setitem__(
            1, {"kind": "maxpool2d", "window": [2, 2], "stride": 0}),
         "spec layer 1: maxpool2d: stride must be >= 1"),
        (lambda h: h["spec"]["layers"].__setitem__(
            1, {"kind": "maxpool2d", "window": [2, 2], "stride": -1}),
         "spec layer 1: maxpool2d: stride must be >= 1"),
        (lambda h: h["tensors"][0].update(layer=0.7),
         "tensor entry 0 is not a {layer, name, shape} record"),
        (lambda h: h["tensors"][0].update(layer="0"),
         "tensor entry 0 is not a {layer, name, shape} record"),
        (lambda h: h["tensors"][0].update(shape=[2, 1, 3, 3.0]),
         "tensor entry 0 is not a {layer, name, shape} record"),
    ], ids=["tensors", "metadata", "kernel", "stride", "num_classes", "input_dims",
            "negative_shape", "infinite_shape", "pool_stride_zero",
            "pool_stride_negative", "fractional_layer", "string_layer",
            "fractional_shape"])
    def test_malformed_header_value(self, tmp_path, edit, want):
        header = self.saved_header(tmp_path)
        edit(header)
        path = tmp_path / "m.ckpt"
        self.write_header(path, json.dumps(header).encode())
        with pytest.raises(model_io.FormatError) as err:
            model_io.load_checkpoint(path)
        assert str(err.value) == f"{path}: {want}"

    def test_malformed_tensor_entry(self, tmp_path):
        header = self.saved_header(tmp_path)
        del header["tensors"][0]["shape"]
        path = tmp_path / "m.ckpt"
        self.write_header(path, json.dumps(header).encode())
        self.load_fails(path, "tensor entry 0 is not a")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, tmp_path, value):
        ckpt = small_ckpt()
        tensors = all_tensors(ckpt)
        weights = tensors[2][2].copy()
        weights[1, 4] = value
        tensors[2] = (3, "weights", weights)
        path = tmp_path / "m.ckpt"
        write_container(path, ckpt, tensors)
        self.load_fails(path, "layer 3 weights holds a non-finite value")

    def test_in_memory_bias_shape_rejected(self):
        ckpt = small_ckpt()
        params = nn.copy_params(ckpt.params)
        params[3] = nn.LayerParams(params[3].weights, np.zeros(2))
        with pytest.raises(ValueError, match=r"layer 3: bias \(2,\) != \(3,\)"):
            model_io.Checkpoint(ckpt.spec, params)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


class TestCheckpointFuzz:
    """A damaged checkpoint either loads and re-saves bit-exactly, or fails
    with one FormatError line that names the file."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        model_io.save_checkpoint(path, small_ckpt())
        return path, path.read_bytes()

    def load_or_fail_loud(self, path, blob):
        path.write_bytes(blob)
        try:
            ckpt = model_io.load_checkpoint(path)
        except model_io.FormatError as exc:
            assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
            return
        model_io.save_checkpoint(path, ckpt)
        again = model_io.load_checkpoint(path)
        assert again.spec == ckpt.spec
        assert (json.dumps(again.metadata, sort_keys=True)
                == json.dumps(ckpt.metadata, sort_keys=True))
        for p, q in zip(ckpt.params, again.params):
            assert (p is None) == (q is None)
            if p is not None:
                assert p.weights.tobytes() == q.weights.tobytes()
                assert p.bias.tobytes() == q.bias.tobytes()

    @given(st.data())
    def test_truncated(self, saved, data):
        path, blob = saved
        self.load_or_fail_loud(path, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @given(st.data())
    def test_flipped_bytes(self, saved, data):
        path, blob = saved
        damaged = bytearray(blob)
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                     st.integers(1, 255)),
                                           min_size=1, max_size=4)):
            damaged[at] ^= mask
        self.load_or_fail_loud(path, bytes(damaged))

    @given(st.data())
    @settings(max_examples=300)
    def test_substituted_json_value(self, saved, data):
        # Walk down from a top-level key, stopping at each level with
        # probability 1/2, so shallow keys are hit about as often as deep ones.
        path, blob = saved
        hlen = int.from_bytes(blob[5:9], "little")
        header = json.loads(blob[9:9 + hlen])
        node, key = header, data.draw(st.sampled_from(sorted(header)))
        while (isinstance(node[key], (dict, list)) and node[key]
               and data.draw(st.booleans())):
            node = node[key]
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
        node[key] = data.draw(JSON_VALUES)
        text = json.dumps(header).encode()
        self.load_or_fail_loud(path, blob[:5] + len(text).to_bytes(4, "little")
                               + text + blob[9 + hlen:])


class TestIdxLoader:
    def test_hand_crafted_two_image_file(self, tmp_path):
        pixels = np.array([[[0, 51], [102, 255]], [[10, 20], [30, 40]]],
                          dtype=np.uint8)
        (tmp_path / "img").write_bytes(idx_images_bytes(pixels))
        (tmp_path / "lab").write_bytes(idx_labels_bytes([1, 0]))
        ds = model_io.load_idx(tmp_path / "img", tmp_path / "lab")
        assert ds.images.shape == (2, 1, 2, 2)
        np.testing.assert_array_equal(ds.images[0, 0],
                                      np.array([[0, 51], [102, 255]]) / 255.0)
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.num_classes == 2

    def test_zero_image_file(self, tmp_path):
        (tmp_path / "img").write_bytes(
            idx_images_bytes(np.zeros((0, 2, 2), dtype=np.uint8)))
        (tmp_path / "lab").write_bytes(idx_labels_bytes([]))
        ds = model_io.load_idx(tmp_path / "img", tmp_path / "lab")
        assert len(ds) == 0

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "img").write_bytes(
            idx_images_bytes(np.zeros((2, 2, 2), dtype=np.uint8)))
        (tmp_path / "lab").write_bytes(idx_labels_bytes([1, 0, 3]))
        with pytest.raises(model_io.FormatError, match="2 images but 3 labels"):
            model_io.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_bad_magic_reports_offset(self, tmp_path):
        (tmp_path / "img").write_bytes(b"\x00\x01\x08\x03" + b"\x00" * 12)
        (tmp_path / "lab").write_bytes(idx_labels_bytes([]))
        with pytest.raises(model_io.FormatError, match="bad magic 0x00010803 at byte 0"):
            model_io.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_truncated_payload(self, tmp_path):
        blob = idx_images_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
        (tmp_path / "img").write_bytes(blob[:-3])
        (tmp_path / "lab").write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(model_io.FormatError, match="expected 24 bytes, got 21"):
            model_io.load_idx(tmp_path / "img", tmp_path / "lab")


@st.composite
def idx_file(draw, dims):
    """IDX bytes of unsigned bytes in `dims` (no dims, no payload), and half
    the time a few flipped bytes, a cut or a short tail."""
    size = math.prod(dims) if dims else 0
    blob = bytearray(b"\x00\x00\x08" + bytes([len(dims)])
                     + b"".join(d.to_bytes(4, "big") for d in dims)
                     + draw(st.binary(min_size=size, max_size=size)))
    if not draw(st.booleans()):
        return bytes(blob)
    for at, mask in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                            st.integers(1, 255)), max_size=2)):
        blob[at] ^= mask
    cut = draw(st.integers(0, len(blob)))
    return bytes(blob[:cut]) + draw(st.binary(max_size=3))


@st.composite
def idx_pairs(draw):
    """An image and a label file: half the time each has the dims a
    dataset needs, (n, h, w) and (n,), else up to four small ones."""
    n, h, w = (draw(st.integers(0, 4)) for _ in range(3))
    any_dims = st.lists(st.integers(0, 4), max_size=4)
    images = draw(st.one_of(st.just([n, h, w]), any_dims))
    labels = draw(st.one_of(st.just([n]), any_dims))
    return draw(idx_file(images)), draw(idx_file(labels))


def decode_idx(blob):
    """The unsigned-byte array an IDX file holds, or None if it holds none."""
    if len(blob) < 4 or blob[:3] != b"\x00\x00\x08" or blob[3] == 0:
        return None
    ndim = blob[3]
    if len(blob) < 4 + 4 * ndim:
        return None
    dims = [int.from_bytes(blob[4 + 4 * i:8 + 4 * i], "big") for i in range(ndim)]
    if len(blob) != 4 + 4 * ndim + math.prod(dims):
        return None
    return np.frombuffer(blob[4 + 4 * ndim:], dtype=np.uint8).reshape(dims)


class TestIdxFuzz:
    """An IDX image/label pair either loads bit-exactly or fails with one
    FormatError line."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        at = tmp_path_factory.mktemp("idx")
        return at / "img", at / "lab"

    @given(st.data())
    @settings(max_examples=300)
    def test_damaged_files(self, paths, data):
        images, labels = data.draw(idx_pairs())
        paths[0].write_bytes(images)
        paths[1].write_bytes(labels)
        pixels, classes = decode_idx(images), decode_idx(labels)
        try:
            ds = model_io.load_idx(*paths)
        except model_io.FormatError as exc:
            assert "\n" not in str(exc)
            assert (pixels is None or classes is None or pixels.ndim != 3
                    or classes.ndim != 1 or len(pixels) != len(classes)), str(exc)
            return
        n, h, w = pixels.shape
        want = pixels.reshape(n, 1, h, w).astype(np.float64) / 255.0
        assert ds.images.shape == want.shape and ds.images.tobytes() == want.tobytes()
        assert ds.labels.dtype == np.int64
        assert ds.labels.tobytes() == classes.astype(np.int64).tobytes()
        assert ds.num_classes == (int(classes.max()) + 1 if n else 0)

    def test_zero_dimensions(self, paths):
        paths[0].write_bytes(b"\x00\x00\x08\x00")
        paths[1].write_bytes(idx_labels_bytes([]))
        with pytest.raises(model_io.FormatError) as err:
            model_io.load_idx(*paths)
        assert str(err.value) == f"{paths[0]}: zero dimensions at byte 3"


class TestCifarLoader:
    def test_one_record_fixture(self, tmp_path):
        pixels = np.arange(3072, dtype=np.uint8)
        record = bytes([7]) + pixels.tobytes()
        path = tmp_path / "batch.bin"
        path.write_bytes(record)
        ds = model_io.load_cifar_binary(path)
        assert len(ds) == 1
        assert ds.labels[0] == 7
        np.testing.assert_array_equal(ds.images[0],
                                      pixels.reshape(3, 32, 32) / 255.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"")
        ds = model_io.load_cifar_binary(path)
        assert len(ds) == 0
        assert ds.num_classes == 10

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([11]) + b"\x00" * 3072)
        with pytest.raises(model_io.FormatError, match="label byte 11 > 9"):
            model_io.load_cifar_binary(path)

    def test_bad_length(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"\x00" * 3000)
        with pytest.raises(model_io.FormatError, match="not a multiple of 3073"):
            model_io.load_cifar_binary(path)


class TestSynthDataset:
    def test_fixed_seed_bit_identical(self):
        a = model_io.synth_dataset(5, 20, 4)
        b = model_io.synth_dataset(5, 20, 4)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    @pytest.mark.parametrize("seed", [11, 2968811710, 0])
    @pytest.mark.parametrize("count,classes,dims", [
        (800, 10, (1, 12, 12)), (60, 10, (1, 28, 28)), (37, 4, (3, 9, 11)),
        (25, 1, (2, 8, 8)), (1100, 7, (1, 6, 6))])
    def test_matches_per_image_loop_bitwise(self, seed, count, classes, dims):
        kw = dict(noise=0.25, amplitude=0.8, jitter=1.2)
        ds = model_io.synth_dataset(seed, count, classes, dims=dims, **kw)
        images, labels = synth_dataset_loop(seed, count, classes, dims=dims, **kw)
        assert ds.images.tobytes() == images.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    def test_count_zero(self):
        ds = model_io.synth_dataset(0, 0, 3)
        assert len(ds) == 0

    def test_values_in_unit_interval_and_balanced(self):
        ds = model_io.synth_dataset(1, 40, 4)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.tolist() == [10, 10, 10, 10]


class TestDatasetHandle:
    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 images but 3 labels"):
            model_io.DatasetHandle(np.zeros((2, 1, 2, 2)), np.zeros(3, dtype=int), 2)

    def test_label_range_checked(self):
        with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
            model_io.DatasetHandle(np.zeros((2, 1, 2, 2)), np.array([0, 5]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_named(self, bad):
        images = np.zeros((4, 1, 2, 2))
        images[2, 0, 1, 0] = bad
        images[3, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="^image 2 has a non-finite pixel$"):
            model_io.DatasetHandle(images, np.zeros(4, dtype=int), 2)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        save_config(path, {"epochs": 20, "lr": 0.1, "variant": "cpli"})
        cfg = model_io.load_config(path)
        assert cfg == {"epochs": "20", "lr": "0.1", "variant": "cpli"}

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed = 3  # trailing\n")
        assert model_io.load_config(path) == {"seed": "3"}

    def test_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.1\nseed = 3\nlr = 0.2\n")
        with pytest.raises(model_io.FormatError) as err:
            model_io.load_config(path)
        assert str(err.value) == f"{path}:3: key 'lr' is given twice"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed\n")
        with pytest.raises(model_io.FormatError, match="run.cfg:1"):
            model_io.load_config(path)
