"""Deterministic persistence: checkpoints, dataset loaders, synthetic data,
and the record codec behind the trace, report and table files.

Checkpoint container layout (version 1):

    magic  b"CPLI1"
    u32 LE header length, then that many bytes of JSON (spec, metadata,
    tensor manifest with shapes)
    per tensor: u32 LE crc32 of the payload, then the payload as raw
    little-endian float64 bytes in row-major order

Raw 64-bit blocks (rather than text) keep save/load round trips
bit-identical, which the pruning pipeline depends on.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import types
import typing
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn

MAGIC = b"CPLI1"
FORMAT_VERSION = 1
CIFAR_RECORD_BYTES = 3073
# Images per vectorised block in `synth_dataset`, bounding its temporaries.
_SYNTH_CHUNK = 1024


class FormatError(ValueError):
    """A file does not parse as the format it claims to be."""


class ChecksumError(FormatError):
    """Stored checksum does not match the tensor payload."""


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """A network spec, its per-layer weights, and save-time metadata."""

    spec: nn.NetworkSpec
    params: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.params) != len(self.spec.layers):
            raise ValueError(f"params length {len(self.params)} does not match "
                             f"{len(self.spec.layers)} layers")
        for i, (layer, p) in enumerate(zip(self.spec.layers, self.params)):
            want = _param_shapes(layer)
            if want is None:
                continue
            for name, arr, shape in zip(("weights", "bias"), (p.weights, p.bias), want):
                if arr.shape != shape:
                    raise ValueError(f"layer {i}: {name} {arr.shape} != {shape}")

    def copy(self) -> "Checkpoint":
        return Checkpoint(self.spec, nn.copy_params(self.params), dict(self.metadata))


def _param_shapes(layer: nn.LayerSpec):
    """(weights shape, bias shape) for a parameterised layer, else None."""
    if layer.kind == nn.CONV2D:
        kh, kw = layer.kernel
        return (layer.out_channels, layer.in_channels, kh, kw), (layer.out_channels,)
    if layer.kind == nn.LINEAR:
        return (layer.out_features, layer.in_features), (layer.out_features,)
    return None


def _layer_to_dict(layer: nn.LayerSpec) -> dict:
    d = {"kind": layer.kind}
    if layer.kind == nn.CONV2D:
        d.update(in_channels=layer.in_channels, out_channels=layer.out_channels,
                 kernel=list(layer.kernel), stride=layer.stride, padding=layer.padding)
    elif layer.kind == nn.MAXPOOL2D:
        d.update(window=list(layer.window), stride=layer.stride)
    elif layer.kind == nn.LINEAR:
        d.update(in_features=layer.in_features, out_features=layer.out_features)
    return d


def _int_fields(d: dict, *keys: str) -> list:
    """A layer record's integer fields; "kernel" and "window" are [h, w] pairs."""
    out = [d[key] for key in keys]
    for key, v in zip(keys, out):
        if key not in ("kernel", "window"):
            require_int(v, key)
        elif not (isinstance(v, list) and len(v) == 2
                  and all(isinstance(x, numbers.Integral) for x in v)):
            raise FormatError(f"{key} must be a pair of integers, got {v!r:.40}")
    return out


def _layer_from_dict(d: dict) -> nn.LayerSpec:
    kind = d["kind"]
    if kind == nn.CONV2D:
        return nn.conv2d(*_int_fields(d, "in_channels", "out_channels", "kernel",
                                      "stride", "padding"))
    if kind == nn.MAXPOOL2D:
        return nn.maxpool2d(*_int_fields(d, "window", "stride"))
    if kind == nn.LINEAR:
        return nn.linear(*_int_fields(d, "in_features", "out_features"))
    if kind == nn.RELU:
        return nn.relu()
    if kind == nn.FLATTEN:
        return nn.flatten()
    if kind == nn.SOFTMAX_CE_HEAD:
        return nn.softmax_ce_head()
    raise FormatError(f"unknown layer kind {kind!r}")


def spec_to_dict(spec: nn.NetworkSpec) -> dict:
    return {"layers": [_layer_to_dict(l) for l in spec.layers],
            "input_dims": list(spec.input_dims),
            "num_classes": spec.num_classes}


def spec_from_dict(d: dict) -> nn.NetworkSpec:
    """Inverse of `spec_to_dict`; a malformed record raises a one-line FormatError."""
    try:
        layers = list(d["layers"])
        input_dims, num_classes = tuple(d["input_dims"]), d["num_classes"]
    except (KeyError, TypeError):
        raise FormatError("spec is not a {layers, input_dims, num_classes} "
                          "record") from None
    parsed = []
    for i, entry in enumerate(layers):
        try:
            parsed.append(_layer_from_dict(entry))
        except KeyError as exc:
            raise FormatError(f"spec layer {i} has no {exc}") from None
        except (TypeError, ValueError) as exc:
            raise FormatError(f"spec layer {i}: {exc}") from None
    try:
        require_int(num_classes, "num_classes")
        for v in input_dims:
            require_int(v, "input_dims")
        return nn.NetworkSpec(tuple(parsed), input_dims, num_classes)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"spec: {exc}") from None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    tensors = []
    manifest = []
    for i, p in enumerate(ckpt.params):
        if p is None:
            continue
        for name, arr in (("weights", p.weights), ("bias", p.bias)):
            tensors.append(np.ascontiguousarray(arr, dtype="<f8"))
            manifest.append({"layer": i, "name": name, "shape": list(arr.shape)})
    header = json.dumps({"version": FORMAT_VERSION, "spec": spec_to_dict(ckpt.spec),
                         "metadata": ckpt.metadata, "tensors": manifest},
                        sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for arr in tensors:
            payload = arr.tobytes()
            fh.write((zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))
            fh.write(payload)


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0 (expected {MAGIC!r})")
    off = len(MAGIC)
    if len(data) < off + 4:
        raise FormatError(f"{path}: truncated header length at byte {len(data)}")
    hlen = int.from_bytes(data[off:off + 4], "little")
    off += 4
    if len(data) < off + hlen:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    try:
        header = json.loads(data[off:off + hlen])
    except ValueError as exc:
        raise FormatError(f"{path}: header is not JSON ({exc})") from None
    off += hlen
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is a JSON {type(header).__name__}, "
                          "not an object")
    if header.get("version") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {header.get('version')} "
                          f"(expected {FORMAT_VERSION})")
    for key, kind in (("spec", dict), ("tensors", list), ("metadata", dict)):
        if key not in header:
            raise FormatError(f"{path}: header has no {key!r}")
        if not isinstance(header[key], kind):
            raise FormatError(f"{path}: header {key!r} is not a JSON {kind.__name__}")
    try:
        spec = spec_from_dict(header["spec"])
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    staged: dict[tuple[int, str], np.ndarray] = {}
    for n, entry in enumerate(header["tensors"]):
        try:
            key = (entry["layer"], str(entry["name"]))
            shape = tuple(entry["shape"])
            require_int(key[0], "layer")
            for d in shape:
                require_int(d, "shape")
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"{path}: tensor entry {n} is not a "
                              "{layer, name, shape} record") from None
        if key in staged:
            raise FormatError(f"{path}: layer {key[0]} {key[1]} stored twice")
        if min(shape, default=0) < 0:
            raise FormatError(f"{path}: tensor entry {n} has shape {list(shape)}")
        nbytes = math.prod(shape) * 8
        if len(data) < off + 4 + nbytes:
            raise FormatError(f"{path}: truncated tensor data at byte {len(data)}")
        stored_crc = int.from_bytes(data[off:off + 4], "little")
        payload = data[off + 4:off + 4 + nbytes]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != stored_crc:
            raise ChecksumError(f"{path}: checksum mismatch for layer "
                                f"{key[0]} {key[1]}")
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: layer {key[0]} {key[1]} holds a non-finite "
                              "value")
        staged[key] = arr
        off += 4 + nbytes
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after the last "
                          f"tensor at byte {off}")
    params: list = [None] * len(spec.layers)
    for i, layer in enumerate(spec.layers):
        want = _param_shapes(layer)
        if want is None:
            continue
        parts = []
        for name, shape in zip(("weights", "bias"), want):
            arr = staged.pop((i, name), None)
            if arr is None:
                raise FormatError(f"{path}: layer {i} ({layer.kind}) has no {name} tensor")
            if arr.shape != shape:
                raise FormatError(f"{path}: layer {i}: {name} {arr.shape} != {shape}")
            parts.append(arr)
        params[i] = nn.LayerParams(*parts)
    if staged:
        i, name = next(iter(staged))
        raise FormatError(f"{path}: unexpected tensor {name!r} for layer {i}")
    return Checkpoint(spec, params, header["metadata"])


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class DatasetHandle:
    """Images scaled to [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = ""

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (n, c, h, w), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(f"{len(self.images)} images but {len(self.labels)} labels")
        if not np.isfinite(self.images).all():
            bad = np.isfinite(self.images).reshape(len(self.images), -1).all(axis=1)
            raise ValueError(f"image {int(np.argmin(bad))} has a non-finite pixel")
        if len(self.labels) and self.num_classes > 0:
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ValueError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)


def _read_idx_array(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError(f"{path}: truncated magic at byte {len(data)}")
    magic = int.from_bytes(data[:4], "big")
    if magic >> 16 != 0 or (magic >> 8) & 0xFF != 0x08:
        raise FormatError(f"{path}: bad magic 0x{magic:08x} at byte 0")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(data) < header:
        raise FormatError(f"{path}: truncated dimensions at byte {len(data)}")
    dims = [int.from_bytes(data[4 + 4 * i:8 + 4 * i], "big") for i in range(ndim)]
    total = int(np.prod(dims, dtype=np.int64)) if dims else 0
    if len(data) != header + total:
        raise FormatError(f"{path}: expected {header + total} bytes, got {len(data)} "
                          f"(payload starts at byte {header})")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(images_path, labels_path, split: str = "") -> DatasetHandle:
    """Parse an IDX image/label file pair into a dataset."""
    images = _read_idx_array(images_path)
    labels = _read_idx_array(labels_path)
    if images.ndim != 3:
        raise FormatError(f"{images_path}: expected 3-d image data, got {images.ndim}-d")
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected 1-d label data, got {labels.ndim}-d")
    if len(images) != len(labels):
        raise FormatError(f"{len(images)} images but {len(labels)} labels")
    n, h, w = images.shape
    pixels = images.reshape(n, 1, h, w).astype(np.float64) / 255.0
    classes = int(labels.max()) + 1 if n else 0
    return DatasetHandle(pixels, labels.astype(np.int64), classes, split)


def load_cifar_binary(path, split: str = "") -> DatasetHandle:
    """Parse a CIFAR-10 binary batch (3073-byte records, label byte first)."""
    data = Path(path).read_bytes()
    if len(data) % CIFAR_RECORD_BYTES != 0:
        raise FormatError(f"{path}: length {len(data)} is not a multiple of "
                          f"{CIFAR_RECORD_BYTES}")
    n = len(data) // CIFAR_RECORD_BYTES
    if n == 0:
        return DatasetHandle(np.zeros((0, 3, 32, 32)), np.zeros(0, dtype=np.int64),
                             10, split)
    records = np.frombuffer(data, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise FormatError(f"{path}: label byte {labels[bad]} > 9 in record {bad}")
    images = records[:, 1:].reshape(n, 3, 32, 32).astype(np.float64) / 255.0
    return DatasetHandle(images, labels, 10, split)


def synth_dataset(seed: int, count: int, classes: int, dims=(1, 16, 16),
                  noise: float = 0.25, amplitude: float = 0.9,
                  jitter: float = 1.5, split: str = "") -> DatasetHandle:
    """Gaussian-blob images, one blob position (and orientation) per class.

    Class k's blob sits at a fixed angle around the image centre and has a
    class-specific elongation and tilt, both jittered per image; pixel noise
    keeps the task from being solvable by a single pixel.  Fixed seed gives
    bit-identical tensors.
    """
    if classes < 1 or count < 0:
        raise ValueError("need classes >= 1 and count >= 0")
    c, h, w = dims
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(count, dtype=np.int64) % classes)
    images = rng.normal(0.3, noise, size=(count, c, h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    radius = min(h, w) / 3.3
    sigma = min(h, w) / 7.5
    angles = 2.0 * np.pi * np.arange(classes) / classes
    aspects = 0.5 + 1.2 * (np.arange(classes) % 3) / 2.0  # 0.5, 1.1, 1.7
    tilts = np.pi * np.arange(classes) / max(classes, 1)
    bound = np.array([jitter, jitter, 0.25])
    draws = rng.uniform(-bound, bound, size=(count, 3))
    for start in range(0, count, _SYNTH_CHUNK):
        ids = np.arange(start, min(start + _SYNTH_CHUNK, count))
        k = labels[ids]
        cy = (h / 2.0 + radius * np.sin(angles[k]) + draws[ids, 0])[:, None, None]
        cx = (w / 2.0 + radius * np.cos(angles[k]) + draws[ids, 1])[:, None, None]
        tilt = tilts[k] + draws[ids, 2]
        ct, st = np.cos(tilt)[:, None, None], np.sin(tilt)[:, None, None]
        u = (yy - cy) * ct + (xx - cx) * st
        v = -(yy - cy) * st + (xx - cx) * ct
        su = (sigma * aspects[k])[:, None, None]
        sv = (sigma / aspects[k])[:, None, None]
        images[ids, k % c] += amplitude * np.exp(-0.5 * ((u / su) ** 2 + (v / sv) ** 2))
    np.clip(images, 0.0, 1.0, out=images)
    return DatasetHandle(images, labels, classes, split)


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

def load_config(path) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped,
    and a key may appear once."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise FormatError(f"{path}:{lineno}: key {key!r} is given twice")
        out[key] = value
    return out


def require_int(value, what: str) -> None:
    """Reject a setting that is not an integer, in one line naming it."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value}")

# ---------------------------------------------------------------------------
# Records: trace, report and table formats, derived from their dataclasses
# ---------------------------------------------------------------------------
# Fields are written in order, under `metadata["name"]` or their own name.
# Metadata "written": False keeps a field in memory only, and "optional":
# True marks a trailing column that older files lack; both read back as
# their default.  An `init=False` field is derived, and checked on read.

@functools.lru_cache(maxsize=None)
def _record_fields(cls) -> tuple:
    """(field, written name, type) for each written field of `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple((f, f.metadata.get("name", f.name), hints[f.name])
                 for f in dataclasses.fields(cls) if f.metadata.get("written", True))


def _nullable(tp):
    """X for the type `X | None`, else None."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    return typing.get_args(tp)[0] if union else None


def to_json(record) -> dict:
    """A record as JSON: tuples as lists, dict keys as strings (which
    `write_json` sorts as strings), numbers as plain ints and floats."""
    return {name: _to_json(getattr(record, f.name), tp)
            for f, name, tp in _record_fields(type(record))}


def _to_json(value, tp):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if value is None or dataclasses.is_dataclass(tp):
        return None if value is None else to_json(value)
    if origin in (list, tuple):
        return [_to_json(v, args[0]) for v in value]
    if origin is dict:
        return {str(k): _to_json(v, args[1]) for k, v in value.items()}
    return (_nullable(tp) or tp)(value)  # also turns numpy scalars into Python ones


def from_json(tp, obj, where):
    """Inverse of `to_json` for type `tp`.  Malformed input raises a
    one-line FormatError that starts with `where` and names the key."""
    if obj is None and _nullable(tp):
        return None
    tp = _nullable(tp) or tp
    kind = dict if dataclasses.is_dataclass(tp) else typing.get_origin(tp) or tp
    args = typing.get_args(tp)
    if not isinstance(obj, {tuple: list, float: (int, float)}.get(kind, kind)) \
            or isinstance(obj, bool) != (tp is bool):
        raise FormatError(f"{where}: expected {kind.__name__}, got "
                          f"{type(obj).__name__} {obj!r:.40}")
    if kind in (list, tuple):
        return kind(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(obj))
    if kind is not dict:
        try:
            return tp(obj)
        except OverflowError:  # an integer too large for a float
            raise FormatError(f"{where}: {obj!r:.40} is out of range") from None
    if not dataclasses.is_dataclass(tp):
        return {from_json(args[0], _from_cell(k, args[0]), f"{where}: key"):
                from_json(args[1], v, f"{where}[{k}]") for k, v in obj.items()}
    fields = _record_fields(tp)
    missing = [n for f, n, _ in fields if n not in obj and not f.metadata.get("optional")]
    unknown = [k for k in obj if k not in [n for _, n, _ in fields]]
    if missing or unknown:
        raise FormatError(f"{where}: {'missing' if missing else 'unknown'} key "
                          f"{(missing or unknown)[0]!r}")
    values = {f.name: from_json(ftp, obj[n], f"{where}: {n}")
              for f, n, ftp in fields if n in obj}
    record = tp(**{f.name: values[f.name] for f, _, _ in fields
                   if f.init and f.name in values})
    for f, n, _ in fields:
        if not f.init and f.name in values and getattr(record, f.name) != values[f.name]:
            raise FormatError(f"{where}: {n} is {values[f.name]!r}, but the other "
                              f"fields give {getattr(record, f.name)!r}")
    return record


def load_json(path):
    """A file's parsed JSON; anything else raises a one-line FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # also bytes that are not text
        raise FormatError(f"{path}: not JSON ({exc})") from None


def write_json(path, record) -> None:
    Path(path).write_text(json.dumps(to_json(record), sort_keys=True, indent=2) + "\n")


def _to_cell(value) -> str:
    """A JSON value as a row cell: null and [] are `-`, arrays comma-joined,
    booleans `0`/`1`."""
    if isinstance(value, list):
        return ",".join(map(_to_cell, value)) or "-"
    if isinstance(value, bool):
        return str(int(value))
    return "-" if value is None else str(value)


def _from_cell(text: str, tp):
    """The JSON value a row cell holds.  A cell that does not parse stays a
    string, which `from_json` then rejects."""
    if text == "-" and _nullable(tp):
        return None
    tp = _nullable(tp) or tp
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return [] if text == "-" else [_from_cell(s, item) for s in text.split(",")]
    if tp is bool:
        return {"0": False, "1": True}.get(text, text)
    try:
        return tp(text)
    except ValueError:
        return text


def tsv_lines(cls, records) -> list[str]:
    """A header of column names, then one tab-separated row per record."""
    return (["\t".join(name for _, name, _ in _record_fields(cls))]
            + ["\t".join(map(_to_cell, to_json(r).values())) for r in records])


def write_tsv(path, cls, records) -> None:
    Path(path).write_text("\n".join(tsv_lines(cls, records)) + "\n")


def read_tsv(path, cls, kind: str) -> list:
    """Inverse of `write_tsv`; the header may lack trailing optional columns.
    Malformed input raises a one-line FormatError naming the file and line,
    and `kind` names the file type when the header is wrong."""
    lines = Path(path).read_text(errors="replace").splitlines()
    fields = _record_fields(cls)
    names = [n for _, n, _ in fields]
    optional = sum(bool(f.metadata.get("optional")) for f, _, _ in fields)
    header = lines[0].split("\t") if lines else []
    if len(header) < len(names) - optional or header != names[:len(header)]:
        raise FormatError(f"{path}: missing {kind} header")
    column_types = {n: tp for _, n, tp in fields}
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} columns, "
                              f"got {len(cells)}")
        row = {n: _from_cell(text, column_types[n]) for n, text in zip(header, cells)}
        out.append(from_json(cls, row, f"{path}:{lineno}"))
    return out
