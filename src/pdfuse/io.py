"""Artifact file formats: images, latents, directions, checkpoints.

Formats are deliberately plain so they can be read without this package:

* image: raw little-endian float64, C-order (H, W, C), next to a JSON
  sidecar ``<name>.json`` holding the shape and format version.
* latent: small binary record, magic ``PDFL``, format version, latent
  dimension, a JSON metadata blob, then the float64 values.
* direction: JSON with the unit vector, its expression-pair tags, and the
  fit diagnostics.
* checkpoint: magic ``PDCK`` container of named float64 arrays plus a JSON
  metadata blob (kind, config echo). Byte-for-byte deterministic for equal
  contents, unlike a zip, which matters for reproducibility checks.

Writers accept an optional ``meta`` mapping; the CLI uses it to stamp every
artifact with the producing config hash.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import struct
import types
import typing
from pathlib import Path

import numpy as np

from .direction_discovery import DirectionVector, FitDiagnostics
from .errors import FormatError, ShapeError
from .latent_editing import ImageTensor, LatentVector

IMAGE_VERSION = 1
LATENT_VERSION = 1
DIRECTION_VERSION = 1
CHECKPOINT_VERSION = 1

_LATENT_MAGIC = b"PDFL"
_CHECKPOINT_MAGIC = b"PDCK"


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _json_object(raw: bytes, what: str) -> dict:
    """``raw`` parsed as a UTF-8 JSON object; FormatError naming ``what`` otherwise."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise FormatError(f"{what} is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} is not a JSON object")
    return obj


def from_dict(cls, obj, what: str = ""):
    """Decode ``obj`` into dataclass ``cls``: the inverse of ``dataclasses.asdict``.

    ``obj`` must be a dict holding every field of ``cls`` and no other key.
    Each value must match its field's annotation: ``int`` (not a bool),
    ``float`` (an int is kept as given, so config hashes do not move),
    ``str``, ``bool``, ``tuple[T, ...]`` or ``tuple[A, B]`` (from a list or
    tuple), a nested dataclass (from a dict), or ``X | None``. A violation,
    or a ``ValueError`` from the constructor's own checks, raises
    ``FormatError`` naming the key path, such as ``branches[1].kernel_size``,
    after ``what`` when given.
    """
    try:
        return _decoder(cls)(obj, "")
    except FormatError as exc:
        if not what:
            raise
        raise FormatError(f"{what}: {exc}") from exc


def _fail(where: str, problem: str) -> FormatError:
    return FormatError(f"{where}: {problem}" if where else problem)


@functools.cache
def _decoder(tp):
    """``decode(value, where)`` for annotation ``tp``; built once per type, so
    annotations are resolved once, not once per record."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(tp)}

        def decode(value, where):
            if type(value) is not dict:
                raise _fail(where, f"expected object, got {type(value).__name__}")
            if value.keys() != fields.keys():
                unknown = [k for k in value if k not in fields]
                missing = [k for k in fields if k not in value]
                raise _fail(where, f"unknown key {unknown[0]!r}" if unknown else f"missing key {missing[0]!r}")
            prefix = f"{where}." if where else ""
            kwargs = {key: field(value[key], prefix + key) for key, field in fields.items()}
            try:
                return tp(**kwargs)
            except ValueError as exc:
                raise _fail(where, str(exc)) from exc

        return decode
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        items = [_decoder(t) for t in (args[:-1] if variadic else args)]

        def decode(value, where):
            if type(value) not in (list, tuple):
                raise _fail(where, f"expected list, got {type(value).__name__}")
            if not variadic and len(value) != len(items):
                raise _fail(where, f"expected {len(items)} items, got {len(value)}")
            decoders = items * len(value) if variadic else items
            return tuple(d(v, f"{where}[{i}]") for i, (d, v) in enumerate(zip(decoders, value)))

        return decode
    if origin is types.UnionType:  # only ever ``X | None``
        inner = _decoder(args[0])
        return lambda value, where: None if value is None else inner(value, where)
    accepted = (int, float) if tp is float else (tp,)  # a bool is not an int here

    def decode(value, where):
        if type(value) not in accepted:
            raise _fail(where, f"expected {tp.__name__}, got {type(value).__name__}")
        return value

    return decode


def save_image(path: str | Path, image: ImageTensor, meta: dict | None = None) -> None:
    path = Path(path)
    H, W, C = image.shape
    header = {
        "format_version": IMAGE_VERSION,
        "height": H,
        "width": W,
        "channels": C,
        "dtype": "float64",
        "byte_order": "little",
    }
    if meta:
        header.update(meta)
    arr = np.ascontiguousarray(image.pixels, dtype="<f8")
    path.write_bytes(arr.tobytes())
    _sidecar(path).write_text(json.dumps(header, sort_keys=True) + "\n")


def load_image(path: str | Path) -> ImageTensor:
    path = Path(path)
    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise FormatError(f"image {path} has no sidecar header {sidecar.name}")
    header = _json_object(sidecar.read_bytes(), f"image sidecar {sidecar}")
    if header.get("format_version") != IMAGE_VERSION:
        raise FormatError(
            f"image {path}: format_version {header.get('format_version')!r} unsupported"
        )
    try:
        shape = (header["height"], header["width"], header["channels"])
    except KeyError as exc:
        raise FormatError(f"image sidecar {sidecar} missing field {exc}") from exc
    if not all(type(dim) is int and dim >= 1 for dim in shape):
        raise FormatError(f"image sidecar {sidecar}: dimensions {shape} must be integers >= 1")
    raw = path.read_bytes()
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise FormatError(
            f"image {path}: payload is {len(raw)} bytes, header implies {expected}"
        )
    pixels = np.frombuffer(raw, dtype="<f8").reshape(shape)
    try:
        return ImageTensor(pixels)
    except ShapeError as exc:
        raise FormatError(f"image {path}: {exc}") from exc


def save_latent(path: str | Path, latent: LatentVector, meta: dict | None = None) -> None:
    path = Path(path)
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode()
    with path.open("wb") as fh:
        fh.write(_LATENT_MAGIC)
        fh.write(struct.pack("<II", LATENT_VERSION, latent.dim))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(np.ascontiguousarray(latent.values, dtype="<f8").tobytes())


def load_latent(path: str | Path) -> LatentVector:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != _LATENT_MAGIC:
        raise FormatError(f"latent {path}: bad magic or truncated header")
    version, dim = struct.unpack("<II", raw[4:12])
    if version != LATENT_VERSION:
        raise FormatError(f"latent {path}: format_version {version} unsupported")
    (meta_len,) = struct.unpack("<I", raw[12:16])
    offset = 16 + meta_len
    payload = raw[offset:]
    if len(payload) != dim * 8:
        raise FormatError(f"latent {path}: payload is {len(payload)} bytes, header implies {dim * 8}")
    _json_object(raw[16:offset], f"latent {path} metadata")
    values = np.frombuffer(payload, dtype="<f8")
    try:
        return LatentVector(values)
    except ShapeError as exc:
        raise FormatError(f"latent {path}: {exc}") from exc


def save_direction(path: str | Path, direction: DirectionVector, meta: dict | None = None) -> None:
    path = Path(path)
    obj = {
        "format_version": DIRECTION_VERSION,
        "kind": "direction",
        "source": direction.source,
        "target": direction.target,
        "values": [float(v) for v in direction.values],
    }
    if direction.diagnostics is not None:
        obj["diagnostics"] = dataclasses.asdict(direction.diagnostics)
    if meta:
        obj.update(meta)
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def load_direction(path: str | Path) -> DirectionVector:
    path = Path(path)
    obj = _json_object(path.read_bytes(), f"direction {path}")
    if obj.get("kind") != "direction" or obj.get("format_version") != DIRECTION_VERSION:
        raise FormatError(f"direction {path}: missing or unsupported header fields")
    diag = None
    try:
        if "diagnostics" in obj:
            diag = from_dict(FitDiagnostics, obj["diagnostics"], "diagnostics")
        values = np.asarray(obj["values"], dtype=np.float64)
        return DirectionVector(values=values, source=obj["source"], target=obj["target"], diagnostics=diag)
    except KeyError as exc:
        raise FormatError(f"direction {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"direction {path}: {exc}") from exc


def save_checkpoint(
    path: str | Path, kind: str, arrays: dict[str, np.ndarray], config: dict, meta: dict | None = None
) -> None:
    """Write named arrays plus a config echo as one deterministic binary file."""
    path = Path(path)
    header = {"format_version": CHECKPOINT_VERSION, "kind": kind, "config": config}
    if meta:
        header.update(meta)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with path.open("wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            name_bytes = name.encode()
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (kind, arrays, header).

    Raises ``FormatError`` on a cut anywhere in the file, on a corrupt header
    or array record, and on bytes after the last array.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != _CHECKPOINT_MAGIC:
        raise FormatError(f"checkpoint {path}: bad magic or truncated header")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint {path}: format_version {version} unsupported")
    pos = 12

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(
                f"checkpoint {path}: truncated or corrupt payload: a field needs bytes "
                f"{pos}-{pos + n}, the file has {len(raw)}"
            )
        pos += n
        return raw[pos - n : pos]

    header = _json_object(take(header_len), f"checkpoint {path} header")
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint {path}: array name is not UTF-8: {exc}") from exc
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
        if any(dim < 0 for dim in shape):
            raise FormatError(f"checkpoint {path}: array {name!r} has negative shape {shape}")
        data = take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if pos != len(raw):
        raise FormatError(f"checkpoint {path}: {len(raw) - pos} trailing bytes after the last array")
    return header.get("kind", ""), arrays, header


def config_hash(config: dict) -> str:
    """Stable hash of a config mapping (canonical JSON, SHA-256)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
