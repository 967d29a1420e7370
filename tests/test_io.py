"""Round trips and corruption handling for every on-disk format."""

import struct

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse import io
from pdfuse.direction_discovery import DirectionVector, FitDiagnostics
from pdfuse.errors import FormatError
from pdfuse.latent_editing import ImageTensor, LatentVector
from pdfuse.manifest import (
    DatasetManifest,
    FaceImageRef,
    SubjectRecord,
    load_manifest,
    save_manifest,
)


def test_image_round_trip(tmp_path):
    pixels = np.random.default_rng(0).uniform(0.1, 0.9, size=(6, 5, 2))
    path = tmp_path / "face.img"
    io.save_image(path, ImageTensor(pixels), meta={"note": "round trip"})
    loaded = io.load_image(path)
    npt.assert_array_equal(loaded.pixels, pixels)


def test_image_missing_sidecar(tmp_path):
    path = tmp_path / "face.img"
    io.save_image(path, ImageTensor(np.full((2, 2, 1), 0.5)))
    path.with_name(path.name + ".json").unlink()
    with pytest.raises(FormatError, match="no sidecar header"):
        io.load_image(path)


def test_image_truncated_payload(tmp_path):
    path = tmp_path / "face.img"
    io.save_image(path, ImageTensor(np.full((4, 4, 1), 0.5)))
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(FormatError):
        io.load_image(path)


def _image_with_sidecar(tmp_path, sidecar: bytes):
    path = tmp_path / "face.img"
    io.save_image(path, ImageTensor(np.full((2, 3, 1), 0.5)))
    path.with_name(path.name + ".json").write_bytes(sidecar)
    return path


@pytest.mark.parametrize(
    "sidecar",
    [
        b"[1, 2, 3]",
        b'{"format_version": 1, "height": 2, "width": 3, "channels": 1, "note": "\xff\xfe"}',
        b'{"format_version": 1, "height": "2", "width": "3", "channels": "1"}',
        b'{"format_version": 1, "height": -2, "width": -3, "channels": 1}',
    ],
    ids=["json-not-object", "not-utf8", "string-dimensions", "negative-dimensions"],
)
def test_image_malformed_sidecar_raises_format_error(tmp_path, sidecar):
    with pytest.raises(FormatError):
        io.load_image(_image_with_sidecar(tmp_path, sidecar))


def test_latent_round_trip(tmp_path):
    values = np.random.default_rng(1).normal(size=24)
    path = tmp_path / "z.pdl"
    io.save_latent(path, LatentVector(values))
    npt.assert_array_equal(io.load_latent(path).values, values)


def test_latent_bad_magic(tmp_path):
    path = tmp_path / "z.pdl"
    io.save_latent(path, LatentVector(np.zeros(4)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad magic"):
        io.load_latent(path)


def test_direction_round_trip_with_diagnostics(tmp_path):
    values = np.random.default_rng(2).normal(size=8)
    values /= np.linalg.norm(values)
    direction = DirectionVector(
        values=values,
        source="neutral",
        target="happiness",
        diagnostics=FitDiagnostics(
            mode="standard",
            epochs_run=12,
            initial_loss=0.7,
            final_loss=0.01,
            converged=True,
            degenerate=False,
            separation=1.9,
        ),
    )
    path = tmp_path / "d.json"
    io.save_direction(path, direction)
    loaded = io.load_direction(path)
    npt.assert_array_equal(loaded.values, values)
    assert loaded.source == "neutral"
    assert loaded.target == "happiness"
    assert loaded.diagnostics.epochs_run == 12
    assert loaded.diagnostics.converged is True


def test_direction_rejects_non_json(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("not json {")
    with pytest.raises(FormatError, match="JSON"):
        io.load_direction(path)


def _direction_file(tmp_path, raw: bytes):
    path = tmp_path / "d.json"
    path.write_bytes(raw)
    return path


@pytest.mark.parametrize(
    "raw",
    [
        b'["kind", "direction"]',
        b'{"kind": "direction", "format_version": 1, "source": "\xff", "target": "b", "values": [1.0]}',
        b'{"kind": "direction", "format_version": 1, "source": "a", "target": "b", "values": ["x", "y"]}',
        b'{"kind": "direction", "format_version": 1, "source": "a", "target": "b", "values": [1.0], '
        b'"diagnostics": [1]}',
    ],
    ids=["json-not-object", "not-utf8", "non-numeric-values", "diagnostics-not-object"],
)
def test_direction_malformed_file_raises_format_error(tmp_path, raw):
    with pytest.raises(FormatError):
        io.load_direction(_direction_file(tmp_path, raw))


@pytest.mark.parametrize(
    "meta", [b"\xff\xfe\x00", b"[1, 2]", b"{not json"], ids=["not-utf8", "json-not-object", "not-json"]
)
def test_latent_malformed_metadata_raises_format_error(tmp_path, meta):
    path = tmp_path / "z.pdl"
    header = b"PDFL" + struct.pack("<III", io.LATENT_VERSION, 2, len(meta))
    path.write_bytes(header + meta + np.zeros(2, dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="metadata"):
        io.load_latent(path)


def test_checkpoint_round_trip(tmp_path):
    arrays = {
        "block0.weight": np.random.default_rng(3).normal(size=(4, 3)),
        "head.bias": np.arange(2, dtype=np.float64),
    }
    path = tmp_path / "model.ckpt"
    io.save_checkpoint(path, "gait_classifier", arrays, config={"embedding_dim": 2})
    kind, loaded, header = io.load_checkpoint(path)
    assert kind == "gait_classifier"
    assert header["config"] == {"embedding_dim": 2}
    assert set(loaded) == set(arrays)
    for name in arrays:
        npt.assert_array_equal(loaded[name], arrays[name])


def test_checkpoint_writes_are_byte_deterministic(tmp_path):
    arrays = {"w": np.ones((3, 3))}
    io.save_checkpoint(tmp_path / "a.ckpt", "fusion", arrays, config={"x": 1})
    io.save_checkpoint(tmp_path / "b.ckpt", "fusion", arrays, config={"x": 1})
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(FormatError, match="bad magic"):
        io.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.ckpt"
    io.save_checkpoint(path, "fusion", {"w": np.ones((8, 8))}, config={})
    path.write_bytes(path.read_bytes()[:-32])
    with pytest.raises(FormatError, match="truncated or corrupt"):
        io.load_checkpoint(path)

    io.save_checkpoint(path, "fusion", {"b": np.zeros(2), "w": np.ones((2, 3))}, config={"x": 1})
    whole = path.read_bytes()
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        with pytest.raises(FormatError, match="truncated"):
            io.load_checkpoint(path)
    path.write_bytes(whole + b"\0")
    with pytest.raises(FormatError, match="trailing"):
        io.load_checkpoint(path)


def test_config_hash_stable_and_order_free():
    assert io.config_hash({"a": 1, "b": [2, 3]}) == io.config_hash({"b": [2, 3], "a": 1})
    assert io.config_hash({"a": 1}) != io.config_hash({"a": 2})


def make_records(n, label="PD"):
    return [
        SubjectRecord(
            subject_id=f"s{i:03d}",
            label=label,
            gait_path=f"subjects/s{i:03d}/gait.kpts",
            faces=(FaceImageRef(path=f"subjects/s{i:03d}/face_neutral.img", expression="neutral"),),
        )
        for i in range(n)
    ]


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(records=make_records(3))
        path = tmp_path / "manifest.jsonl"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.subject_ids() == ["s000", "s001", "s002"]
        assert loaded.root == tmp_path.resolve()
        assert loaded.records[0].faces[0].expression == "neutral"

    def test_duplicate_subject_id_rejected(self):
        records = make_records(2)
        with pytest.raises(FormatError, match="duplicate"):
            DatasetManifest(records=records + [records[0]])

    def test_bad_label_rejected(self):
        with pytest.raises(FormatError, match="label"):
            SubjectRecord(subject_id="x", label="sick", gait_path="g", faces=())

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        save_manifest(DatasetManifest(records=make_records(3)), path)
        lines = path.read_text().splitlines()
        lines[2] = "{ broken json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3"):
            load_manifest(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        save_manifest(DatasetManifest(records=make_records(2)), path)
        lines = path.read_text().splitlines()
        lines[1] = '{"subject_id": "s000", "label": "PD"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 2"):
            load_manifest(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"subject_id": "s0"}\n')
        with pytest.raises(FormatError, match="lacks a manifest header"):
            load_manifest(path)
