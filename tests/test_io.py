"""Round trips and corruption handling for every on-disk format."""

import dataclasses
import json
import struct
import types
import typing

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfuse import io
from pdfuse.cli import DirectionSettings, EvaluationSettings
from pdfuse.direction_discovery import MODES, DirectionVector, FitDiagnostics
from pdfuse.errors import FormatError
from pdfuse.face_features import FaceBackboneConfig, FaceTrainOptions
from pdfuse.fusion import FusionTrainConfig
from pdfuse.gait_features import PARTITION_STRATEGIES, GaitModelConfig, TrainOptions
from pdfuse.latent_editing import ImageTensor, InversionConfig, LatentVector
from pdfuse.manifest import (
    LABELS,
    DatasetManifest,
    FaceImageRef,
    SubjectRecord,
    load_manifest,
    save_manifest,
)
from pdfuse.synthetic_bench import BenchmarkSpec, ToyGeneratorSpec


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


def test_only_a_shape_error_becomes_a_format_error(tmp_path, monkeypatch):
    """A bad payload is a malformed file; any other error is not and must propagate."""
    image, latent = tmp_path / "face.img", tmp_path / "z.pdl"
    io.save_image(image, ImageTensor(np.full((2, 2, 1), 0.5)))
    io.save_latent(latent, LatentVector(np.zeros(4)))
    image.write_bytes(np.full(4, np.nan).astype("<f8").tobytes())
    with pytest.raises(FormatError, match="non-finite"):
        io.load_image(image)

    def broken(values):
        raise RuntimeError("bug")

    monkeypatch.setattr(io, "LatentVector", broken)
    with pytest.raises(RuntimeError, match="bug"):
        io.load_latent(latent)


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
        b'{"kind": "direction", "format_version": 1, "source": "a", "target": "b", "values": [1.0], '
        b'"diagnostics": {"mode": "standard", "epochs_run": 3, "initial_loss": 0.7, "final_loss": 0.1, '
        b'"converged": true, "degenerate": false, "separation": 1.0, "lr": 0.1}}',
        b'{"kind": "direction", "format_version": 1, "source": "a", "target": "b", "values": [1.0], '
        b'"diagnostics": {"mode": "standard", "epochs_run": 3.0, "initial_loss": 0.7, "final_loss": 0.1, '
        b'"converged": true, "degenerate": false, "separation": 1.0}}',
    ],
    ids=[
        "json-not-object", "not-utf8", "non-numeric-values", "diagnostics-not-object",
        "diagnostics-unknown-key", "diagnostics-float-epochs",
    ],
)
def test_direction_malformed_file_raises_format_error(tmp_path, raw):
    with pytest.raises(FormatError):
        io.load_direction(_direction_file(tmp_path, raw))


def test_direction_error_names_diagnostics_key(tmp_path):
    raw = (
        b'{"kind": "direction", "format_version": 1, "source": "a", "target": "b", "values": [1.0], '
        b'"diagnostics": {"mode": "standard"}}'
    )
    with pytest.raises(FormatError, match="diagnostics: missing key 'epochs_run'"):
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


# Every dataclass an artifact or config document is decoded into; BranchSpec
# and FaceImageRef are decoded as parts of GaitModelConfig and SubjectRecord.
DECODED = (
    BenchmarkSpec,
    InversionConfig,
    DirectionSettings,
    GaitModelConfig,
    TrainOptions,
    FaceBackboneConfig,
    FaceTrainOptions,
    FusionTrainConfig,
    EvaluationSettings,
    ToyGeneratorSpec,
    SubjectRecord,
    FitDiagnostics,
)

# String fields whose class accepts only a few values.
_CHOICES = {
    "kind": ("conv", "pointwise", "pool"),
    "partition_strategy": PARTITION_STRATEGIES,
    "init": ("zeros", "random", "warm"),
    "mode": MODES,
    "label": LABELS,
}


def _values(tp, name=""):
    if name in _CHOICES:
        return st.sampled_from(_CHOICES[name])
    if dataclasses.is_dataclass(tp):
        return _instances(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            return st.lists(_values(args[0]), max_size=3).map(tuple)
        return st.tuples(*map(_values, args))
    if typing.get_origin(tp) is types.UnionType:
        return st.none() | _values(args[0])
    return {
        int: st.integers(0, 64),
        float: st.floats(allow_nan=False) | st.integers(-3, 3),
        str: st.text(max_size=6),
        bool: st.booleans(),
    }[tp]


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except ValueError:
        return None


def _instances(cls):
    """Valid instances of ``cls``, each field at its default or a drawn value."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for f in dataclasses.fields(cls):
        drawn = _values(hints[f.name], f.name)
        if f.default is not dataclasses.MISSING:
            drawn = st.just(f.default) | drawn
        elif f.default_factory is not dataclasses.MISSING:
            drawn = st.just(f.default_factory()) | drawn
        fields[f.name] = drawn
    return st.fixed_dictionaries(fields).map(lambda kw: _build(cls, kw)).filter(lambda x: x is not None)


@pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_from_dict_inverts_asdict_through_json(cls, data):
    value = data.draw(_instances(cls))
    text = json.dumps(dataclasses.asdict(value), sort_keys=True)
    decoded = io.from_dict(cls, json.loads(text))
    assert decoded == value
    assert json.dumps(dataclasses.asdict(decoded), sort_keys=True) == text  # an int stays an int


def _gait_doc(**changes):
    doc = json.loads(json.dumps(dataclasses.asdict(GaitModelConfig())))
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not dataclasses.MISSING}


_POINTWISE = {"kind": "pointwise", "kernel_size": 3, "dilation": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "^expected object, got list$"),
        (_gait_doc(extra=1), "^unknown key 'extra'$"),
        (_gait_doc(stride=dataclasses.MISSING), "^missing key 'stride'$"),
        (_gait_doc(branches=3), "^branches: expected list, got int$"),
        (
            _gait_doc(branches=[_POINTWISE, dict(_POINTWISE, kernel_size="3")]),
            r"^branches\[1\]\.kernel_size: expected int, got str$",
        ),
        (_gait_doc(branches=[_POINTWISE, dict(_POINTWISE, x=1)]), r"^branches\[1\]: unknown key 'x'$"),
        (_gait_doc(window_length=True), "^window_length: expected int, got bool$"),
        (_gait_doc(window_length=64.0), "^window_length: expected int, got float$"),
        (_gait_doc(min_confidence="0.3"), "^min_confidence: expected float, got str$"),
        (_gait_doc(partition_strategy=None), "^partition_strategy: expected str, got NoneType$"),
        (_gait_doc(channels=[6]), "not divisible"),
    ],
    ids=[
        "not-object", "unknown-key", "missing-key", "branches-int", "nested-type", "nested-unknown-key",
        "bool-for-int", "float-for-int", "str-for-float", "null-for-str", "constructor-check",
    ],
)
def test_from_dict_rejects_malformed_input_naming_the_key(doc, message):
    with pytest.raises(FormatError, match=message):
        io.from_dict(GaitModelConfig, doc)


def test_from_dict_prefixes_the_context():
    with pytest.raises(FormatError, match="^checkpoint c config: branches: expected list, got int$"):
        io.from_dict(GaitModelConfig, _gait_doc(branches=3), "checkpoint c config")


def test_from_dict_tuples_optionals_and_ints_for_floats():
    fusion = io.from_dict(FusionTrainConfig, {"learning_rate": 1, "epochs": 2, "batch_size": 4, "seed": 0})
    assert type(fusion.learning_rate) is int
    face = dataclasses.asdict(FaceBackboneConfig())
    with pytest.raises(FormatError, match="^image_shape: expected 3 items, got 2$"):
        io.from_dict(FaceBackboneConfig, dict(face, image_shape=[32, 32]))
    assert io.from_dict(EvaluationSettings, {"k": 2, "fold_indices": None}).fold_indices is None
    assert io.from_dict(EvaluationSettings, {"k": 2, "fold_indices": [0, 1]}).fold_indices == (0, 1)
    with pytest.raises(FormatError, match=r"^fold_indices\[1\]: expected int, got str$"):
        io.from_dict(EvaluationSettings, {"k": 2, "fold_indices": [0, "1"]})


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

    def test_source_defaults_to_clinical(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            '{"format_version": 1, "kind": "manifest"}\n'
            '{"subject_id": "s0", "label": "PD", "gait_path": "g", "faces": []}\n'
        )
        assert load_manifest(path).records[0].source == "clinical"

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["s000", "PD"]', "expected object, got list"),
            ('{"subject_id": "s0", "label": "PD", "gait_path": "g", "faces": [3]}', r"faces\[0\]: expected object, got int"),
            ('{"subject_id": 7, "label": "PD", "gait_path": "g", "faces": []}', "subject_id: expected str, got int"),
            ('{"subject_id": "s0", "label": "PD", "gait_path": "g", "faces": [], "site": "x"}', "unknown key 'site'"),
            ('{"subject_id": "s0", "label": "sick", "gait_path": "g", "faces": []}', "label must be one of"),
        ],
        ids=["record-is-list", "face-is-int", "int-subject-id", "unknown-key", "bad-label"],
    )
    def test_malformed_record_names_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"format_version": 1, "kind": "manifest"}\n' + line + "\n")
        with pytest.raises(FormatError, match=f"line 2: {message}"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "raw",
        [b'{"format_version": 1, "kind": "manifest"}\n{"subject_id": "\xff"}\n', b"[1]\n"],
        ids=["not-utf8", "header-is-list"],
    )
    def test_unreadable_manifest_raises_format_error(self, tmp_path, raw):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"subject_id": "s0"}\n')
        with pytest.raises(FormatError, match="lacks a manifest header"):
            load_manifest(path)
