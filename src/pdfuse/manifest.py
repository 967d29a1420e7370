"""Subject records and dataset manifests.

A manifest is line-delimited JSON: one header record carrying the format
version, then one record per subject. Paths inside a manifest are stored
relative to the manifest file and resolved against it on load.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import FormatError
from .io import from_dict

LABEL_PD = "PD"
LABEL_CONTROL = "non-PD"
LABELS = (LABEL_PD, LABEL_CONTROL)

# Class index convention used by every 2-class head in the package.
PD_INDEX = 0
CONTROL_INDEX = 1

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class FaceImageRef:
    path: str
    expression: str


@dataclass(frozen=True)
class SubjectRecord:
    """One subject: identity, diagnosis label, and per-modality file paths."""

    subject_id: str
    label: str
    gait_path: str
    faces: tuple[FaceImageRef, ...]
    source: str = "clinical"

    def __post_init__(self):
        if not self.subject_id or any(c.isspace() for c in self.subject_id):
            raise FormatError(f"subject id must be a non-empty token, got {self.subject_id!r}")
        if self.label not in LABELS:
            raise FormatError(f"label must be one of {LABELS}, got {self.label!r}")

    @property
    def label_index(self) -> int:
        return PD_INDEX if self.label == LABEL_PD else CONTROL_INDEX


@dataclass
class DatasetManifest:
    records: list[SubjectRecord] = field(default_factory=list)
    root: Path | None = None

    def __post_init__(self):
        seen: set[str] = set()
        for rec in self.records:
            if rec.subject_id in seen:
                raise FormatError(f"duplicate subject id {rec.subject_id!r} in manifest")
            seen.add(rec.subject_id)

    def __len__(self) -> int:
        return len(self.records)

    def subject_ids(self) -> list[str]:
        return [rec.subject_id for rec in self.records]

    def by_id(self, subject_id: str) -> SubjectRecord:
        for rec in self.records:
            if rec.subject_id == subject_id:
                return rec
        raise KeyError(subject_id)

    def resolve(self, path: str) -> Path:
        if self.root is None:
            return Path(path)
        return self.root / path


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    path = Path(path)
    header = {"kind": "manifest", "format_version": MANIFEST_VERSION}
    lines = [json.dumps(header, sort_keys=True)]
    for rec in manifest.records:
        lines.append(json.dumps(asdict(rec), sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read manifest {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"manifest {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest {path} line 1 is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "manifest":
        raise FormatError(f"manifest {path} lacks a manifest header record")
    if header.get("format_version") != MANIFEST_VERSION:
        raise FormatError(
            f"manifest {path} has format_version {header.get('format_version')!r}; "
            f"this build reads version {MANIFEST_VERSION}"
        )
    records = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"manifest {path} line {i} is not valid JSON: {exc}") from exc
        if isinstance(obj, dict):
            obj.setdefault("source", "clinical")
        records.append(from_dict(SubjectRecord, obj, f"manifest {path} line {i}"))
    return DatasetManifest(records=records, root=path.parent.resolve())


def relativize(path: str | Path, root: str | Path) -> str:
    """Express ``path`` relative to ``root`` for storage inside a manifest."""
    return os.path.relpath(Path(path), Path(root))
