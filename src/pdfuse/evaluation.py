"""Subject-level evaluation protocol.

Deterministic k-fold splitting over subjects, control augmentation of test
folds, accuracy/confusion metrics, and a three-way comparison (gait-only,
face-only, fusion) that trains every head under the identical fold plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ndnn
from .errors import EmptyWindowsError, FormatError, MissingModalityError, ShapeError
from .face_features import FaceModel, extract_face_features
from .fusion import (
    DiagnosisModels,
    FusionTrainConfig,
    hybrid_fuse,
    predict_subject,
    train_fusion,
)
from .gait_features import (
    GaitModelConfig,
    TrainOptions,
    load_keypoints,
    predict_is_pd,
    preprocess,
    train_gait_classifier,
)
from .io import load_image
from .manifest import LABEL_CONTROL, LABEL_PD, DatasetManifest, SubjectRecord


@dataclass(frozen=True)
class FoldPlan:
    """Partition of subject ids into k folds, reproducible from the seed."""

    folds: tuple[tuple[str, ...], ...]
    seed: int

    @property
    def k(self) -> int:
        return len(self.folds)

    def all_ids(self) -> list[str]:
        return [sid for fold in self.folds for sid in fold]

    def split(self, test_fold: int) -> tuple[list[str], list[str]]:
        """(train_ids, test_ids) for one fold rotation."""
        if not 0 <= test_fold < self.k:
            raise ShapeError(f"fold index {test_fold} out of range for k={self.k}")
        test = list(self.folds[test_fold])
        train = [sid for i, fold in enumerate(self.folds) for sid in fold if i != test_fold]
        return train, test


def kfold_split(manifest: DatasetManifest, k: int = 5, seed: int = 0) -> FoldPlan:
    """Shuffle subject ids with the seed and deal them into k folds.

    Fold sizes differ by at most one; folds are disjoint and cover every
    subject exactly once.
    """
    ids = manifest.subject_ids()
    if k < 2:
        raise ShapeError(f"k must be at least 2, got {k}")
    if len(ids) < k:
        raise ShapeError(f"cannot split {len(ids)} subjects into {k} folds")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    base, extra = divmod(len(order), k)
    folds = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(tuple(order[pos : pos + size]))
        pos += size
    return FoldPlan(folds=tuple(folds), seed=seed)


def augment_test_controls(
    test_records: list[SubjectRecord], controls: list[SubjectRecord]
) -> tuple[list[SubjectRecord], dict]:
    """Append the control pool to a test fold; returns the union and its composition."""
    seen = {rec.subject_id for rec in test_records}
    for rec in controls:
        if rec.subject_id in seen:
            raise ShapeError(f"control subject {rec.subject_id!r} already present in the test fold")
        seen.add(rec.subject_id)
    combined = list(test_records) + list(controls)
    composition = {
        LABEL_PD: sum(1 for r in combined if r.label == LABEL_PD),
        LABEL_CONTROL: sum(1 for r in combined if r.label == LABEL_CONTROL),
    }
    return combined, composition


@dataclass
class MetricsReport:
    accuracy: float
    per_class_accuracy: dict
    confusion: dict
    n_subjects: int
    predictions: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "confusion": self.confusion,
            "n_subjects": self.n_subjects,
            "n_failures": len(self.failures),
            "failures": self.failures,
            "predictions": self.predictions,
        }

    def format_table(self) -> str:
        lines = [
            f"{'subjects':<22} {self.n_subjects}",
            f"{'accuracy':<22} {self.accuracy:.4f}",
        ]
        for label, acc in self.per_class_accuracy.items():
            lines.append(f"{'accuracy[' + label + ']':<22} {acc:.4f}")
        for key, val in self.confusion.items():
            lines.append(f"{key:<22} {val}")
        if self.failures:
            lines.append(f"{'skipped subjects':<22} {len(self.failures)}")
        return "\n".join(lines)


def summarize_predictions(pairs: list[tuple[str, str, bool]], failures: list | None = None) -> MetricsReport:
    """Build metrics from (subject_id, true_label, predicted_is_pd) triples."""
    if not pairs:
        raise ShapeError("no successful predictions to summarize")
    confusion = {"pd_as_pd": 0, "pd_as_control": 0, "control_as_pd": 0, "control_as_control": 0}
    predictions = []
    for sid, label, is_pd in pairs:
        if label == LABEL_PD:
            confusion["pd_as_pd" if is_pd else "pd_as_control"] += 1
        else:
            confusion["control_as_pd" if is_pd else "control_as_control"] += 1
        predictions.append(
            {"subject_id": sid, "label": label, "predicted": LABEL_PD if is_pd else LABEL_CONTROL}
        )
    n_pd = confusion["pd_as_pd"] + confusion["pd_as_control"]
    n_ctl = confusion["control_as_pd"] + confusion["control_as_control"]
    per_class = {}
    if n_pd:
        per_class[LABEL_PD] = confusion["pd_as_pd"] / n_pd
    if n_ctl:
        per_class[LABEL_CONTROL] = confusion["control_as_control"] / n_ctl
    accuracy = (confusion["pd_as_pd"] + confusion["control_as_control"]) / len(pairs)
    return MetricsReport(
        accuracy=accuracy,
        per_class_accuracy=per_class,
        confusion=confusion,
        n_subjects=len(pairs),
        predictions=predictions,
        failures=list(failures or []),
    )


def evaluate(
    models: DiagnosisModels,
    records: list[SubjectRecord],
    resolve,
    skip_failures: bool = False,
) -> MetricsReport:
    """Fused diagnosis metrics over a set of subjects.

    A failing subject aborts the run unless ``skip_failures`` is set and
    the failure lies in the subject's own data (a missing modality, a
    malformed file or no usable gait window); such a subject is excluded
    from accuracy and listed in the report. Any other error, such as models
    that do not fit together, always aborts.
    """
    if not records:
        raise ShapeError("no subjects to evaluate")
    skippable = (MissingModalityError, FormatError, EmptyWindowsError) if skip_failures else ()
    pairs = []
    failures = []
    for rec in records:
        try:
            pred = predict_subject(rec, models, resolve)
        except skippable as exc:
            failures.append({"subject_id": rec.subject_id, "error": str(exc)})
            continue
        pairs.append((rec.subject_id, rec.label, pred.is_pd))
    return summarize_predictions(pairs, failures)


def train_linear_head(
    features: np.ndarray, labels: np.ndarray, epochs: int = 150, learning_rate: float = 0.01,
    batch_size: int = 16, seed: int = 0,
) -> ndnn.Dense:
    """Small 2-class linear probe on frozen features (used for the face-only row)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if np.unique(labels).size < 2:
        raise ShapeError("linear head training needs both classes")
    rng = np.random.default_rng(seed)
    head = ndnn.Dense(features.shape[1], 2, rng)

    def forward(idx):
        logits, cache = head.forward(features[idx])
        return logits, labels[idx], lambda grad_logits: head.backward(grad_logits, cache)

    ndnn.fit([head], features.shape[0], forward, epochs, batch_size, learning_rate, rng)
    return head


@dataclass
class ComparisonReport:
    """Accuracy of gait-only, face-only, and fused heads under one fold plan."""

    rows: dict
    seed: int
    k: int
    fold_indices: list
    fold_test_sizes: list
    n_controls: int

    def format_table(self) -> str:
        fold_headers = " ".join(f"{'fold' + str(i):>8}" for i in self.fold_indices)
        lines = [f"{'model':<12} {fold_headers} {'mean':>8}"]
        for name, row in self.rows.items():
            cells = " ".join(f"{acc:>8.4f}" for acc in row["per_fold"])
            lines.append(f"{name:<12} {cells} {row['mean']:>8.4f}")
        lines.append(f"(k={self.k}, fold seed={self.seed}, controls appended to test: {self.n_controls})")
        return "\n".join(lines)


def subject_windows(rec: SubjectRecord, cfg: GaitModelConfig, resolve=Path) -> np.ndarray:
    """A subject's gait windows; ``resolve`` maps a record path to a real one."""
    return preprocess(load_keypoints(resolve(rec.gait_path)), cfg)


def subject_images(rec: SubjectRecord, resolve=Path) -> np.ndarray:
    """A subject's face images stacked into one pixel array."""
    return np.stack([load_image(resolve(f.path)).pixels for f in rec.faces])


def compare_unimodal(
    manifest: DatasetManifest,
    plan: FoldPlan,
    face_model: FaceModel,
    gait_cfg: GaitModelConfig = GaitModelConfig(),
    gait_opts: TrainOptions = TrainOptions(),
    fusion_cfg: FusionTrainConfig = FusionTrainConfig(),
    controls: list[SubjectRecord] | None = None,
    fold_indices: list[int] | None = None,
) -> ComparisonReport:
    """Train and score gait-only, face-only, and fusion rows per fold.

    The expression backbone is trained upstream on expression labels only
    (never on diagnosis labels), so it is shared across folds; the gait
    extractor, the face linear probe, and the fusion head are retrained
    inside every fold on that fold's training subjects. Controls, when
    given, appear only in test folds.
    """
    fold_indices = list(range(plan.k)) if fold_indices is None else list(fold_indices)
    controls = list(controls or [])
    records = {rec.subject_id: rec for rec in manifest.records}
    for sid in plan.all_ids():
        if sid not in records:
            raise ShapeError(f"fold plan references unknown subject {sid!r}")

    needed = [records[sid] for sid in plan.all_ids()] + controls
    windows = {rec.subject_id: subject_windows(rec, gait_cfg, manifest.resolve) for rec in needed}
    face_feature = {
        rec.subject_id: extract_face_features(subject_images(rec, manifest.resolve), face_model)
        for rec in needed
    }

    rows = {name: [] for name in ("gait_only", "face_only", "fusion")}
    fold_test_sizes = []
    for fold_i in fold_indices:
        train_ids, test_ids = plan.split(fold_i)
        train_records = [records[sid] for sid in train_ids]
        test_records, _ = augment_test_controls([records[sid] for sid in test_ids], controls)
        fold_test_sizes.append(len(test_records))

        gait_clf, _ = train_gait_classifier(
            [(windows[r.subject_id], r.label_index) for r in train_records],
            gait_cfg,
            gait_opts,
        )
        train_labels = np.asarray([r.label_index for r in train_records])
        train_gait_feats = np.stack(
            [gait_clf.subject_feature(windows[r.subject_id]) for r in train_records]
        )
        train_face_feats = np.stack([face_feature[r.subject_id] for r in train_records])

        face_head = train_linear_head(train_face_feats, train_labels, seed=fusion_cfg.seed)
        fusion_params, _ = train_fusion(train_gait_feats, train_face_feats, train_labels, fusion_cfg)

        gait_pairs, face_pairs, fused_pairs = [], [], []
        for rec in test_records:
            gait_feat = gait_clf.subject_feature(windows[rec.subject_id])
            gait_logits, _ = gait_clf.head.forward(gait_feat[None, :])
            gait_pairs.append((rec.subject_id, rec.label, predict_is_pd(gait_logits[0])))
            face_logits, _ = face_head.forward(face_feature[rec.subject_id][None])
            face_pairs.append((rec.subject_id, rec.label, predict_is_pd(face_logits[0])))
            fused = hybrid_fuse(gait_feat, face_feature[rec.subject_id], fusion_params)
            fused_pairs.append((rec.subject_id, rec.label, predict_is_pd(fused)))
        rows["gait_only"].append(summarize_predictions(gait_pairs).accuracy)
        rows["face_only"].append(summarize_predictions(face_pairs).accuracy)
        rows["fusion"].append(summarize_predictions(fused_pairs).accuracy)

    report_rows = {
        name: {"per_fold": accs, "mean": float(np.mean(accs))} for name, accs in rows.items()
    }
    return ComparisonReport(
        rows=report_rows,
        seed=plan.seed,
        k=plan.k,
        fold_indices=fold_indices,
        fold_test_sizes=fold_test_sizes,
        n_controls=len(controls),
    )
