"""Hybrid score-stacking fusion of gait and face features.

Each modality gets a scalar score head; the score is concatenated onto the
modality's feature vector and a per-modality class head maps the widened
vector to 2 logits. The final logits are the sum over modalities. Only these
fusion parameters are trained; both feature extractors stay frozen.

Class index 0 is PD throughout, and argmax ties break toward PD.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import gait_features, ndnn
from .errors import EmptyWindowsError, FormatError, MissingModalityError, ShapeError
from .face_features import FaceModel, extract_face_features
from .gait_features import GaitClassifier, GaitModelConfig, load_keypoints, preprocess
from .io import load_image
from .manifest import PD_INDEX, SubjectRecord


@dataclass
class HybridFusionParams:
    """Score head and class head per modality.

    For modality m with feature f (dim d_m): score s = score_w . f + score_b,
    widened = concat(f, s), logits_m = class_w @ widened + class_b where
    class_w is (2, d_m + 1). Final logits = logits_gait + logits_face.
    """

    gait_score_w: np.ndarray
    gait_score_b: float
    gait_class_w: np.ndarray
    gait_class_b: np.ndarray
    face_score_w: np.ndarray
    face_score_b: float
    face_class_w: np.ndarray
    face_class_b: np.ndarray

    def __post_init__(self):
        self.gait_score_w = np.asarray(self.gait_score_w, dtype=np.float64)
        self.face_score_w = np.asarray(self.face_score_w, dtype=np.float64)
        self.gait_class_w = np.asarray(self.gait_class_w, dtype=np.float64)
        self.face_class_w = np.asarray(self.face_class_w, dtype=np.float64)
        self.gait_class_b = np.asarray(self.gait_class_b, dtype=np.float64)
        self.face_class_b = np.asarray(self.face_class_b, dtype=np.float64)
        for name, w, cw in (
            ("gait", self.gait_score_w, self.gait_class_w),
            ("face", self.face_score_w, self.face_class_w),
        ):
            if w.ndim != 1:
                raise ShapeError(f"{name} score weights must be 1-D, got {w.shape}")
            if cw.shape != (2, w.shape[0] + 1):
                raise ShapeError(
                    f"{name} class head must be (2, {w.shape[0] + 1}), got {cw.shape}"
                )
        if self.gait_class_b.shape != (2,) or self.face_class_b.shape != (2,):
            raise ShapeError("class biases must have shape (2,)")

    @property
    def gait_dim(self) -> int:
        return self.gait_score_w.shape[0]

    @property
    def face_dim(self) -> int:
        return self.face_score_w.shape[0]

    @classmethod
    def init(cls, gait_dim: int, face_dim: int, seed: int = 0) -> "HybridFusionParams":
        rng = np.random.default_rng(seed)
        return cls(
            gait_score_w=rng.normal(0, 1 / np.sqrt(gait_dim), gait_dim),
            gait_score_b=0.0,
            gait_class_w=rng.normal(0, 1 / np.sqrt(gait_dim + 1), (2, gait_dim + 1)),
            gait_class_b=np.zeros(2),
            face_score_w=rng.normal(0, 1 / np.sqrt(face_dim), face_dim),
            face_score_b=0.0,
            face_class_w=rng.normal(0, 1 / np.sqrt(face_dim + 1), (2, face_dim + 1)),
            face_class_b=np.zeros(2),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "gait_score_w": self.gait_score_w,
            "gait_score_b": np.asarray([self.gait_score_b]),
            "gait_class_w": self.gait_class_w,
            "gait_class_b": self.gait_class_b,
            "face_score_w": self.face_score_w,
            "face_score_b": np.asarray([self.face_score_b]),
            "face_class_w": self.face_class_w,
            "face_class_b": self.face_class_b,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "HybridFusionParams":
        """Inverse of ``arrays``; raises FormatError on arrays that do not fit."""
        names = {f.name for f in fields(cls)}
        missing = sorted(names - arrays.keys())
        unexpected = sorted(arrays.keys() - names)
        if missing or unexpected:
            raise FormatError(f"fusion arrays: missing {missing}, unexpected {unexpected}")
        values = dict(arrays)
        for name in ("gait_score_b", "face_score_b"):
            if np.shape(arrays[name]) != (1,):
                raise FormatError(f"fusion array {name}: shape {np.shape(arrays[name])}, expected (1,)")
            values[name] = float(arrays[name][0])
        try:
            return cls(**values)
        except ShapeError as exc:
            raise FormatError(f"fusion arrays: {exc}") from exc

    def checksum(self) -> str:
        return ndnn.params_checksum(self.arrays())


def _fusion_layers(params: HybridFusionParams) -> list[ndnn.Dense]:
    """Gait score, gait class, face score and face class layers over ``params``.

    A score layer maps d -> 1 and a class layer d + 1 -> 2. The layers hold
    copies, so training them leaves ``params`` as it was.
    """
    return [
        ndnn.Dense.from_arrays(params.gait_score_w[:, None], [params.gait_score_b]),
        ndnn.Dense.from_arrays(params.gait_class_w.T, params.gait_class_b),
        ndnn.Dense.from_arrays(params.face_score_w[:, None], [params.face_score_b]),
        ndnn.Dense.from_arrays(params.face_class_w.T, params.face_class_b),
    ]


def _params_from_layers(layers: list[ndnn.Dense]) -> HybridFusionParams:
    gait_score, gait_class, face_score, face_class = (layer.params for layer in layers)
    return HybridFusionParams(
        gait_score_w=gait_score["weight"][:, 0],
        gait_score_b=float(gait_score["bias"][0]),
        gait_class_w=gait_class["weight"].T,
        gait_class_b=gait_class["bias"],
        face_score_w=face_score["weight"][:, 0],
        face_score_b=float(face_score["bias"][0]),
        face_class_w=face_class["weight"].T,
        face_class_b=face_class["bias"],
    )


def _fuse(layers: list[ndnn.Dense], f_gait: np.ndarray, f_face: np.ndarray):
    """Logits of (n, d_g) and (n, d_f) feature batches, and a backward function.

    Each modality's score is appended to its features as one more column
    before its class layer; the logits are the sum over modalities.
    ``backward(grad_logits)`` accumulates every layer's gradients.
    """
    logits = 0.0
    caches = []
    for score, head, f in ((layers[0], layers[1], f_gait), (layers[2], layers[3], f_face)):
        s, score_cache = score.forward(f)
        modality_logits, head_cache = head.forward(np.concatenate([f, s], axis=1))
        logits = logits + modality_logits
        caches.append((score, score_cache, head, head_cache))

    def backward(grad_logits):
        for score, score_cache, head, head_cache in caches:
            grad_wide = head.backward(grad_logits, head_cache)
            score.backward(grad_wide[:, -1:], score_cache)

    return logits, backward


def hybrid_fuse(f_gait: np.ndarray, f_face: np.ndarray, params: HybridFusionParams) -> np.ndarray:
    """Fuse one subject's feature vectors into 2 logits (index 0 = PD)."""
    f_gait = np.asarray(f_gait, dtype=np.float64)
    f_face = np.asarray(f_face, dtype=np.float64)
    if f_gait.shape != (params.gait_dim,):
        raise ShapeError(f"gait feature shape {f_gait.shape}, expected ({params.gait_dim},)")
    if f_face.shape != (params.face_dim,):
        raise ShapeError(f"face feature shape {f_face.shape}, expected ({params.face_dim},)")
    if not (np.all(np.isfinite(f_gait)) and np.all(np.isfinite(f_face))):
        raise ShapeError("feature vectors contain non-finite values")
    logits, _ = _fuse(_fusion_layers(params), f_gait[None], f_face[None])
    return logits[0]


@dataclass(frozen=True)
class FusionTrainConfig:
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 16
    seed: int = 0


def train_fusion(
    features_gait: np.ndarray,
    features_face: np.ndarray,
    labels: np.ndarray,
    cfg: FusionTrainConfig = FusionTrainConfig(),
) -> tuple[HybridFusionParams, dict]:
    """Train the fusion head on precomputed frozen features.

    ``features_gait`` (n, d_g), ``features_face`` (n, d_f), ``labels`` class
    indices with both classes present. Adam on mini-batches with mean
    cross-entropy. Returns the trained parameters and a per-epoch trace.
    """
    features_gait = np.asarray(features_gait, dtype=np.float64)
    features_face = np.asarray(features_face, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if features_gait.shape[0] != n or features_face.shape[0] != n:
        raise ShapeError("feature matrices and labels disagree on subject count")
    if n < 2 or np.unique(labels).size < 2:
        raise ShapeError("fusion training needs subjects of both classes")

    layers = _fusion_layers(
        HybridFusionParams.init(features_gait.shape[1], features_face.shape[1], seed=cfg.seed)
    )

    def forward(idx):
        logits, backward = _fuse(layers, features_gait[idx], features_face[idx])
        return logits, labels[idx], backward

    trace = ndnn.fit(
        layers, n, forward, cfg.epochs, cfg.batch_size, cfg.learning_rate,
        np.random.default_rng(cfg.seed),
    )
    return _params_from_layers(layers), trace


@dataclass(frozen=True)
class Prediction:
    subject_id: str
    label: str
    is_pd: bool
    pd_probability: float
    logits: np.ndarray

    @property
    def predicted_label_index(self) -> int:
        return PD_INDEX if self.is_pd else 1 - PD_INDEX


@dataclass
class DiagnosisModels:
    """Everything needed to score one subject end to end."""

    gait: GaitClassifier
    face: FaceModel
    fusion: HybridFusionParams
    gait_cfg: GaitModelConfig


def subject_features(
    subject: SubjectRecord, models: DiagnosisModels, resolve
) -> tuple[np.ndarray, np.ndarray]:
    """Load a subject's files and compute both frozen feature vectors.

    ``resolve`` maps a manifest-relative path to a real one. Raises
    MissingModalityError when either modality is absent or unusable.
    """
    gait_path = Path(resolve(subject.gait_path))
    if not gait_path.exists():
        raise MissingModalityError(
            f"subject {subject.subject_id!r}: gait keypoints missing at {gait_path}"
        )
    seq = load_keypoints(gait_path)
    try:
        windows = preprocess(seq, models.gait_cfg)
    except EmptyWindowsError as exc:
        raise MissingModalityError(
            f"subject {subject.subject_id!r}: no usable gait windows ({exc})"
        ) from exc
    if not subject.faces:
        raise MissingModalityError(f"subject {subject.subject_id!r}: no face images listed")
    images = []
    for ref in subject.faces:
        face_path = Path(resolve(ref.path))
        if not face_path.exists():
            raise MissingModalityError(
                f"subject {subject.subject_id!r}: face image missing at {face_path}"
            )
        images.append(load_image(face_path).pixels)
    f_gait = models.gait.subject_feature(windows)
    f_face = extract_face_features(np.stack(images), models.face)
    return f_gait, f_face


def predict_subject(subject: SubjectRecord, models: DiagnosisModels, resolve) -> Prediction:
    """Fused diagnosis for one subject; ties break toward PD."""
    f_gait, f_face = subject_features(subject, models, resolve)
    logits = hybrid_fuse(f_gait, f_face, models.fusion)
    probs = ndnn.softmax(logits[None])[0]
    is_pd = gait_features.predict_is_pd(logits)
    return Prediction(
        subject_id=subject.subject_id,
        label=subject.label,
        is_pd=is_pd,
        pd_probability=float(probs[PD_INDEX]),
        logits=logits,
    )
