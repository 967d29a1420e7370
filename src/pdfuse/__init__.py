"""Multimodal Parkinson's screening pipeline with synthetic ground truth.

Three stages: latent-space expression synthesis on top of a pluggable image
generator, skeleton-graph gait embeddings, and a hybrid score-plus-feature
fusion head that combines the two modalities into a diagnosis.
"""

from .direction_discovery import DirectionVector, FitHyper, cosine, fit_direction, fit_logistic
from .errors import (
    ConfigError,
    DegenerateDirectionError,
    EmptyWindowsError,
    FormatError,
    InversionDivergedError,
    MissingModalityError,
    PdfuseError,
    ShapeError,
    TrainingDivergedError,
)
from .evaluation import (
    ComparisonReport,
    FoldPlan,
    MetricsReport,
    augment_test_controls,
    compare_unimodal,
    evaluate,
    kfold_split,
)
from .face_features import EXPRESSIONS, FaceBackboneConfig, FaceModel, train_expression_classifier
from .fusion import (
    DiagnosisModels,
    HybridFusionParams,
    Prediction,
    hybrid_fuse,
    predict_subject,
    train_fusion,
)
from .gait_features import (
    GaitClassifier,
    GaitModel,
    GaitModelConfig,
    SkeletonSequence,
    build_adjacency,
    load_keypoints,
    preprocess,
    save_keypoints,
    train_gait_classifier,
)
from .latent_editing import (
    Generator,
    ImageTensor,
    InversionConfig,
    LatentVector,
    edit_latent,
    invert,
    synthesize,
)
from .manifest import DatasetManifest, SubjectRecord, load_manifest, save_manifest
from .seeding import derive_seed
from .synthetic_bench import (
    BenchmarkSpec,
    GaitSimSpec,
    ToyGeneratorSpec,
    build_benchmark,
    make_toy_generator,
    sample_latent_clusters,
    simulate_gait,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "ComparisonReport",
    "ConfigError",
    "DatasetManifest",
    "DegenerateDirectionError",
    "DiagnosisModels",
    "DirectionVector",
    "EXPRESSIONS",
    "EmptyWindowsError",
    "FaceBackboneConfig",
    "FaceModel",
    "FitHyper",
    "FoldPlan",
    "FormatError",
    "GaitClassifier",
    "GaitModel",
    "GaitModelConfig",
    "GaitSimSpec",
    "Generator",
    "HybridFusionParams",
    "ImageTensor",
    "InversionConfig",
    "InversionDivergedError",
    "LatentVector",
    "MetricsReport",
    "MissingModalityError",
    "PdfuseError",
    "Prediction",
    "ShapeError",
    "SkeletonSequence",
    "SubjectRecord",
    "ToyGeneratorSpec",
    "TrainingDivergedError",
    "augment_test_controls",
    "build_adjacency",
    "build_benchmark",
    "compare_unimodal",
    "cosine",
    "derive_seed",
    "edit_latent",
    "evaluate",
    "fit_direction",
    "fit_logistic",
    "hybrid_fuse",
    "invert",
    "kfold_split",
    "load_keypoints",
    "load_manifest",
    "make_toy_generator",
    "predict_subject",
    "preprocess",
    "sample_latent_clusters",
    "save_keypoints",
    "save_manifest",
    "simulate_gait",
    "synthesize",
    "train_expression_classifier",
    "train_fusion",
    "train_gait_classifier",
]
