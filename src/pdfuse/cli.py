"""Batch command-line entry points for the full pipeline.

One process, one command per invocation. ``run_command`` does what every
producing command shares, once: it reads an optional config document (YAML
or JSON, sections mirroring the module config types), applies ``--seed``,
``--out`` and every flag that sets a config field (the flag's argparse
``dest`` is ``"<section>.<field>"``), derives each stage section's sub-seed
from the single global seed, makes the output directory, times the command,
and writes the command's metrics file and a ``run.json`` with the seed, the
effective config (flag overrides and derived stage seeds included), its
hash, wall-clock timings and the artifact list. Each ``_cmd_*`` function
does only its stage's work and returns ``(metrics file name, metrics body,
other artifacts, summary line)``. Metric files never contain timings, so
reruns with the same config and seed are byte-identical.

Environment override: ``PDFUSE_OUTDIR`` (output directory). An explicit
``--out`` beats the environment, which beats the config file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import ndnn
from .direction_discovery import MODES, FitHyper, cosine, fit_direction
from .errors import ConfigError, FormatError, PdfuseError
from .evaluation import (
    augment_test_controls,
    compare_unimodal,
    evaluate,
    kfold_split,
    subject_images,
    subject_windows,
)
from .face_features import (
    EXPRESSIONS,
    FaceBackboneConfig,
    FaceModel,
    FaceTrainOptions,
    expression_index,
    extract_face_features,
    train_expression_classifier,
)
from .fusion import DiagnosisModels, FusionTrainConfig, HybridFusionParams, train_fusion
from .gait_features import (
    GaitClassifier,
    GaitModelConfig,
    TrainOptions,
    classifier_from_arrays,
    train_gait_classifier,
)
from .io import (
    _json_object,
    config_hash,
    from_dict,
    load_checkpoint,
    load_direction,
    load_image,
    load_latent,
    save_checkpoint,
    save_direction,
    save_image,
    save_latent,
)
from .latent_editing import InversionConfig, LatentVector, edit_latent, invert
from .manifest import LABEL_CONTROL, LABEL_PD, DatasetManifest, SubjectRecord, load_manifest
from .seeding import derive_seed
from .synthetic_bench import BenchmarkSpec, ToyGenerator, build_benchmark, load_generator_spec

_RUN_RECORD_VERSION = 1
_METRICS_VERSION = 1
# config section -> the stage name its seed is derived under
_STAGE_SEEDS = {
    "benchmark": "simulate",
    "inversion": "invert",
    "gait_train": "train-gait",
    "face_train": "train-face",
    "fusion_train": "train-fusion",
}


@dataclass(frozen=True)
class DirectionSettings:
    """Config section for the direction-discovery stage."""

    mode: str = "standard"
    learning_rate: float = 0.01
    max_epochs: int = 2000
    tolerance: float = 1e-8
    l2: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class EvaluationSettings:
    k: int = 5
    fold_indices: tuple[int, ...] | None = None


@dataclass
class PipelineConfig:
    """All stage settings plus the global seed and output directory.

    Stage seeds are not user-settable: every stage derives its own sub-seed
    from the global seed by name, so section dicts reject a ``seed`` key.
    """

    seed: int = 0
    out_dir: str = "runs"
    benchmark: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    inversion: InversionConfig = field(default_factory=InversionConfig)
    direction: DirectionSettings = field(default_factory=DirectionSettings)
    gait_model: GaitModelConfig = field(default_factory=GaitModelConfig)
    gait_train: TrainOptions = field(default_factory=TrainOptions)
    face_model: FaceBackboneConfig = field(default_factory=FaceBackboneConfig)
    face_train: FaceTrainOptions = field(default_factory=FaceTrainOptions)
    fusion_train: FusionTrainConfig = field(default_factory=FusionTrainConfig)
    evaluation: EvaluationSettings = field(default_factory=EvaluationSettings)

    def hash(self) -> str:
        payload = asdict(self)
        payload.pop("out_dir")  # where artifacts land must not change what they contain
        return config_hash(payload)


def load_pipeline_config(path: str | Path | None = None) -> PipelineConfig:
    """Parse a YAML or JSON config document into a PipelineConfig.

    Unknown sections and unknown keys inside sections are rejected with the
    offending name, and every value is type-checked against its field. A
    section may give only some keys; the rest keep their defaults. A
    missing document yields all defaults.
    """
    doc: dict = {}
    if path is not None:
        try:
            loaded = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML/JSON: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must contain a mapping at the top level")
        doc = loaded

    cfg = PipelineConfig()
    fields = dataclasses.fields(cfg)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(f"unknown config section '{key}'")
    for f in fields:
        if f.name not in doc:
            continue
        default, value = getattr(cfg, f.name), doc[f.name]
        if not dataclasses.is_dataclass(default):  # seed and out_dir: exactly int and str
            if type(value) is not type(default):
                got = type(value).__name__
                raise ConfigError(f"config key '{f.name}': expected {type(default).__name__}, got {got}")
            setattr(cfg, f.name, value)
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section '{f.name}' must be a mapping")
        if "seed" in value:
            raise ConfigError(
                f"config section '{f.name}': key 'seed' is derived from the global seed; "
                "set the top-level 'seed' instead"
            )
        try:
            setattr(cfg, f.name, from_dict(type(default), {**asdict(default), **value}))
        except FormatError as exc:
            raise ConfigError(f"config section '{f.name}': {exc}") from exc
    return cfg


def _apply_flags(cfg: PipelineConfig, args) -> None:
    """Apply --seed, --out (flag > PDFUSE_OUTDIR > config) and every config-field flag."""
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    elif os.environ.get("PDFUSE_OUTDIR"):
        cfg.out_dir = os.environ["PDFUSE_OUTDIR"]
    for dest, value in vars(args).items():
        section, _, name = dest.partition(".")
        if name and value is not None:
            if name == "fold_indices":  # split here: argparse would turn int("x") into a usage exit
                value = tuple(int(tok) for tok in value.split(","))
            setattr(cfg, section, replace(getattr(cfg, section), **{name: value}))


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _absolutize(rec: SubjectRecord, manifest: DatasetManifest) -> SubjectRecord:
    """Rebind a record's paths to absolute ones so mixed-root pools can merge."""
    return replace(
        rec,
        gait_path=str(manifest.resolve(rec.gait_path)),
        faces=tuple(replace(f, path=str(manifest.resolve(f.path))) for f in rec.faces),
    )


def _load_records(path: str | Path) -> list[SubjectRecord]:
    manifest = load_manifest(path)
    return [_absolutize(rec, manifest) for rec in manifest.records]


def _read_checkpoint(path: str, kind: str) -> tuple[dict, dict]:
    """Arrays and config echo of a checkpoint that must be of ``kind``."""
    found, arrays, header = load_checkpoint(path)
    if found != kind:
        raise FormatError(f"{path} holds a {found!r} checkpoint, expected {kind!r}")
    if not isinstance(header.get("config"), dict):
        raise FormatError(f"checkpoint {path}: header has no 'config' object")
    return arrays, header["config"]


def _load_gait_checkpoint(path: str):
    arrays, config = _read_checkpoint(path, "gait_classifier")
    cfg = from_dict(GaitModelConfig, config, f"checkpoint {path} config")
    return classifier_from_arrays(arrays, cfg), cfg


def _load_face_checkpoint(path: str) -> FaceModel:
    arrays, config = _read_checkpoint(path, "face_model")
    model = FaceModel(from_dict(FaceBackboneConfig, config, f"checkpoint {path} config"), seed=0)
    ndnn.load_state_dict(model.named_layers(), arrays)
    return model


def _load_fusion_checkpoint(
    path: str, gait_clf: GaitClassifier, face_model: FaceModel
) -> HybridFusionParams:
    """Fusion parameters, checked against the extractors they were trained on."""
    arrays, config = _read_checkpoint(path, "fusion")
    for name, model in (("gait", gait_clf), ("face", face_model)):
        recorded = config.get(f"{name}_checksum")
        if recorded != model.checksum():
            raise FormatError(
                f"{path} was trained on a {name} extractor with checksum {recorded}, "
                f"but the loaded one has {model.checksum()}"
            )
    return HybridFusionParams.from_arrays(arrays)


def _train_face_backbone(bench_dir: Path, cfg: PipelineConfig):
    """Train the expression backbone on the benchmark's decoded latent samples."""
    generator = ToyGenerator(load_generator_spec(bench_dir / "generator.json"))
    images, labels = [], []
    for name in EXPRESSIONS:
        path = bench_dir / "latent_samples" / f"{name}.npy"
        if not path.exists():
            raise FormatError(f"benchmark at {bench_dir} is missing latent samples for {name!r}")
        for row in np.load(path):
            images.append(generator.forward(LatentVector(row)).pixels)
            labels.append(expression_index(name))
    return train_expression_classifier(np.stack(images), np.asarray(labels), cfg.face_model, cfg.face_train)


# ---------------------------------------------------------------------------
# subcommands: each gets (args, effective config, output directory, timings)
# and returns (metrics file name, metrics body, other artifacts, summary line)


def _cmd_simulate(args, cfg: PipelineConfig, out: Path, timings: dict):
    spec = cfg.benchmark
    paths = build_benchmark(spec, out / "benchmark")
    _write_json(
        paths.root / "provenance.json",
        {"format_version": 1, "config_hash": cfg.hash(), "benchmark": asdict(spec)},
    )
    body = {
        "n_per_class": spec.n_per_class,
        "n_subjects": 2 * spec.n_per_class,
        "labels": {LABEL_PD: spec.n_per_class, LABEL_CONTROL: spec.n_per_class},
        "images_per_subject": len(EXPRESSIONS),
        "manifest": str(paths.manifest_path.relative_to(out)),
    }
    summary = f"benchmark written to {paths.root} ({2 * spec.n_per_class} subjects)"
    return "simulate_metrics.json", body, ["benchmark"], summary


def _cmd_invert(args, cfg: PipelineConfig, out: Path, timings: dict):
    generator = ToyGenerator(load_generator_spec(args.generator_spec))
    target = load_image(args.image)
    warm = load_latent(args.warm_start) if args.warm_start else None
    result = invert(target, generator, config=cfg.inversion, warm_start=warm)
    reconstruction = generator.forward(result.latent)
    mse = float(np.mean((reconstruction.pixels - target.pixels) ** 2))
    save_latent(out / "latent.pdl", result.latent, meta={"config_hash": cfg.hash()})
    save_image(out / "reconstruction.img", reconstruction, meta={"config_hash": cfg.hash()})
    body = {
        "final_loss": result.final_loss,
        "iterations": result.iterations,
        "converged": result.converged,
        "per_pixel_mse": mse,
    }
    summary = (
        f"inverted in {result.iterations} iterations: loss {result.final_loss:.3e}, "
        f"per-pixel mse {mse:.3e}"
    )
    return "inversion_metrics.json", body, ["latent.pdl", "reconstruction.img"], summary


def _cmd_fit_direction(args, cfg: PipelineConfig, out: Path, timings: dict):
    settings = cfg.direction
    hyper = FitHyper(
        learning_rate=settings.learning_rate,
        max_epochs=settings.max_epochs,
        tolerance=settings.tolerance,
        l2=settings.l2,
        seed=derive_seed(cfg.seed, "fit-direction"),
    )
    latents_a, latents_b = np.load(args.latents_a), np.load(args.latents_b)
    direction = fit_direction(latents_a, latents_b, args.source, args.target, settings.mode, hyper)
    save_direction(out / "direction.json", direction, meta={"config_hash": cfg.hash()})
    diagnostics = direction.diagnostics
    body = {"mode": settings.mode, "source": args.source, "target": args.target, **asdict(diagnostics)}
    summary = (
        f"fitted {args.source} -> {args.target} ({settings.mode}): final loss "
        f"{diagnostics.final_loss:.6e}, degenerate={diagnostics.degenerate}"
    )
    if args.oracle:
        body["cosine_to_oracle"] = cosine(direction.values, load_direction(args.oracle).values)
        summary = f"cosine similarity to oracle: {body['cosine_to_oracle']:.6f}\n{summary}"
    return "fit_metrics.json", body, ["direction.json"], summary


def _cmd_synthesize(args, cfg: PipelineConfig, out: Path, timings: dict):
    generator = ToyGenerator(load_generator_spec(args.generator_spec))
    base = load_latent(args.latent)
    direction = load_direction(args.direction)
    edited = edit_latent(base, direction, args.strength)
    image = generator.forward(edited)
    save_latent(out / "edited_latent.pdl", edited, meta={"config_hash": cfg.hash()})
    save_image(out / "synthesized.img", image, meta={"config_hash": cfg.hash()})
    body = {
        "strength": args.strength,
        "source": direction.source,
        "target": direction.target,
        "latent_shift_norm": float(np.linalg.norm(edited.values - base.values)),
    }
    summary = f"synthesized {direction.source} -> {direction.target} at strength {args.strength}"
    return "synthesize_metrics.json", body, ["edited_latent.pdl", "synthesized.img"], summary


def _cmd_train_face(args, cfg: PipelineConfig, out: Path, timings: dict):
    model, report = _train_face_backbone(Path(args.benchmark), cfg)
    save_checkpoint(
        out / "face.ckpt",
        "face_model",
        ndnn.state_dict(model.named_layers()),
        config=asdict(cfg.face_model),
        meta={"config_hash": cfg.hash()},
    )
    (out / "face_report.txt").write_text(report.format_table() + "\n")
    return "face_metrics.json", asdict(report), ["face.ckpt", "face_report.txt"], report.format_table()


def _cmd_train_gait(args, cfg: PipelineConfig, out: Path, timings: dict):
    subjects = [
        (subject_windows(rec, cfg.gait_model), rec.label_index) for rec in _load_records(args.manifest)
    ]
    clf, trace = train_gait_classifier(subjects, cfg.gait_model, cfg.gait_train)
    save_checkpoint(
        out / "gait.ckpt",
        "gait_classifier",
        ndnn.state_dict(clf.named_layers()),
        config=asdict(cfg.gait_model),
        meta={"config_hash": cfg.hash()},
    )
    body = {
        "n_subjects": len(subjects),
        "n_windows": int(sum(w.shape[0] for w, _ in subjects)),
        "final_loss": trace["loss"][-1],
        "final_train_accuracy": trace["accuracy"][-1],
    }
    summary = (
        f"trained gait classifier on {len(subjects)} subjects: final loss "
        f"{trace['loss'][-1]:.4f}, train accuracy {trace['accuracy'][-1]:.4f}"
    )
    return "gait_metrics.json", body, ["gait.ckpt"], summary


def _cmd_train_fusion(args, cfg: PipelineConfig, out: Path, timings: dict):
    gait_clf, gait_cfg = _load_gait_checkpoint(args.gait)
    face_model = _load_face_checkpoint(args.face)
    records = _load_records(args.manifest)
    gait_before, face_before = gait_clf.checksum(), face_model.checksum()
    params, trace = train_fusion(
        np.stack([gait_clf.subject_feature(subject_windows(rec, gait_cfg)) for rec in records]),
        np.stack([extract_face_features(subject_images(rec), face_model) for rec in records]),
        np.asarray([rec.label_index for rec in records]),
        cfg.fusion_train,
    )
    if gait_clf.checksum() != gait_before or face_model.checksum() != face_before:
        raise PdfuseError("feature extractors changed during fusion training; they must stay frozen")
    checksums = {"gait_checksum": gait_before, "face_checksum": face_before}
    save_checkpoint(
        out / "fusion.ckpt",
        "fusion",
        params.arrays(),
        config={"gait_dim": params.gait_dim, "face_dim": params.face_dim, **checksums},
        meta={"config_hash": cfg.hash()},
    )
    body = {
        "n_subjects": len(records),
        "final_loss": trace["loss"][-1],
        "final_train_accuracy": trace["accuracy"][-1],
        "extractors_frozen": True,
        **checksums,
    }
    summary = (
        f"trained fusion head on {len(records)} subjects: final loss {trace['loss'][-1]:.4f}, "
        f"train accuracy {trace['accuracy'][-1]:.4f}"
    )
    return "fusion_metrics.json", body, ["fusion.ckpt"], summary


def _cmd_evaluate(args, cfg: PipelineConfig, out: Path, timings: dict):
    gait_clf, gait_cfg = _load_gait_checkpoint(args.gait)
    face_model = _load_face_checkpoint(args.face)
    fusion_params = _load_fusion_checkpoint(args.fusion, gait_clf, face_model)
    models = DiagnosisModels(gait=gait_clf, face=face_model, fusion=fusion_params, gait_cfg=gait_cfg)
    records = _load_records(args.manifest)
    composition = None
    if args.controls:
        records, composition = augment_test_controls(records, _load_records(args.controls))
    report = evaluate(models, records, resolve=Path, skip_failures=args.skip_failures)
    body = report.to_dict()
    if composition is not None:
        body["test_composition"] = composition
    return "metrics.json", body, [], report.format_table()


def _cmd_compare(args, cfg: PipelineConfig, out: Path, timings: dict):
    bench_dir = Path(args.benchmark)
    flat = DatasetManifest(records=_load_records(bench_dir / "manifest.jsonl"), root=None)
    if args.face:
        face_model = _load_face_checkpoint(args.face)
    else:
        started = time.perf_counter()
        face_model, _ = _train_face_backbone(bench_dir, cfg)
        timings["train_face"] = time.perf_counter() - started
    report = compare_unimodal(
        flat,
        kfold_split(flat, k=cfg.evaluation.k, seed=derive_seed(cfg.seed, "folds")),
        face_model,
        gait_cfg=cfg.gait_model,
        gait_opts=cfg.gait_train,
        fusion_cfg=cfg.fusion_train,
        controls=_load_records(args.controls) if args.controls else None,
        fold_indices=cfg.evaluation.fold_indices,
    )
    return "comparison.json", asdict(report), [], report.format_table()


def _report_checkpoint(path: Path) -> str:
    kind, arrays, header = load_checkpoint(path)
    lines = [f"checkpoint kind: {kind}", f"format_version: {header.get('format_version')}"]
    if "config_hash" in header:
        lines.append(f"config_hash: {header['config_hash']}")
    lines.append(f"config: {json.dumps(header.get('config', {}), sort_keys=True)}")
    lines.append("arrays:")
    total = 0
    for name in sorted(arrays):
        shape = "x".join(str(s) for s in arrays[name].shape) or "scalar"
        total += arrays[name].size
        lines.append(f"  {name:<40} {shape}")
    lines.append(f"total parameters: {total}")
    return "\n".join(lines)


def _report_direction(path: Path, oracle_path: str | None) -> str:
    direction = load_direction(path)
    lines = [
        f"direction: {direction.source} -> {direction.target} (dim {direction.dim})",
    ]
    if direction.diagnostics is not None:
        for key, value in asdict(direction.diagnostics).items():
            lines.append(f"  {key:<14} {value}")
    if oracle_path:
        oracle = load_direction(oracle_path)
        lines.append(f"cosine similarity to oracle: {cosine(direction.values, oracle.values):.6f}")
    return "\n".join(lines)


def _report_manifest(path: Path) -> str:
    manifest = load_manifest(path)
    counts: dict[str, int] = {}
    for rec in manifest.records:
        counts[rec.label] = counts.get(rec.label, 0) + 1
    lines = [f"manifest: {len(manifest)} subjects"]
    for label in sorted(counts):
        lines.append(f"  {label:<8} {counts[label]}")
    return "\n".join(lines)


def _cmd_report(args) -> int:
    path = Path(args.artifact)
    if not path.exists():
        raise FormatError(f"artifact {path} does not exist")
    if path.suffix == ".ckpt":
        print(_report_checkpoint(path))
        return 0
    if path.suffix == ".jsonl":
        print(_report_manifest(path))
        return 0
    if path.suffix == ".json":
        obj = _json_object(path.read_bytes(), f"artifact {path}")
        if obj.get("kind") == "direction":
            print(_report_direction(path, args.oracle))
        else:
            print(json.dumps(obj, sort_keys=True, indent=2))
        return 0
    raise FormatError(f"cannot report on {path}: unrecognized artifact type")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="YAML or JSON config document")
    sub.add_argument("--seed", type=int, help="global seed (stages derive named sub-seeds)")
    sub.add_argument("--out", help="output directory (env PDFUSE_OUTDIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdfuse",
        description=(
            "Multimodal Parkinson's screening pipeline on synthetic ground truth. "
            "Class index 0 is PD and prediction ties break toward PD (conservative "
            "screening posture)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="build the synthetic two-class benchmark")
    _add_common(p)
    p.add_argument("--n-per-class", type=int, dest="benchmark.n_per_class", help="subjects per class")
    p.add_argument("--gait-frames", type=int, dest="benchmark.gait_frames", help="frames per gait sequence")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("invert", help="recover the latent behind an image")
    _add_common(p)
    p.add_argument("--image", required=True, help="target image (.img)")
    p.add_argument("--generator-spec", required=True, help="generator spec (generator.json)")
    p.add_argument("--warm-start", help="latent file to start from (.pdl)")
    p.add_argument("--max-iterations", type=int, dest="inversion.max_iterations")
    p.add_argument("--step-size", type=float, dest="inversion.step_size")
    p.add_argument("--init", choices=("zeros", "random", "warm"), dest="inversion.init")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("fit-direction", help="fit a latent direction between two clusters")
    _add_common(p)
    p.add_argument("--latents-a", required=True, help="source-class latents (.npy, n x d)")
    p.add_argument("--latents-b", required=True, help="target-class latents (.npy, n x d)")
    p.add_argument("--source", required=True, help="source expression tag")
    p.add_argument("--target", required=True, help="target expression tag")
    p.add_argument("--mode", choices=MODES, dest="direction.mode", help="objective variant")
    p.add_argument("--oracle", help="oracle direction to print cosine similarity against")
    p.set_defaults(func=_cmd_fit_direction)

    p = sub.add_parser("synthesize", help="move a latent along a direction and decode it")
    _add_common(p)
    p.add_argument("--latent", required=True, help="base latent (.pdl)")
    p.add_argument("--direction", required=True, help="direction file (.json)")
    p.add_argument("--strength", type=float, required=True, help="edit strength")
    p.add_argument("--generator-spec", required=True, help="generator spec (generator.json)")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("train-face", help="train the expression backbone on benchmark samples")
    _add_common(p)
    p.add_argument("--benchmark", required=True, help="benchmark directory from `simulate`")
    p.add_argument("--epochs", type=int, dest="face_train.epochs")
    p.set_defaults(func=_cmd_train_face)

    p = sub.add_parser("train-gait", help="train the gait classifier on a manifest")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest (.jsonl)")
    p.add_argument("--epochs", type=int, dest="gait_train.epochs")
    p.set_defaults(func=_cmd_train_gait)

    p = sub.add_parser("train-fusion", help="train the fusion head over frozen extractors")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest (.jsonl)")
    p.add_argument("--gait", required=True, help="gait checkpoint (.ckpt)")
    p.add_argument("--face", required=True, help="face checkpoint (.ckpt)")
    p.set_defaults(func=_cmd_train_fusion)

    p = sub.add_parser("evaluate", help="score a manifest with trained models")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="test manifest (.jsonl)")
    p.add_argument("--gait", required=True)
    p.add_argument("--face", required=True)
    p.add_argument("--fusion", required=True)
    p.add_argument("--controls", help="control manifest appended to the test pool")
    p.add_argument(
        "--skip-failures",
        action="store_true",
        help="exclude subjects with missing modalities instead of aborting",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="gait-only vs face-only vs fusion under one fold plan")
    _add_common(p)
    p.add_argument("--benchmark", required=True, help="benchmark directory from `simulate`")
    p.add_argument("--face", help="reuse a face checkpoint instead of training one")
    p.add_argument("--controls", help="control manifest appended to every test fold")
    p.add_argument("--k", type=int, dest="evaluation.k", help="fold count")
    p.add_argument(
        "--fold-indices", dest="evaluation.fold_indices", help="comma-separated subset of folds to run"
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="pretty-print a stored artifact")
    p.add_argument("--artifact", required=True, help="checkpoint, direction, metrics, or manifest")
    p.add_argument("--oracle", help="oracle direction for cosine comparison")
    p.set_defaults(func=_cmd_report)

    return parser


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        return args.func(args)
    cfg = load_pipeline_config(args.config)
    _apply_flags(cfg, args)
    for section, stage in _STAGE_SEEDS.items():
        setattr(cfg, section, replace(getattr(cfg, section), seed=derive_seed(cfg.seed, stage)))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    started = time.perf_counter()
    metrics_file, body, artifacts, summary = args.func(args, cfg, out, timings)
    timings["total"] = time.perf_counter() - started
    _write_json(out / metrics_file, {"format_version": _METRICS_VERSION, "config_hash": cfg.hash(), **body})
    record = {
        "format_version": _RUN_RECORD_VERSION,
        "command": args.command,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "config_hash": cfg.hash(),
        "timings_s": timings,
        "artifacts": sorted([metrics_file, *artifacts]),
    }
    _write_json(out / "run.json", record)
    print(summary)
    return 0


def main(argv=None) -> int:
    try:
        return run_command(argv)
    except (PdfuseError, OSError, ValueError, KeyError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
