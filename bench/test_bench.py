"""Fast tests of the benchmark itself.

Each output check must reject a deliberately wrong output, and a smoke run at
the smallest size must complete every workload, traced and untraced. Run from
the repository root:

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from pdfuse import evaluation, face_features, fusion, gait_features  # noqa: E402
from pdfuse.direction_discovery import DirectionVector  # noqa: E402
from pdfuse.face_features import EXPRESSIONS, FaceBackboneConfig, FaceModel  # noqa: E402
from pdfuse.fusion import HybridFusionParams  # noqa: E402
from pdfuse.gait_features import GaitModel, GaitModelConfig, SkeletonSequence  # noqa: E402
from pdfuse.latent_editing import LatentVector  # noqa: E402
from pdfuse.manifest import DatasetManifest, FaceImageRef, SubjectRecord  # noqa: E402
from pdfuse.synthetic_bench import GaitSimSpec, ToyGeneratorSpec, make_toy_generator, simulate_gait  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bctv(windows):
    return np.ascontiguousarray(windows.transpose(0, 3, 1, 2))


@pytest.fixture(scope="module")
def keypoint_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("kpts") / "gait.kpts"
    gait_features.save_keypoints(simulate_gait(GaitSimSpec(group="parkinsonian", num_frames=128, seed=3)), path)
    return path


def test_fused_logits_reject_an_offset_of_1e_6():
    rng = np.random.default_rng(0)
    params = HybridFusionParams.init(5, 4, seed=1)
    params.gait_score_b, params.face_score_b = 0.3, -0.2
    params.gait_class_b[:] = [0.1, -0.4]
    f_gait, f_face = rng.normal(size=5), rng.normal(size=4)
    logits = fusion.hybrid_fuse(f_gait, f_face, params)
    reference = checks.folded_logits(params, f_gait, f_face)
    assert checks.check_fused(logits, reference)[0]
    assert not checks.check_fused(logits + np.array([1e-6, 0.0]), reference)[0]


def test_windows_reject_a_one_frame_shift(keypoint_file):
    cfg = GaitModelConfig()
    frames, rate, sid = checks.parse_keypoints(keypoint_file)
    reference = checks.reference_windows(frames, cfg.window_length, cfg.stride, cfg.min_confidence)
    program = gait_features.preprocess(gait_features.load_keypoints(keypoint_file), cfg)
    assert program.shape == reference.shape == (3, 64, 17, 3)
    assert checks.check_windows(program, reference)[0]
    late = gait_features.preprocess(SkeletonSequence(frames[1:], rate, sid), cfg)
    assert not checks.check_windows(late[:1], reference[:1])[0]


def test_gait_invariance_rejects_an_unnormalized_copy(keypoint_file, tmp_path):
    cfg = GaitModelConfig()
    model = GaitModel(cfg, seed=0)
    frames, rate, sid = checks.parse_keypoints(keypoint_file)
    moved = frames.copy()
    moved[:, :, :2] = 1.7 * moved[:, :, :2] + np.array([123.4, -56.7])
    checks.write_keypoints(tmp_path / "moved.kpts", moved, rate, sid)
    feature = gait_features.gait_forward(gait_features.preprocess(gait_features.load_keypoints(keypoint_file), cfg), model)
    moved_windows = gait_features.preprocess(gait_features.load_keypoints(tmp_path / "moved.kpts"), cfg)
    assert checks.check_invariance(feature, gait_features.gait_forward(moved_windows, model))[0]
    unscaled = moved_windows.copy()
    unscaled[..., :2] *= 1.7
    assert not checks.check_invariance(feature, gait_features.gait_forward(unscaled, model))[0]


def test_embedding_rows_reject_mixed_batch_rows(keypoint_file):
    cfg = GaitModelConfig()
    model = GaitModel(cfg, seed=0)
    windows = gait_features.preprocess(gait_features.load_keypoints(keypoint_file), cfg)
    batched, _ = model.forward(_bctv(windows))
    single = np.stack([model.forward(_bctv(windows[i : i + 1]))[0][0] for i in range(len(windows))])
    feature = gait_features.gait_forward(windows, model)
    assert checks.check_rows(batched, single, feature)[0]
    assert not checks.check_rows(batched[[1, 0, 2]], single, feature)[0]
    # Mixing rows by a doubly stochastic matrix keeps the mean; the rows still differ.
    blended = 0.9 * batched + 0.1 * batched[[1, 2, 0]]
    assert not checks.check_rows(blended, single, blended.mean(axis=0))[0]

    face = FaceModel(FaceBackboneConfig(), seed=0)
    images = np.random.default_rng(2).uniform(size=(3, 32, 32, 1))
    rows = face.embeddings(images)
    single = np.stack([face.embeddings(images[i : i + 1])[0] for i in range(3)])
    assert checks.check_rows(rows, single, face_features.extract_face_features(images, face))[0]
    assert not checks.check_rows(rows[[2, 1, 0]], single, rows.mean(axis=0))[0]


@pytest.fixture(scope="module")
def toy_world():
    generator, _ = make_toy_generator(ToyGeneratorSpec(seed=5))
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(generator.latent_dim, 6)))
    directions = {
        name: DirectionVector(basis[:, i], "neutral", name) for i, name in enumerate(EXPRESSIONS[1:])
    }
    latent = 0.1 * rng.normal(size=generator.latent_dim)
    return generator, np.linalg.pinv(generator.matrix), directions, latent


def test_synthesized_faces_reject_a_latent_moved_by_0_05(toy_world):
    generator, pinv, directions, latent = toy_world
    neutral = generator.forward(LatentVector(latent))
    out = face_features.augment_with_synthesized(neutral, directions, generator, 2.0)
    reference = checks.oracle_latent(neutral.pixels, pinv)
    assert checks.check_synthesized(out, directions, 2.0, reference, pinv)[0]
    nudge = np.zeros_like(latent)
    nudge[7] = 0.05
    moved_image = generator.forward(LatentVector(latent + 2.0 * directions["fear"].values + nudge))
    wrong = [(moved_image, name) if name == "fear" else (img, name) for img, name in out]
    assert not checks.check_synthesized(wrong, directions, 2.0, reference, pinv)[0]


def test_direction_rejects_a_flipped_sign(toy_world):
    _, _, directions, _ = toy_world
    oracle = directions["happiness"].values
    noisy = oracle + 0.05 * np.random.default_rng(1).normal(size=oracle.size) / np.sqrt(oracle.size)
    assert checks.check_direction(noisy, oracle)[0]
    assert not checks.check_direction(-noisy, oracle)[0]


def test_fold_plan_rejects_a_subject_in_two_folds():
    records = [
        SubjectRecord(f"s{i}", "PD" if i % 2 else "non-PD", "g.kpts", (FaceImageRef("f.img", "neutral"),))
        for i in range(12)
    ]
    manifest = DatasetManifest(records=records)
    plan = evaluation.kfold_split(manifest, k=5, seed=0)
    ids = manifest.subject_ids()
    assert checks.check_fold_plan(plan.folds, ids, [0, 1], [plan.split(0), plan.split(1)])[0]
    folds = [list(f) for f in plan.folds]
    folds[1][0] = folds[0][0]
    assert not checks.check_fold_plan(folds, ids, [], [])[0]


def test_accuracy_floors_allow_one_collapsed_row_only():
    def rows(gait, face, fused):
        return {k: {"per_fold": v, "mean": float(np.mean(v))} for k, v in
                (("gait_only", gait), ("face_only", face), ("fusion", fused))}

    assert checks.check_accuracy_floors(rows([0.375, 1.0], [0.8125, 0.75], [0.9375, 1.0]), 0.75, 0.5625)[0]
    assert not checks.check_accuracy_floors(rows([1.0, 1.0], [1.0, 1.0], [0.5, 1.0]), 0.75, 0.5625)[0]
    assert not checks.check_accuracy_floors(rows([0.5, 1.0], [0.5, 1.0], [0.875, 1.0]), 0.75, 0.5625)[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_completes(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "compare", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
