"""Acceptance gate for the whole package, one verdict line per criterion.

Nine checks: fold protocol, direction-discovery oracle agreement, inversion
oracle agreement, edit monotonicity, gradient correctness, structural
invariants, end-to-end benchmark accuracy, the hand-computed fusion fixture,
and command-line determinism. Every test prints exactly one PASS/FAIL line
through the capture-proof stream so any run log shows all nine verdicts.
"""

import time

import numpy as np

from pdfuse import ndnn
from pdfuse.cli import main as cli_main
from pdfuse.direction_discovery import FitHyper, cosine, fit_direction, fit_logistic
from pdfuse.evaluation import augment_test_controls, compare_unimodal, kfold_split
from pdfuse.face_features import (
    FaceBackboneConfig,
    FaceModel,
    FaceTrainOptions,
    train_expression_classifier,
)
from pdfuse.fusion import (
    FusionTrainConfig,
    HybridFusionParams,
    _fuse,
    _fusion_layers,
    hybrid_fuse,
    train_fusion,
)
from pdfuse.gait_features import (
    NUM_JOINTS,
    GaitClassifier,
    GaitModel,
    GaitModelConfig,
    SkeletonGraph,
    SkeletonSequence,
    build_adjacency,
    gait_forward,
    preprocess,
    row_normalized,
    windows_to_bctv,
)
from pdfuse.latent_editing import InversionConfig, LatentVector, edit_latent, invert
from pdfuse.manifest import (
    LABEL_CONTROL,
    LABEL_PD,
    DatasetManifest,
    FaceImageRef,
    SubjectRecord,
    load_manifest,
)
from pdfuse.seeding import derive_seed
from pdfuse.synthetic_bench import (
    BenchmarkSpec,
    GaitSimSpec,
    ToyGenerator,
    ToyGeneratorSpec,
    build_benchmark,
    expression_training_set,
    load_generator_spec,
    make_toy_generator,
    sample_latent_clusters,
    simulate_gait,
)



def _subjects(prefix: str, label: str, n: int) -> list[SubjectRecord]:
    face = (FaceImageRef("f.img", "neutral"),)
    return [SubjectRecord(f"{prefix}-{i}", label, f"g/{prefix}-{i}.kpts", face) for i in range(n)]


def test_criterion_1_fold_protocol(acceptance_log):
    started = time.perf_counter()
    manifest = DatasetManifest(records=_subjects("pd", LABEL_PD, 95))
    plan = kfold_split(manifest, k=5, seed=0)
    sizes_ok = all(
        (len(plan.split(i)[0]), len(plan.split(i)[1])) == (76, 19) for i in range(5)
    )
    fold0 = [manifest.by_id(sid) for sid in plan.folds[0]]
    combined, composition = augment_test_controls(fold0, _subjects("ctl", LABEL_CONTROL, 47))
    elapsed = time.perf_counter() - started
    passed = (
        sizes_ok
        and len(combined) == 66
        and composition == {LABEL_PD: 19, LABEL_CONTROL: 47}
        and elapsed < 1.0
    )
    acceptance_log(
        1,
        "fold-protocol",
        passed,
        f"5 folds of 76/19, augmented test fold {len(combined)} "
        f"({composition[LABEL_PD]} PD + {composition[LABEL_CONTROL]} controls), {elapsed:.3f} s",
    )


def test_criterion_2_direction_oracle(acceptance_log):
    cosines, per_seed_ok = [], True
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mean_a = rng.normal(size=64)
        gap = rng.normal(size=64)
        mean_b = mean_a + 2.0 * gap / np.linalg.norm(gap)
        clusters = sample_latent_clusters(mean_a, mean_b, sigma=0.3, n_per_class=200, seed=seed)
        started = time.perf_counter()
        direction = fit_direction(
            clusters.latents_a, clusters.latents_b, "A", "B", "standard", FitHyper(l2=0.1, seed=seed)
        )
        per_seed_ok &= time.perf_counter() - started < 10.0
        cosines.append(cosine(direction.values, clusters.oracle.values))

    rng = np.random.default_rng(0)
    mean_a = rng.normal(size=64)
    gap = rng.normal(size=64)
    clusters = sample_latent_clusters(
        mean_a, mean_a + 2.0 * gap / np.linalg.norm(gap), sigma=0.3, n_per_class=200, seed=0
    )
    faithful = fit_logistic(
        clusters.latents_a, clusters.latents_b, "paper_faithful", FitHyper(seed=0)
    )
    trace = faithful.loss_history
    faithful_ok = bool(np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 1e-12))

    passed = min(cosines) >= 0.95 and per_seed_ok and faithful_ok
    acceptance_log(
        2,
        "direction-oracle",
        passed,
        f"standard min cosine {min(cosines):.4f} over 6 seeds; alternative objective "
        f"loss {trace[0]:.2f}->{trace[-1]:.4f} finite and non-increasing, "
        f"converged={faithful.converged}",
    )


def test_criterion_3_inversion_oracle(acceptance_log):
    generator, oracle = make_toy_generator(ToyGeneratorSpec())
    rng = np.random.default_rng(42)
    image = generator.forward(LatentVector(rng.normal(size=64)))
    started = time.perf_counter()
    result = invert(image, generator, config=InversionConfig(max_iterations=2000))
    elapsed = time.perf_counter() - started
    mse = float(np.mean((generator.forward(result.latent).pixels - image.pixels) ** 2))
    latent_err = float(np.linalg.norm(result.latent.values - oracle(image).values))
    passed = mse <= 1e-4 and latent_err <= 1e-2 and elapsed < 30.0
    acceptance_log(
        3,
        "inversion-oracle",
        passed,
        f"per-pixel mse {mse:.2e}, latent error {latent_err:.2e}, "
        f"{result.iterations} iterations in {elapsed:.2f} s",
    )


def test_criterion_4_edit_monotonicity(acceptance_log):
    generator, _ = make_toy_generator(ToyGeneratorSpec())
    clusters = sample_latent_clusters(
        np.zeros(64), 2.0 * np.eye(64)[0], sigma=0.3, n_per_class=150,
        seed=5, source="neutral", target="happiness",
    )

    def decode(values: np.ndarray) -> np.ndarray:
        return generator.forward(LatentVector(values)).pixels.ravel()

    flat_a = np.stack([decode(z) for z in clusters.latents_a])
    flat_b = np.stack([decode(z) for z in clusters.latents_b])
    probe = fit_logistic(flat_a, flat_b, "standard", FitHyper(seed=5))

    strengths = np.arange(0.0, 3.01, 0.5)
    rng = np.random.default_rng(6)
    monotone = 0
    for _ in range(100):
        base = LatentVector(clusters.latents_a.mean(axis=0) + 0.3 * rng.normal(size=64))
        probs = []
        for strength in strengths:
            x = decode(edit_latent(base, clusters.oracle, float(strength)).values)
            probs.append(float(1.0 / (1.0 + np.exp(-(probe.a @ x + probe.b)))))
        monotone += bool(np.all(np.diff(probs) >= -1e-12))
    passed = monotone >= 95
    acceptance_log(
        4,
        "edit-monotonicity",
        passed,
        f"target-class probability non-decreasing for {monotone}/100 base latents "
        f"over strengths 0..3",
    )


def test_criterion_5_gradient_correctness(acceptance_log):
    started = time.perf_counter()
    cfg = GaitModelConfig(channels=(8, 8), window_length=16, stride=8, embedding_dim=6)
    model = GaitModel(cfg, seed=6)
    head = ndnn.Dense(cfg.embedding_dim, 2, np.random.default_rng(6))
    layers = model.layers() + [head]
    x = windows_to_bctv(np.random.default_rng(7).normal(size=(2, 16, NUM_JOINTS, 3)))
    labels = np.array([0, 1])

    def gait_loss():
        emb, _ = model.forward(x)
        logits, _ = head.forward(emb)
        return ndnn.cross_entropy(logits, labels)[0]

    ndnn.zero_all_grads(layers)
    emb, cache = model.forward(x)
    logits, head_cache = head.forward(emb)
    _, grad_logits = ndnn.cross_entropy(logits, labels)
    model.backward(head.backward(grad_logits, head_cache), cache)
    worst_gait = 0.0
    for layer in layers:
        for name, value in layer.params.items():
            fd = ndnn.finite_difference_gradient(gait_loss, value, h=1e-5)
            worst_gait = max(worst_gait, ndnn.relative_error(layer.grads[name], fd))

    rng = np.random.default_rng(3)
    f_gait, f_face = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    fusion_labels = np.array([0, 1, 0, 1, 1, 0])
    fusion_params = HybridFusionParams.init(3, 4, seed=4)
    fusion_layers = _fusion_layers(fusion_params)
    ndnn.zero_all_grads(fusion_layers)
    fused, fusion_backward = _fuse(fusion_layers, f_gait, f_face)
    fusion_backward(ndnn.cross_entropy(fused, fusion_labels)[1])

    def fusion_loss():
        return ndnn.cross_entropy(_fuse(fusion_layers, f_gait, f_face)[0], fusion_labels)[0]

    worst_fusion = 0.0
    fusion_checked = 0
    for layer in fusion_layers:
        for name, value in layer.params.items():
            fd = ndnn.finite_difference_gradient(fusion_loss, value)
            worst_fusion = max(worst_fusion, ndnn.relative_error(layer.grads[name], fd))
            fusion_checked += value.size
    all_fusion = fusion_checked == sum(a.size for a in fusion_params.arrays().values())

    elapsed = time.perf_counter() - started
    passed = worst_gait <= 1e-4 and worst_fusion <= 1e-4 and all_fusion and elapsed < 60.0
    acceptance_log(
        5,
        "gradient-correctness",
        passed,
        f"worst relative error: graph blocks {worst_gait:.2e}, fusion head "
        f"{worst_fusion:.2e} over {fusion_checked} parameters, {elapsed:.1f} s",
    )


def test_criterion_6_structural_invariants(acceptance_log):
    checks = {}

    graph = build_adjacency("distance")
    checks["adjacency-symmetry"] = bool(np.array_equal(graph.adjacency, graph.adjacency.T))
    rows = row_normalized(graph.adjacency + np.eye(NUM_JOINTS)).sum(axis=1)
    checks["row-normalization"] = bool(np.allclose(rows, 1.0, atol=1e-9))

    cfg = GaitModelConfig(window_length=32, stride=16)
    seq = simulate_gait(GaitSimSpec(num_frames=80, seed=0))
    moved = seq.frames.copy()
    moved[:, :, 0] += 50.0
    moved[:, :, 1] -= 20.0
    moved[:, :, :2] *= 2.0
    transformed = SkeletonSequence(frames=moved, frame_rate=seq.frame_rate, subject_id=seq.subject_id)
    checks["preprocess-invariance"] = bool(
        np.allclose(preprocess(transformed, cfg), preprocess(seq, cfg), atol=1e-9)
    )

    tiny = GaitModelConfig(channels=(8, 8), window_length=16, stride=8, embedding_dim=6)
    perm = np.random.default_rng(3).permutation(NUM_JOINTS)
    permuted_graph = SkeletonGraph(
        strategy=graph.strategy,
        partitions=graph.partitions[:, perm][:, :, perm],
        adjacency=graph.adjacency[perm][:, perm],
    )
    windows = np.random.default_rng(5).normal(size=(2, 16, NUM_JOINTS, 3))
    base = gait_forward(windows, GaitModel(tiny, graph=graph, seed=4))
    permuted = gait_forward(windows[:, :, perm, :], GaitModel(tiny, graph=permuted_graph, seed=4))
    checks["permutation-equivariance"] = bool(np.allclose(permuted, base, atol=1e-9))

    gait_clf = GaitClassifier(GaitModel(tiny, seed=1), ndnn.Dense(6, 2, np.random.default_rng(1)))
    face_model = FaceModel(
        FaceBackboneConfig(image_shape=(8, 8, 1), conv_channels=(4,), embedding_dim=2), seed=2
    )
    gait_before, face_before = gait_clf.checksum(), face_model.checksum()
    rng = np.random.default_rng(8)
    train_fusion(
        rng.normal(size=(10, 6)), rng.normal(size=(10, 2)), np.array([0, 1] * 5),
        FusionTrainConfig(epochs=3),
    )
    checks["frozen-extractors"] = (
        gait_clf.checksum() == gait_before and face_model.checksum() == face_before
    )

    probs = ndnn.softmax(np.random.default_rng(9).normal(size=(64, 7)) * 10.0)
    checks["softmax-normalization"] = bool(np.allclose(probs.sum(axis=1), 1.0, atol=1e-9))

    failed = [name for name, ok in checks.items() if not ok]
    acceptance_log(
        6,
        "structural-invariants",
        not failed,
        f"{len(checks)} checks: " + (", ".join(checks) if not failed else "FAILED " + ", ".join(failed)),
    )


def test_criterion_7_end_to_end_benchmark(tmp_path, acceptance_log):
    started = time.perf_counter()
    spec = BenchmarkSpec(n_per_class=200, gait_frames=96, seed=0)
    paths = build_benchmark(spec, tmp_path / "bench")
    manifest = load_manifest(paths.manifest_path)

    generator = ToyGenerator(load_generator_spec(paths.generator_path))
    images, labels, _ = expression_training_set(spec, generator)
    face_model, _ = train_expression_classifier(
        images, labels, FaceBackboneConfig(), FaceTrainOptions(seed=derive_seed(0, "train-face"))
    )

    plan = kfold_split(manifest, k=5, seed=derive_seed(0, "folds"))
    comparison = compare_unimodal(manifest, plan, face_model, fold_indices=[0])
    elapsed = time.perf_counter() - started

    acc = {name: row["mean"] for name, row in comparison.rows.items()}
    best_unimodal = max(acc["gait_only"], acc["face_only"])
    passed = (
        acc["fusion"] >= best_unimodal - 0.02
        and acc["fusion"] >= 0.90
        and acc["gait_only"] >= 0.85
        and acc["face_only"] >= 0.85
        and elapsed < 900.0
    )
    acceptance_log(
        7,
        "end-to-end-benchmark",
        passed,
        f"400 subjects: gait {acc['gait_only']:.4f}, face {acc['face_only']:.4f}, "
        f"fusion {acc['fusion']:.4f}, {elapsed:.0f} s",
    )


def test_criterion_8_hand_computed_fusion(acceptance_log):
    params = HybridFusionParams(
        gait_score_w=np.array([1.0, 0.0]),
        gait_score_b=0.0,
        gait_class_w=np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]),
        gait_class_b=np.array([0.5, 0.0]),
        face_score_w=np.array([0.0, 1.0]),
        face_score_b=0.0,
        face_class_w=np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 1.5]]),
        face_class_b=np.array([0.0, 0.0]),
    )
    logits = hybrid_fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), params)
    expected = np.array([4.5, 0.5])  # worked out by hand from the widened features
    error = float(np.max(np.abs(logits - expected)))
    acceptance_log(
        8,
        "hand-computed-fusion",
        error <= 1e-9,
        f"logits ({logits[0]:.10g}, {logits[1]:.10g}) vs manual (4.5, 0.5), "
        f"max abs error {error:.1e}",
    )


CONFIG_TEXT = """
benchmark:
  n_per_class: 2
  n_expression_samples: 6
  gait_frames: 64
gait_model:
  channels: [8]
  window_length: 32
  stride: 16
  embedding_dim: 4
gait_train:
  epochs: 2
face_model:
  conv_channels: [2]
  embedding_dim: 4
face_train:
  epochs: 2
fusion_train:
  epochs: 5
"""


def test_criterion_9_cli_determinism(tmp_path, acceptance_log):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG_TEXT)

    def run_chain(root):
        def ok(argv):
            assert cli_main(argv) == 0, f"command failed: {argv}"

        sim, face, gait, fusion, ev = (root / n for n in ("sim", "face", "gait", "fusion", "ev"))
        ok(["simulate", "--config", str(config), "--out", str(sim)])
        bench = sim / "benchmark"
        manifest = str(bench / "manifest.jsonl")
        ok(["train-face", "--config", str(config), "--benchmark", str(bench), "--out", str(face)])
        ok(["train-gait", "--config", str(config), "--manifest", manifest, "--out", str(gait)])
        ok(
            [
                "train-fusion", "--config", str(config), "--manifest", manifest,
                "--gait", str(gait / "gait.ckpt"), "--face", str(face / "face.ckpt"),
                "--out", str(fusion),
            ]
        )
        evaluate = [
            "evaluate", "--config", str(config), "--manifest", manifest,
            "--gait", str(gait / "gait.ckpt"), "--face", str(face / "face.ckpt"),
            "--fusion", str(fusion / "fusion.ckpt"),
        ]
        ok(evaluate + ["--out", str(ev)])
        return {
            "simulate": sim / "simulate_metrics.json",
            "train-face": face / "face_metrics.json",
            "train-gait": gait / "gait_metrics.json",
            "train-fusion": fusion / "fusion_metrics.json",
            "evaluate": ev / "metrics.json",
        }

    first = run_chain(tmp_path / "r1")
    second = run_chain(tmp_path / "r2")
    identical = [name for name in first if first[name].read_bytes() == second[name].read_bytes()]

    passed = len(identical) == len(first)
    acceptance_log(
        9,
        "cli-determinism",
        passed,
        f"{len(identical)}/{len(first)} metric files byte-identical across reruns",
    )
