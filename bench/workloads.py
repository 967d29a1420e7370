"""The three ways pdfuse is used, as benchmark paths.

* compare: the research path. Train the expression backbone, then compare
  gait-only, face-only and fusion rows on two folds (one operation = one fold).
* screen: the deployment path. Score held-out subjects read from disk with
  ``evaluation.evaluate`` over a manifest and with ``fusion.predict_subject``
  one subject at a time (one operation = one scored subject).
* augment: the expression-synthesis path. Fit the six neutral-to-expression
  directions, then invert each neutral face and decode it along each
  direction (one operation = one augmented subject).

A run times its own workload's path in rounds for at least ``--seconds`` and
counts its operations. Every end-to-end metric is reported on every workload:
the other paths run as companions at a small size, in three slots (before,
halfway through and after the workload's own rounds), so a change made for
one path shows whether it cost another. A compare round, own or companion,
trains the expression backbone before it compares the rows.

The host this was tuned on changes speed under other tenants' load, by up to
1.7x for small operations, in states that last from seconds to a minute. A
timing therefore comes from many samples spread over the run, and the run
reports their median: the median training time, throughput and direction-fit
time over rounds, and the percentiles of every per-subject call of the run
pooled together.
"""

from __future__ import annotations

import contextlib
import functools
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from pdfuse import (
    direction_discovery,
    evaluation,
    face_features,
    fusion,
    gait_features,
    io,
    manifest,
    synthetic_bench,
)
from pdfuse.direction_discovery import FitHyper
from pdfuse.face_features import EXPRESSIONS, FaceBackboneConfig, FaceTrainOptions
from pdfuse.fusion import DiagnosisModels, FusionTrainConfig
from pdfuse.gait_features import GaitModelConfig, TrainOptions
from pdfuse.latent_editing import InversionConfig
from pdfuse.manifest import DatasetManifest
from pdfuse.seeding import derive_seed
from pdfuse.synthetic_bench import BenchmarkSpec

PATHS = ("compare", "screen", "augment")
# Rounds of each path in one companion slot: a screen round is short, so a
# slot runs three to pool enough per-subject latencies.
COMPANION_ROUNDS = {"compare": 1, "screen": 3, "augment": 1}
STRENGTH = 2.0
# With the default step size (0.05) ``invert`` stops early on about one
# neutral face in 200 (5 of 1000 over seeds 0-39): ten rejected Adam steps
# in a row read as convergence, and the latent stays about 0.35 from the
# face's. At 0.02 none of 6500 faces (seeds 0-259) missed the synthesized-face
# check; the worst latent error was 7.3e-3, one face stopped at iteration 100.
INVERSION = InversionConfig(step_size=0.02)
# The l2 of the README's example config and of the direction-oracle
# criterion; with 150 samples per expression every fitted direction has
# cosine above 0.96 with the oracle (0.9618 worst over seeds 0-39).
FIT = FitHyper(l2=0.1)
# Translation and scale applied to keypoints for the invariance check.
MOVE_SCALE, MOVE_SHIFT = 1.7, np.array([123.4, -56.7])
# Accuracy floors for the compare path at the compare workload's size (80
# subjects, 16 per test fold). The gait row collapses to 0.375 on some folds
# and the face row ranged from 0.625 to 1.0 over seeds 0-9, never both low at
# once; fusion held 1.0. The floors leave two or more subjects of margin.
FUSION_FLOOR, UNIMODAL_FLOOR = 0.75, 0.5625


@dataclass(frozen=True)
class Sizes:
    per_class: int  # subjects per class written to disk
    gait_frames: int
    expression_samples: int  # latent samples per expression, for the direction fits
    face_samples: int  # of those, images per expression the face backbone trains on
    compare_per_class: int  # subjects per class given to compare_unimodal
    gait_epochs: int  # gait training epochs inside compare_unimodal
    screen_train_per_class: int  # trains the screening models
    heldout_per_class: int  # the next ones are scored
    augment_faces: int  # neutral faces augmented per round, taken in turn from every subject
    floors: bool  # accuracy floors hold at this compare size
    folds: tuple = (0, 1)  # folds compare_unimodal runs, one operation each


# The companion paths run at the smallest size that still exercises them:
# 10 subjects and 10 gait epochs for compare, 6 faces per augment round.
SIZES = {
    "compare": Sizes(40, 64, 150, 40, 40, 40, 4, 8, 6, True),
    "screen": Sizes(20, 96, 150, 20, 5, 10, 4, 16, 6, False),
    "augment": Sizes(13, 64, 150, 20, 5, 10, 4, 8, 8, False),
}
SMOKE = Sizes(5, 64, 150, 8, 5, 10, 2, 3, 2, False)
# Criterion 7's shape (400 subjects, 96 frames, fold 0), for a traced
# reference run of the compare workload at full scale.
CRITERION7 = Sizes(200, 96, 150, 150, 200, 40, 4, 8, 3, True, (0,))

# (metric, unit, samples, percentile) after setup_s and peak_rss_mb: the
# median of per-round samples, or a percentile of per-subject calls.
END_TO_END = [
    ("face_train_s", "s", "face_train_s", 50),
    ("compare_s", "s", "compare_s", 50),
    ("screen_subjects_per_s", "subjects/s", "screen_subjects_per_s", 50),
    ("score_ms_p50", "ms", "score_ms", 50),
    ("score_ms_p90", "ms", "score_ms", 90),
    ("direction_fit_s", "s", "direction_fit_s", 50),
    ("augment_ms_p50", "ms", "augment_ms", 50),
    ("augment_ms_p90", "ms", "augment_ms", 90),
]


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One run's inputs, models, timing samples, operation counts and checks."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.samples: dict[str, list] = defaultdict(list)  # one value per round, or per call
        self.checks: list[dict] = []
        self.pending: list = []
        self.checked: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.face_model = None
        self.models = None
        self.augmented = 0  # neutral faces augmented so far; the next round starts after them
        self.synthesized: list = []  # verdicts on every augmented face

    # -- bookkeeping ---------------------------------------------------

    def phase(self, name: str):
        return self.tracer.phase(name) if self.tracer is not None else contextlib.nullcontext()

    def check(self, name: str, verdict) -> None:
        ok, detail = verdict
        self.checks.append({"name": name, "passed": bool(ok), "detail": detail})

    def check_all(self, name: str, verdicts) -> None:
        """One verdict for a check repeated over subjects: all must pass."""
        verdicts = list(verdicts)
        bad = [d for ok, d in verdicts if not ok]
        detail = bad[0] if bad else (verdicts[-1][1] if verdicts else "no cases")
        self.check(name, (bool(verdicts) and not bad, f"{len(verdicts) - len(bad)}/{len(verdicts)} pass; {detail}"))

    def defer(self, key: str | None, check, *args) -> None:
        """Queue a check to run after all timing; with a key, only the first round's."""
        if key is None or key not in self.checked:
            self.checked.add(key)
            self.pending.append(functools.partial(check, *args))

    def run_checks(self) -> None:
        while self.pending:
            self.pending.pop(0)()
        if self.synthesized:
            self.check_all("augment.synthesized_faces_invert_to_neutral", self.synthesized)

    def operation(self, count: int, owner: bool, fn, *args):
        """Run ``fn``; on the workload's own path, count ``count`` operations."""
        if not owner:
            return fn(*args)
        self.attempted += count
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += count
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    # -- set-up --------------------------------------------------------

    def set_up(self) -> float:
        """Write the benchmark, load the manifest, the generator and the
        expression set and, for screen, train the three models; returns the
        seconds taken."""
        s = self.sizes
        started = time.perf_counter()
        self.spec = BenchmarkSpec(
            n_per_class=s.per_class,
            gait_frames=s.gait_frames,
            n_expression_samples=s.expression_samples,
            seed=self.seed,
        )
        self.paths = synthetic_bench.build_benchmark(self.spec, self.workdir / "bench")
        self.load_inputs()
        if self.workload == "screen":
            self.train_face(record=False)
        self.prepare(self.workload)
        return time.perf_counter() - started

    def time_set_up(self, index: int) -> float:
        """Time one more set-up, from scratch in a directory of its own, and
        delete it; the run's own inputs and models are left as they are."""
        other = Run(self.workload, self.seed, self.sizes, self.workdir / f"setup{index}")
        seconds = other.set_up()
        shutil.rmtree(other.workdir)
        return seconds

    def load_inputs(self) -> None:
        self.manifest = manifest.load_manifest(self.paths.manifest_path)
        spec = synthetic_bench.load_generator_spec(self.paths.generator_path)
        self.generator = synthetic_bench.ToyGenerator(spec)
        images, labels, _ = synthetic_bench.expression_training_set(self.spec, self.generator)
        keep = np.arange(labels.size) % self.spec.n_expression_samples < self.sizes.face_samples
        self.expr_images, self.expr_labels = images[keep], labels[keep]

    def per_class(self, start: int, stop: int | None) -> list:
        """Records [start:stop] of each class, in manifest order."""
        by_label = defaultdict(list)
        for rec in self.manifest.records:
            by_label[rec.label].append(rec)
        return [rec for recs in by_label.values() for rec in recs[start:stop]]

    def prepare(self, path: str) -> None:
        """What a path needs before its first round."""
        if path == "screen":
            if self.face_model is None:
                self.train_face(record=False)
            self.train_screen_models()
        elif path == "augment":
            self.prepare_augment()

    def round(self, path: str, owner: bool) -> None:
        {"compare": self.compare_round, "screen": self.screen_round, "augment": self.augment_round}[path](owner)

    # -- compare -------------------------------------------------------

    def train_face(self, record: bool = True) -> None:
        opts = FaceTrainOptions(seed=derive_seed(self.seed, "train-face"))
        started = time.perf_counter()
        self.face_model, _ = face_features.train_expression_classifier(
            self.expr_images, self.expr_labels, FaceBackboneConfig(), opts
        )
        if record:
            self.samples["face_train_s"].append(time.perf_counter() - started)

    def compare_round(self, owner: bool) -> None:
        """The research path: train the expression backbone, then compare the
        three rows on two folds."""
        self.train_face()
        subset = DatasetManifest(
            records=self.per_class(0, self.sizes.compare_per_class), root=self.manifest.root
        )
        plan = evaluation.kfold_split(subset, k=5, seed=derive_seed(self.seed, "folds"))
        before = self.face_model.checksum()
        started = time.perf_counter()
        folds = list(self.sizes.folds)
        report = self.operation(
            len(folds), owner, evaluation.compare_unimodal, subset, plan, self.face_model,
            GaitModelConfig(), TrainOptions(epochs=self.sizes.gait_epochs), FusionTrainConfig(), None, folds,
        )
        self.samples["compare_s"].append(time.perf_counter() - started)
        if report is not None:
            self.defer(None, self.check_compare, subset, plan, before, self.face_model, report, owner)

    def check_compare(self, subset, plan, before, face_model, report, owner) -> None:
        folds = list(self.sizes.folds)
        splits = [plan.split(i) for i in folds]
        self.check("compare.fold_plan", checks.check_fold_plan(plan.folds, subset.subject_ids(), folds, splits))
        after = face_model.checksum()
        self.check(
            "compare.face_checksum_unchanged", (after == before, f"face backbone {before[:12]} -> {after[:12]}")
        )
        if self.sizes.floors and owner:
            self.check(
                "compare.accuracy_floors", checks.check_accuracy_floors(report.rows, FUSION_FLOOR, UNIMODAL_FLOOR)
            )

    # -- screen --------------------------------------------------------

    def train_screen_models(self) -> None:
        """Train gait and fusion on the first subjects of each class; hold out the next."""
        cfg = GaitModelConfig()
        resolve = self.manifest.resolve
        n_train = self.sizes.screen_train_per_class
        train = self.per_class(0, n_train)
        heldout = self.per_class(n_train, n_train + self.sizes.heldout_per_class)
        self.heldout_path = self.paths.root / "heldout.jsonl"
        manifest.save_manifest(DatasetManifest(records=heldout, root=self.manifest.root), self.heldout_path)
        subjects = [
            (gait_features.preprocess(gait_features.load_keypoints(resolve(r.gait_path)), cfg), r.label_index)
            for r in train
        ]
        gait_clf, _ = gait_features.train_gait_classifier(
            subjects, cfg, TrainOptions(seed=derive_seed(self.seed, "train-gait"))
        )
        f_gait = np.stack([gait_clf.subject_feature(w) for w, _ in subjects])
        f_face = np.stack(
            [
                face_features.extract_face_features(
                    np.stack([io.load_image(resolve(f.path)).pixels for f in r.faces]), self.face_model
                )
                for r in train
            ]
        )
        params, _ = fusion.train_fusion(
            f_gait,
            f_face,
            np.array([label for _, label in subjects]),
            FusionTrainConfig(seed=derive_seed(self.seed, "train-fusion")),
        )
        self.models = DiagnosisModels(gait=gait_clf, face=self.face_model, fusion=params, gait_cfg=cfg)

    def screen_round(self, owner: bool) -> None:
        """The deployment path: score the held-out manifest, then each subject alone."""
        t0 = time.perf_counter()
        held = manifest.load_manifest(self.heldout_path)
        report = self.operation(
            len(held.records), owner, evaluation.evaluate, self.models, held.records, held.resolve
        )
        if report is not None:
            self.samples["screen_subjects_per_s"].append(len(held.records) / (time.perf_counter() - t0))
        single = {}
        for rec in held.records:
            t0 = time.perf_counter()
            pred = self.operation(1, owner, fusion.predict_subject, rec, self.models, held.resolve)
            self.samples["score_ms"].append(1e3 * (time.perf_counter() - t0))
            if pred is not None:
                single[rec.subject_id] = pred
        self.defer("screen", self.check_screen, held, report, single)

    def check_screen(self, held, report, single) -> None:
        models, cfg = self.models, self.models.gait_cfg
        if report is not None:
            evaluated = {p["subject_id"]: p["predicted"] == "PD" for p in report.predictions}
            self.check(
                "screen.evaluate_matches_single",
                checks.check_same_predictions(evaluated, {s: p.is_pd for s, p in single.items()}),
            )
        fused, windows, gait_rows, face_rows, invariance = [], [], [], [], []
        for rec in held.records:
            if rec.subject_id not in single:
                continue
            f_gait, f_face = fusion.subject_features(rec, models, held.resolve)
            fused.append(
                checks.check_fused(single[rec.subject_id].logits, checks.folded_logits(models.fusion, f_gait, f_face))
            )
            path = held.resolve(rec.gait_path)
            frames, rate, sid = checks.parse_keypoints(path)
            program = gait_features.preprocess(gait_features.load_keypoints(path), cfg)
            windows.append(
                checks.check_windows(
                    program, checks.reference_windows(frames, cfg.window_length, cfg.stride, cfg.min_confidence)
                )
            )
            gait_rows.append(checks.check_rows(*_embed_rows(models.gait.model.forward, program), f_gait))
            images = np.stack([io.load_image(held.resolve(f.path)).pixels for f in rec.faces])
            face_rows.append(checks.check_rows(*_embed_rows(_face_embed(models.face), images), f_face))
            moved = frames.copy()
            moved[:, :, :2] = MOVE_SCALE * moved[:, :, :2] + MOVE_SHIFT
            moved_path = self.workdir / "moved.kpts"
            checks.write_keypoints(moved_path, moved, rate, sid)
            moved_windows = gait_features.preprocess(gait_features.load_keypoints(moved_path), cfg)
            invariance.append(checks.check_invariance(f_gait, models.gait.subject_feature(moved_windows)))
        self.check_all("screen.fused_logits_folded_form", fused)
        self.check_all("screen.windows_match_independent_parse", windows)
        self.check_all("screen.gait_features_mean_of_single_windows", gait_rows)
        self.check_all("screen.face_features_mean_of_single_images", face_rows)
        self.check_all("screen.gait_invariant_to_translate_scale", invariance)

    # -- augment -------------------------------------------------------

    def prepare_augment(self) -> None:
        root = self.paths.root
        self.latents = {name: np.load(root / "latent_samples" / f"{name}.npy") for name in EXPRESSIONS}
        self.pinv = np.linalg.pinv(self.generator.matrix)
        neutral = []
        for rec in self.manifest.records:
            ref = next(f for f in rec.faces if f.expression == "neutral")
            neutral.append(io.load_image(self.manifest.resolve(ref.path)))
        self.neutral_faces = neutral

    def augment_round(self, owner: bool) -> None:
        """The synthesis path: fit six directions, then augment the next
        ``augment_faces`` neutral faces, every subject's in turn."""
        t0 = time.perf_counter()
        directions = {
            name: direction_discovery.fit_direction(
                self.latents["neutral"], self.latents[name], "neutral", name, "standard", FIT
            )
            for name in EXPRESSIONS[1:]
        }
        self.samples["direction_fit_s"].append(time.perf_counter() - t0)
        n = len(self.neutral_faces)
        faces = [self.neutral_faces[(self.augmented + i) % n] for i in range(self.sizes.augment_faces)]
        self.augmented += len(faces)
        outputs = []
        for face in faces:
            t0 = time.perf_counter()
            outputs.append(
                self.operation(
                    1, owner, face_features.augment_with_synthesized,
                    face, directions, self.generator, STRENGTH, None, INVERSION,
                )
            )
            self.samples["augment_ms"].append(1e3 * (time.perf_counter() - t0))
        self.defer("augment", self.check_directions, directions)
        self.defer(None, self.check_augment, directions, faces, outputs)

    def check_directions(self, directions) -> None:
        oracle_dir = self.paths.root / "oracle_directions"
        self.check_all(
            "augment.direction_cosine_with_oracle",
            [
                checks.check_direction(d.values, checks.load_direction_values(oracle_dir / f"neutral__{name}.json"))
                for name, d in directions.items()
            ],
        )

    def check_augment(self, directions, faces, outputs) -> None:
        """Every augmented face of every round; one verdict at the end of the run."""
        self.synthesized.extend(
            checks.check_synthesized(out, directions, STRENGTH, checks.oracle_latent(face.pixels, self.pinv), self.pinv)
            for face, out in zip(faces, outputs)
            if out is not None
        )

    # -- results -------------------------------------------------------

    def end_to_end(self, setup_s: float, peak_mb: float) -> dict:
        """Every end-to-end metric; one whose path did not run is left out."""
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB")}
        for name, unit, key, q in END_TO_END:
            if self.samples[key]:
                metrics[name] = (percentile(self.samples[key], q), unit)
        return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


def _layout(x):
    """(n, T, V, C) windows or (n, H, W, C) images -> channels-first network layout."""
    return np.ascontiguousarray(np.asarray(x).transpose(0, 3, 1, 2))


def _face_embed(model):
    def embed(x):
        _, emb, cache = model.forward(x)
        return emb, cache

    return embed


def _embed_rows(forward, items):
    """Embeddings of ``items`` as one batch and one item at a time."""
    batched, _ = forward(_layout(items))
    single = np.stack([forward(_layout(items[i : i + 1]))[0][0] for i in range(len(items))])
    return batched, single


def run_workload(run: Run, seconds: float) -> tuple[float, float]:
    """Set up, run the workload's own rounds with companion slots around them, check.

    The workload's rounds fill ``seconds`` in two halves; the first half runs
    at least one round, so one long round may fill both. A companion slot
    runs before, between and after the halves, and each slot times one more
    set-up, so that set-up is timed at four moments of the run. Returns
    (median set-up seconds, seconds spent in the workload's own rounds).
    """
    w = run.workload
    with run.phase("setup"):
        setup_times = run.samples["setup_s"] = [run.set_up()]

    others = [p for p in PATHS if p != w]
    prepared = {w}

    def slot():
        with run.phase("companions"):
            for path in others:
                if path not in prepared:
                    run.prepare(path)
                    prepared.add(path)
                for _ in range(COMPANION_ROUNDS[path]):
                    run.round(path, owner=False)
        with run.phase("setup"):
            setup_times.append(run.time_set_up(len(setup_times)))

    owned_s = 0.0
    slot()
    for share in (0.5, 1.0):
        with run.phase("timed"):
            while owned_s == 0.0 or owned_s < share * seconds:
                t0 = time.perf_counter()
                run.round(w, owner=True)
                owned_s += time.perf_counter() - t0
        slot()
    run.run_checks()
    return statistics.median(setup_times), owned_s
