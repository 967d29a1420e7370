"""Fold protocol, control augmentation, metrics, and the three-way comparison."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfuse import ndnn
from pdfuse.errors import MissingModalityError, ShapeError
from pdfuse.evaluation import (
    FoldPlan,
    augment_test_controls,
    compare_unimodal,
    evaluate,
    kfold_split,
    summarize_predictions,
    train_linear_head,
)
from pdfuse.face_features import FaceBackboneConfig, FaceModel
from pdfuse.fusion import DiagnosisModels, HybridFusionParams, subject_features
from pdfuse.gait_features import (
    GaitClassifier,
    GaitModel,
    GaitModelConfig,
    TrainOptions,
    load_keypoints,
    save_keypoints,
)
from pdfuse.fusion import FusionTrainConfig
from pdfuse.manifest import (
    LABEL_CONTROL,
    LABEL_PD,
    DatasetManifest,
    FaceImageRef,
    SubjectRecord,
    load_manifest,
)


def make_manifest(n_pd: int, n_control: int) -> DatasetManifest:
    records = []
    for i in range(n_pd):
        records.append(
            SubjectRecord(f"pd-{i}", LABEL_PD, f"gait/pd-{i}.kpts", (FaceImageRef("f.img", "neutral"),))
        )
    for i in range(n_control):
        records.append(
            SubjectRecord(
                f"ctl-{i}", LABEL_CONTROL, f"gait/ctl-{i}.kpts", (FaceImageRef("f.img", "neutral"),)
            )
        )
    return DatasetManifest(records=records)


class TestKfoldSplit:
    def test_95_subjects_split_76_19(self):
        """The headline protocol: 95 subjects, 5 folds, 76 train / 19 test."""
        manifest = make_manifest(48, 47)
        plan = kfold_split(manifest, k=5, seed=0)
        assert plan.k == 5
        for fold_i in range(5):
            train, test = plan.split(fold_i)
            assert len(train) == 76
            assert len(test) == 19
            assert not set(train) & set(test)

    def test_each_subject_tested_exactly_once(self):
        manifest = make_manifest(10, 9)
        plan = kfold_split(manifest, k=4, seed=3)
        seen = [sid for fold in plan.folds for sid in fold]
        assert sorted(seen) == sorted(manifest.subject_ids())
        assert len(seen) == len(set(seen))

    def test_same_seed_same_plan(self):
        manifest = make_manifest(12, 11)
        assert kfold_split(manifest, k=5, seed=9).folds == kfold_split(manifest, k=5, seed=9).folds

    def test_different_seed_changes_assignment(self):
        manifest = make_manifest(30, 30)
        a = kfold_split(manifest, k=5, seed=0)
        b = kfold_split(manifest, k=5, seed=1)
        assert a.folds != b.folds
        assert sorted(a.all_ids()) == sorted(b.all_ids())

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=60),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_folds_partition_subjects_with_balanced_sizes(self, n, k, seed):
        manifest = make_manifest(n // 2, n - n // 2)
        plan = kfold_split(manifest, k=k, seed=seed)
        ids = [sid for fold in plan.folds for sid in fold]
        assert sorted(ids) == sorted(manifest.subject_ids())
        sizes = [len(fold) for fold in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_k_below_two_rejected(self):
        with pytest.raises(ShapeError, match="at least 2"):
            kfold_split(make_manifest(3, 3), k=1)

    def test_more_folds_than_subjects_rejected(self):
        with pytest.raises(ShapeError, match="cannot split 4 subjects into 5 folds"):
            kfold_split(make_manifest(2, 2), k=5)

    def test_split_index_out_of_range(self):
        plan = kfold_split(make_manifest(5, 5), k=2, seed=0)
        with pytest.raises(ShapeError, match="fold index 2 out of range"):
            plan.split(2)


class TestAugmentTestControls:
    def test_headline_composition(self):
        """19 PD test subjects plus the 47-control pool gives 66 test subjects."""
        test_fold = make_manifest(19, 0).records
        controls = make_manifest(0, 47).records
        combined, composition = augment_test_controls(test_fold, controls)
        assert len(combined) == 66
        assert composition == {LABEL_PD: 19, LABEL_CONTROL: 47}

    def test_empty_pool_is_identity(self):
        test_fold = make_manifest(3, 2).records
        combined, composition = augment_test_controls(test_fold, [])
        assert combined == test_fold
        assert composition == {LABEL_PD: 3, LABEL_CONTROL: 2}

    def test_controls_appended_after_fold_subjects(self):
        test_fold = make_manifest(2, 0).records
        controls = make_manifest(0, 2).records
        combined, _ = augment_test_controls(test_fold, controls)
        assert [r.subject_id for r in combined] == ["pd-0", "pd-1", "ctl-0", "ctl-1"]

    def test_duplicate_control_rejected(self):
        test_fold = make_manifest(2, 1).records
        with pytest.raises(ShapeError, match="'ctl-0' already present"):
            augment_test_controls(test_fold, [test_fold[-1]])


class TestSummarizePredictions:
    def test_perfect_predictions(self):
        pairs = [("a", LABEL_PD, True), ("b", LABEL_PD, True), ("c", LABEL_CONTROL, False)]
        report = summarize_predictions(pairs)
        assert report.accuracy == 1.0
        assert report.per_class_accuracy == {LABEL_PD: 1.0, LABEL_CONTROL: 1.0}
        assert report.confusion == {
            "pd_as_pd": 2,
            "pd_as_control": 0,
            "control_as_pd": 0,
            "control_as_control": 1,
        }

    def test_mixed_predictions_count_correctly(self):
        pairs = [
            ("a", LABEL_PD, True),
            ("b", LABEL_PD, False),
            ("c", LABEL_PD, False),
            ("d", LABEL_CONTROL, False),
            ("e", LABEL_CONTROL, True),
            ("f", LABEL_CONTROL, False),
        ]
        report = summarize_predictions(pairs)
        assert report.accuracy == pytest.approx(3 / 6)
        assert report.per_class_accuracy[LABEL_PD] == pytest.approx(1 / 3)
        assert report.per_class_accuracy[LABEL_CONTROL] == pytest.approx(2 / 3)
        assert sum(report.confusion.values()) == report.n_subjects == 6

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="no successful predictions"):
            summarize_predictions([])

    def test_failures_carried_into_report(self):
        report = summarize_predictions(
            [("a", LABEL_PD, True)], failures=[{"subject_id": "b", "error": "boom"}]
        )
        assert report.to_dict()["n_failures"] == 1
        assert "skipped subjects" in report.format_table()

    def test_table_lists_accuracy(self):
        table = summarize_predictions([("a", LABEL_PD, True)]).format_table()
        assert "accuracy" in table
        assert "1.0000" in table


GAIT_CFG = GaitModelConfig(channels=(8,), window_length=32, stride=16, embedding_dim=4)
FACE_CFG = FaceBackboneConfig(image_shape=(32, 32, 1), conv_channels=(4,), embedding_dim=3)


@pytest.fixture(scope="module")
def bench_models():
    rng = np.random.default_rng(11)
    gait = GaitClassifier(GaitModel(GAIT_CFG, seed=11), ndnn.Dense(4, 2, rng))
    face = FaceModel(FACE_CFG, seed=12)
    fusion = HybridFusionParams.init(4, 3, seed=13)
    return DiagnosisModels(gait=gait, face=face, fusion=fusion, gait_cfg=GAIT_CFG)


class TestEvaluate:
    def test_scores_every_subject_in_input_order(self, tiny_bench_dir, bench_models):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        report = evaluate(bench_models, manifest.records, manifest.resolve)
        assert report.n_subjects == len(manifest.records)
        assert [p["subject_id"] for p in report.predictions] == manifest.subject_ids()
        assert sum(report.confusion.values()) == report.n_subjects
        assert 0.0 <= report.accuracy <= 1.0

    def test_missing_gait_aborts_by_default(self, tiny_bench_dir, bench_models):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        broken = dataclasses.replace(manifest.records[0], gait_path="gait/nope.kpts")
        with pytest.raises(MissingModalityError, match="gait keypoints missing"):
            evaluate(bench_models, [broken] + manifest.records[1:], manifest.resolve)

    def test_skip_failures_excludes_and_lists(self, tiny_bench_dir, bench_models):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        bad_face = (FaceImageRef("faces/nope.img", "neutral"),)
        broken = dataclasses.replace(manifest.records[1], faces=bad_face)
        records = [manifest.records[0], broken] + manifest.records[2:]
        report = evaluate(bench_models, records, manifest.resolve, skip_failures=True)
        assert report.n_subjects == len(records) - 1
        assert len(report.failures) == 1
        assert report.failures[0]["subject_id"] == broken.subject_id
        assert "face image missing" in report.failures[0]["error"]

    def test_skip_failures_lists_binary_keypoint_file(self, tiny_bench_dir, bench_models, tmp_path):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        binary = tmp_path / "binary.kpts"
        binary.write_bytes(b"\xff\xfe\x00\x01 not keypoints")
        broken = dataclasses.replace(manifest.records[0], gait_path=str(binary))
        records = [broken] + manifest.records[1:]
        report = evaluate(bench_models, records, manifest.resolve, skip_failures=True)
        assert report.n_subjects == len(records) - 1
        assert [f["subject_id"] for f in report.failures] == [broken.subject_id]
        assert "cannot read keypoint file" in report.failures[0]["error"]

    def test_model_mismatch_aborts_even_when_skipping(self, tiny_bench_dir, bench_models):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        wide_fusion = HybridFusionParams.init(5, 3, seed=13)  # the gait extractor gives 4 dims
        models = dataclasses.replace(bench_models, fusion=wide_fusion)
        with pytest.raises(ShapeError, match="gait feature shape"):
            evaluate(models, manifest.records, manifest.resolve, skip_failures=True)

    def test_only_unusable_gait_is_a_missing_modality(self, tiny_bench_dir, bench_models, tmp_path):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        rec = manifest.records[0]
        seq = load_keypoints(manifest.resolve(rec.gait_path))
        short = tmp_path / "short.kpts"
        save_keypoints(dataclasses.replace(seq, frames=seq.frames[: GAIT_CFG.window_length - 1]), short)
        with pytest.raises(MissingModalityError, match="no usable gait windows"):
            subject_features(dataclasses.replace(rec, gait_path=str(short)), bench_models, manifest.resolve)
        with pytest.raises(AttributeError):
            subject_features(rec, dataclasses.replace(bench_models, gait_cfg=None), manifest.resolve)

    def test_no_subjects_rejected(self, bench_models):
        with pytest.raises(ShapeError, match="no subjects"):
            evaluate(bench_models, [], lambda p: p)


class TestTrainLinearHead:
    def test_single_class_rejected(self):
        with pytest.raises(ShapeError, match="both classes"):
            train_linear_head(np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_separates_linear_classes(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(30, 4))
        labels = np.array([0, 1] * 15)
        features[labels == 0, 2] += 6.0
        head = train_linear_head(features, labels)
        logits, _ = head.forward(features)
        assert (logits.argmax(axis=1) == labels).all()


class TestCompareUnimodal:
    FAST_OPTS = TrainOptions(epochs=2, batch_size=4)
    FAST_FUSION = FusionTrainConfig(epochs=2)

    def test_report_structure(self, tiny_bench_dir):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        plan = kfold_split(manifest, k=2, seed=0)
        face_model = FaceModel(FACE_CFG, seed=1)
        report = compare_unimodal(
            manifest,
            plan,
            face_model,
            gait_cfg=GAIT_CFG,
            gait_opts=self.FAST_OPTS,
            fusion_cfg=self.FAST_FUSION,
            fold_indices=[0],
        )
        assert set(report.rows) == {"gait_only", "face_only", "fusion"}
        for row in report.rows.values():
            assert len(row["per_fold"]) == 1
            assert row["mean"] == row["per_fold"][0]
        assert report.fold_test_sizes == [len(plan.folds[0])]
        assert report.n_controls == 0
        assert "gait_only" in report.format_table()

    def test_controls_enlarge_every_test_fold(self, tiny_bench_dir):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        held_out = [r for r in manifest.records if r.label == LABEL_CONTROL][-2:]
        held_ids = {r.subject_id for r in held_out}
        core = DatasetManifest(
            records=[r for r in manifest.records if r.subject_id not in held_ids],
            root=manifest.root,
        )
        plan = kfold_split(core, k=2, seed=0)
        report = compare_unimodal(
            core,
            plan,
            FaceModel(FACE_CFG, seed=1),
            gait_cfg=GAIT_CFG,
            gait_opts=self.FAST_OPTS,
            fusion_cfg=self.FAST_FUSION,
            controls=held_out,
            fold_indices=[0, 1],
        )
        assert report.n_controls == 2
        for fold_i, size in zip(report.fold_indices, report.fold_test_sizes):
            assert size == len(plan.folds[fold_i]) + 2

    def test_unknown_subject_in_plan_rejected(self, tiny_bench_dir):
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        plan = FoldPlan(folds=(("ghost",), tuple(manifest.subject_ids())), seed=0)
        with pytest.raises(ShapeError, match="unknown subject 'ghost'"):
            compare_unimodal(manifest, plan, FaceModel(FACE_CFG, seed=1), gait_cfg=GAIT_CFG)
