"""Gait pipeline: keypoint files, graph structure, preprocessing, model.

The equivariance and gradient tests run on deliberately tiny configs (two
blocks, eight channels) so the whole file stays fast while still exercising
every layer kind the real model uses.
"""

import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse import ndnn
from pdfuse.errors import ConfigError, EmptyWindowsError, FormatError, ShapeError
from pdfuse.gait_features import (
    COCO_EDGES,
    NUM_JOINTS,
    BranchSpec,
    GaitClassifier,
    GaitModel,
    GaitModelConfig,
    SkeletonGraph,
    SkeletonSequence,
    TrainOptions,
    build_adjacency,
    classifier_from_arrays,
    gait_forward,
    load_keypoints,
    predict_is_pd,
    preprocess,
    row_normalized,
    save_keypoints,
    train_gait_classifier,
    window_count,
    windows_to_bctv,
)
from pdfuse.io import from_dict
from pdfuse.synthetic_bench import GaitSimSpec, simulate_gait

TINY_CFG = GaitModelConfig(channels=(8, 8), window_length=16, stride=8, embedding_dim=6)


def walking_sequence(num_frames=80, group="control", seed=0):
    return simulate_gait(GaitSimSpec(group=group, num_frames=num_frames, seed=seed))


class TestKeypointFiles:
    def test_round_trip(self, tmp_path):
        seq = walking_sequence(40)
        path = tmp_path / "subject.kpts"
        save_keypoints(seq, path, meta={"note": "round trip"})
        loaded = load_keypoints(path)
        npt.assert_array_equal(loaded.frames, seq.frames)
        assert loaded.subject_id == seq.subject_id
        assert loaded.frame_rate == seq.frame_rate

    def test_wrong_joint_count_names_frame(self, tmp_path):
        seq = walking_sequence(5)
        path = tmp_path / "subject.kpts"
        save_keypoints(seq, path)
        lines = path.read_text().splitlines()
        # Drop one joint (3 values) from the second data frame. Line 0 is
        # the format-version comment and line 1 the header, so frame 1
        # lives on line 3.
        lines[3] = " ".join(lines[3].split()[: 16 * 3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="frame 1 has 48 values"):
            load_keypoints(path)

    def test_out_of_range_confidence_rejected(self, tmp_path):
        seq = walking_sequence(5)
        path = tmp_path / "bad_conf.kpts"
        save_keypoints(seq, path)
        lines = path.read_text().splitlines()
        # First data frame sits on line 2 (comment, header, then frames);
        # its third value is joint 0's confidence.
        parts = lines[2].split()
        parts[2] = "1.2"
        lines[2] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"confidence must lie in \[0, 1\]"):
            load_keypoints(path)

    def test_non_utf8_file_raises_format_error(self, tmp_path):
        path = tmp_path / "subject.kpts"
        path.write_bytes(b"\xff\xfe\x00\x01 binary")
        with pytest.raises(FormatError, match="cannot read keypoint file"):
            load_keypoints(path)

    def test_header_frame_count_enforced(self, tmp_path):
        seq = walking_sequence(6)
        path = tmp_path / "subject.kpts"
        save_keypoints(seq, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError, match="frames"):
            load_keypoints(path)


class TestSkeletonGraph:
    def test_raw_adjacency_symmetric(self):
        graph = build_adjacency("distance")
        npt.assert_array_equal(graph.adjacency, graph.adjacency.T)

    def test_left_wrist_has_single_neighbor(self):
        graph = build_adjacency("uniform")
        neighbors = np.flatnonzero(graph.adjacency[9])
        npt.assert_array_equal(neighbors, [7])

    def test_row_normalized_rows_sum_to_one(self):
        graph = build_adjacency("uniform")
        with_self = graph.adjacency + np.eye(NUM_JOINTS)
        rows = row_normalized(with_self).sum(axis=1)
        npt.assert_allclose(rows, np.ones(NUM_JOINTS), atol=1e-12)

    def test_distance_partitions_sum_to_uniform_matrix(self):
        uniform = build_adjacency("uniform")
        distance = build_adjacency("distance")
        npt.assert_allclose(
            distance.partitions.sum(axis=0), uniform.partitions[0], atol=1e-12
        )

    def test_partition_counts(self):
        assert build_adjacency("uniform").num_partitions == 1
        assert build_adjacency("distance").num_partitions == 3

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            build_adjacency("spectral")

    def test_every_edge_is_coco_pair(self):
        # 19 undirected pairs, all within the 17-joint range.
        assert len(COCO_EDGES) == 19
        for i, j in COCO_EDGES:
            assert 0 <= i < NUM_JOINTS and 0 <= j < NUM_JOINTS


class TestPreprocess:
    def test_window_count_arithmetic(self):
        assert window_count(128, 64, 32) == 3
        assert window_count(64, 64, 32) == 1
        assert window_count(63, 64, 32) == 0

    def test_translation_invariance(self):
        cfg = GaitModelConfig(window_length=32, stride=16)
        seq = walking_sequence(80)
        shifted_frames = seq.frames.copy()
        shifted_frames[:, :, 0] += 50.0
        shifted_frames[:, :, 1] -= 20.0
        shifted = SkeletonSequence(
            frames=shifted_frames, frame_rate=seq.frame_rate, subject_id=seq.subject_id
        )
        npt.assert_allclose(preprocess(shifted, cfg), preprocess(seq, cfg), atol=1e-9)

    def test_scale_invariance(self):
        cfg = GaitModelConfig(window_length=32, stride=16)
        seq = walking_sequence(80, seed=1)
        scaled_frames = seq.frames.copy()
        scaled_frames[:, :, :2] *= 2.0
        scaled = SkeletonSequence(
            frames=scaled_frames, frame_rate=seq.frame_rate, subject_id=seq.subject_id
        )
        npt.assert_allclose(preprocess(scaled, cfg), preprocess(seq, cfg), atol=1e-9)

    def test_short_sequence_raises_with_diagnostics(self):
        cfg = GaitModelConfig(window_length=64, stride=32)
        seq = walking_sequence(20)
        with pytest.raises(EmptyWindowsError) as excinfo:
            preprocess(seq, cfg)
        assert excinfo.value.diagnostics

    def test_low_confidence_windows_dropped_with_reasons(self):
        cfg = GaitModelConfig(window_length=16, stride=16, min_confidence=0.5)
        seq = walking_sequence(48)
        dim_frames = seq.frames.copy()
        dim_frames[:, :, 2] = 0.1
        dim = SkeletonSequence(
            frames=dim_frames, frame_rate=seq.frame_rate, subject_id="dim"
        )
        with pytest.raises(EmptyWindowsError) as excinfo:
            preprocess(dim, cfg)
        reasons = [d["reason"] for d in excinfo.value.diagnostics]
        assert len(reasons) == 3
        assert all("confidence" in r for r in reasons)


def tiny_windows(seed=0, n=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 16, NUM_JOINTS, 3))


class TestGaitModel:
    def test_output_dimension_matches_config(self):
        model = GaitModel(TINY_CFG, seed=0)
        feature = gait_forward(tiny_windows(), model)
        assert feature.shape == (TINY_CFG.embedding_dim,)

    def test_forward_deterministic(self):
        model = GaitModel(TINY_CFG, seed=0)
        windows = tiny_windows(1)
        npt.assert_array_equal(gait_forward(windows, model), gait_forward(windows, model))

    def test_joint_permutation_equivariance(self):
        """Relabeling joints and conjugating every partition by the same
        permutation must leave the pooled embedding unchanged."""
        rng = np.random.default_rng(3)
        perm = rng.permutation(NUM_JOINTS)
        graph = build_adjacency("distance")
        permuted_graph = SkeletonGraph(
            strategy=graph.strategy,
            partitions=graph.partitions[:, perm][:, :, perm],
            adjacency=graph.adjacency[perm][:, perm],
        )
        model = GaitModel(TINY_CFG, graph=graph, seed=4)
        model_p = GaitModel(TINY_CFG, graph=permuted_graph, seed=4)
        windows = tiny_windows(5)
        base = gait_forward(windows, model)
        permuted = gait_forward(windows[:, :, perm, :], model_p)
        npt.assert_allclose(permuted, base, atol=1e-9)

    def test_gradients_match_finite_differences(self):
        """2-block, 8-channel config, all parameters, tolerance 1e-4."""
        model = GaitModel(TINY_CFG, seed=6)
        head = ndnn.Dense(TINY_CFG.embedding_dim, 2, np.random.default_rng(6))
        layers = model.layers() + [head]
        x = windows_to_bctv(tiny_windows(7, n=2))
        labels = np.array([0, 1])

        def loss_fn():
            emb, _ = model.forward(x)
            logits, _ = head.forward(emb)
            return ndnn.cross_entropy(logits, labels)[0]

        ndnn.zero_all_grads(layers)
        emb, cache = model.forward(x)
        logits, head_cache = head.forward(emb)
        _, grad_logits = ndnn.cross_entropy(logits, labels)
        grad_emb = head.backward(grad_logits, head_cache)
        model.backward(grad_emb, cache)

        worst = 0.0
        for layer in layers:
            for name, value in layer.params.items():
                fd = ndnn.finite_difference_gradient(loss_fn, value, h=1e-5)
                err = ndnn.relative_error(layer.grads[name], fd)
                worst = max(worst, err)
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"

    def test_state_round_trip_preserves_outputs(self):
        cfg = TINY_CFG
        model = GaitModel(cfg, seed=8)
        head = ndnn.Dense(cfg.embedding_dim, 2, np.random.default_rng(8))
        clf = GaitClassifier(model, head)
        windows = tiny_windows(9)
        restored = classifier_from_arrays(ndnn.state_dict(clf.named_layers()), cfg)
        npt.assert_array_equal(
            restored.subject_feature(windows), clf.subject_feature(windows)
        )
        assert restored.checksum() == clf.checksum()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("head.bias", None, r"missing \['head.bias'\]"),
            ("layer99.weight", np.zeros(2), r"unexpected \['layer99.weight'\]"),
            ("head.bias", np.zeros(1), r"head.bias: shape \(1,\), expected \(2,\)"),
        ],
        ids=["missing", "unexpected", "broadcastable-shape"],
    )
    def test_load_rejects_state_that_does_not_fit(self, key, value, message):
        cfg = TINY_CFG
        head = ndnn.Dense(cfg.embedding_dim, 2, np.random.default_rng(8))
        state = ndnn.state_dict(GaitClassifier(GaitModel(cfg, seed=8), head).named_layers())
        if value is None:
            del state[key]
        else:
            state[key] = value
        with pytest.raises(FormatError, match=message):
            classifier_from_arrays(state, cfg)

    def test_branch_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="branch"):
            GaitModelConfig(channels=(6,), branches=(BranchSpec("pointwise"),) * 4)

    def test_config_round_trips_through_dict(self):
        cfg = GaitModelConfig(channels=(8,), embedding_dim=4)
        assert from_dict(GaitModelConfig, json.loads(json.dumps(asdict(cfg)))) == cfg


class TestTraining:
    def test_single_class_rejected(self):
        subjects = [(tiny_windows(i), 0) for i in range(4)]
        with pytest.raises(ShapeError, match="class"):
            train_gait_classifier(subjects, TINY_CFG, TrainOptions(epochs=1))

    def test_too_few_subjects_rejected(self):
        with pytest.raises(ShapeError):
            train_gait_classifier([(tiny_windows(0), 0)], TINY_CFG, TrainOptions(epochs=1))

    def test_loss_decreases_on_separable_toy_data(self):
        rng = np.random.default_rng(10)
        subjects = []
        for i in range(8):
            label = i % 2
            base = rng.normal(size=(2, 16, NUM_JOINTS, 3))
            base[:, :, :, 0] += 3.0 * label  # crude but linearly separable
            subjects.append((base, label))
        _, trace = train_gait_classifier(subjects, TINY_CFG, TrainOptions(epochs=10, seed=1))
        assert trace["loss"][-1] <= trace["loss"][0]

    def test_predict_is_pd_uses_index_zero(self):
        assert predict_is_pd(np.array([1.0, 0.0]))
        assert not predict_is_pd(np.array([0.0, 1.0]))
        assert predict_is_pd(np.array([0.5, 0.5]))  # tie breaks toward PD

    @pytest.mark.parametrize("logits", [[np.nan, 1.0], [np.nan, np.nan], [0.0, np.inf]])
    def test_predict_is_pd_rejects_non_finite_logits(self, logits):
        with pytest.raises(ShapeError, match="non-finite"):
            predict_is_pd(np.array(logits))
