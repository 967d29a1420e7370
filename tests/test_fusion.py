"""Hybrid score-stacking head: hand-checked forward pass, gradients, freezing.

The hand fixture pins the full forward arithmetic to literals computed by
hand: feature (1,0) and (0,1), identity-row score heads, small integer
class heads. If the widening, the head application, or the summation order
changes, these literals break.
"""

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse import ndnn
from pdfuse.errors import FormatError, ShapeError
from pdfuse.face_features import FaceBackboneConfig, FaceModel
from pdfuse.fusion import (
    FusionTrainConfig,
    HybridFusionParams,
    Prediction,
    _fuse,
    _fusion_layers,
    _params_from_layers,
    hybrid_fuse,
    train_fusion,
)
from pdfuse.gait_features import GaitClassifier, GaitModel, GaitModelConfig


def hand_fixture_params():
    return HybridFusionParams(
        gait_score_w=np.array([1.0, 0.0]),
        gait_score_b=0.0,
        gait_class_w=np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]),
        gait_class_b=np.array([0.5, 0.0]),
        face_score_w=np.array([0.0, 1.0]),
        face_score_b=0.0,
        face_class_w=np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 1.5]]),
        face_class_b=np.array([0.0, 0.0]),
    )


class TestHybridFuse:
    def test_hand_computed_logits(self):
        """f_gait=(1,0) -> s_g=1, widened (1,0,1); class head gives
        (1+0+3+0.5, 0) = (4.5, 0). f_face=(0,1) -> s_f=1, widened (0,1,1);
        class head gives (0, -1+1.5) = (0, 0.5). Sum: (4.5, 0.5)."""
        logits = hybrid_fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), hand_fixture_params())
        npt.assert_allclose(logits, np.array([4.5, 0.5]), atol=1e-9)

    def test_zero_class_heads_give_zero_logits(self):
        params = hand_fixture_params()
        params.gait_class_w[:] = 0.0
        params.gait_class_b[:] = 0.0
        params.face_class_w[:] = 0.0
        params.face_class_b[:] = 0.0
        logits = hybrid_fuse(np.array([3.0, -2.0]), np.array([5.0, 7.0]), params)
        npt.assert_array_equal(logits, np.zeros(2))

    def test_modalities_are_additive(self):
        """Zeroing the gait class head leaves exactly the face contribution."""
        params = hand_fixture_params()
        full = hybrid_fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), params)

        params_g = hand_fixture_params()
        params_g.face_class_w[:] = 0.0
        params_g.face_class_b[:] = 0.0
        gait_only = hybrid_fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), params_g)

        params_f = hand_fixture_params()
        params_f.gait_class_w[:] = 0.0
        params_f.gait_class_b[:] = 0.0
        face_only = hybrid_fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), params_f)

        npt.assert_allclose(gait_only + face_only, full, atol=1e-12)

    def test_class_head_width_must_be_feature_dim_plus_one(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            HybridFusionParams(
                gait_score_w=np.array([1.0, 0.0]),
                gait_score_b=0.0,
                gait_class_w=np.zeros((2, 2)),  # missing the score column
                gait_class_b=np.zeros(2),
                face_score_w=np.array([0.0, 1.0]),
                face_score_b=0.0,
                face_class_w=np.zeros((2, 3)),
                face_class_b=np.zeros(2),
            )

    def test_feature_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="gait feature"):
            hybrid_fuse(np.zeros(3), np.zeros(2), hand_fixture_params())

    def test_non_finite_feature_rejected(self):
        with pytest.raises(ShapeError, match="finite"):
            hybrid_fuse(np.array([np.nan, 0.0]), np.zeros(2), hand_fixture_params())

    def test_arrays_round_trip(self):
        params = HybridFusionParams.init(3, 4, seed=9)
        restored = HybridFusionParams.from_arrays(params.arrays())
        assert restored.checksum() == params.checksum()
        x_g, x_f = np.ones(3), np.ones(4)
        npt.assert_array_equal(hybrid_fuse(x_g, x_f, restored), hybrid_fuse(x_g, x_f, params))

    def test_from_arrays_rejects_arrays_that_do_not_fit(self):
        arrays = HybridFusionParams.init(3, 4, seed=9).arrays()
        missing = {k: v for k, v in arrays.items() if k != "face_class_b"}
        with pytest.raises(FormatError, match="missing \\['face_class_b'\\]"):
            HybridFusionParams.from_arrays(missing)
        with pytest.raises(FormatError, match="unexpected \\['extra'\\]"):
            HybridFusionParams.from_arrays({**arrays, "extra": np.zeros(1)})
        with pytest.raises(FormatError, match="gait_score_b"):
            HybridFusionParams.from_arrays({**arrays, "gait_score_b": np.zeros(2)})
        with pytest.raises(FormatError, match="class head"):
            HybridFusionParams.from_arrays({**arrays, "gait_class_w": np.zeros((2, 3))})

    def test_layers_round_trip_keeps_score_biases(self):
        params = HybridFusionParams.init(3, 4, seed=9)
        params.gait_score_b, params.face_score_b = 0.25, -1.5
        restored = _params_from_layers(_fusion_layers(params))
        assert (restored.gait_score_b, restored.face_score_b) == (0.25, -1.5)
        assert restored.checksum() == params.checksum()


def test_fusion_gradients_match_finite_differences():
    """Every fusion parameter, including both score biases, at 1e-6."""
    rng = np.random.default_rng(3)
    n, d_g, d_f = 6, 3, 4
    f_gait = rng.normal(size=(n, d_g))
    f_face = rng.normal(size=(n, d_f))
    labels = np.array([0, 1, 0, 1, 1, 0])
    params = HybridFusionParams.init(d_g, d_f, seed=4)
    params.gait_score_b, params.face_score_b = 0.3, -0.2
    layers = _fusion_layers(params)

    ndnn.zero_all_grads(layers)
    logits, backward = _fuse(layers, f_gait, f_face)
    backward(ndnn.cross_entropy(logits, labels)[1])

    def loss_fn():
        return ndnn.cross_entropy(_fuse(layers, f_gait, f_face)[0], labels)[0]

    worst = 0.0
    checked = 0
    for layer in layers:
        for name, value in layer.params.items():
            fd = ndnn.finite_difference_gradient(loss_fn, value)
            worst = max(worst, ndnn.relative_error(layer.grads[name], fd))
            checked += value.size
    assert checked == sum(a.size for a in params.arrays().values())
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"


class TestTrainFusion:
    def separable_features(self, n=24, seed=0):
        rng = np.random.default_rng(seed)
        f_gait = rng.normal(size=(n, 3))
        f_face = rng.normal(size=(n, 2))
        labels = np.array([0, 1] * (n // 2))
        f_gait[labels == 0, 0] += 3.0
        f_face[labels == 1, 1] += 3.0
        return f_gait, f_face, labels

    def test_defaults_match_documented_hyperparameters(self):
        cfg = FusionTrainConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.epochs == 100

    def test_learns_separable_features(self):
        f_gait, f_face, labels = self.separable_features()
        params, trace = train_fusion(
            f_gait, f_face, labels, FusionTrainConfig(epochs=40, learning_rate=0.01)
        )
        assert trace["accuracy"][-1] == 1.0
        assert trace["loss"][-1] <= trace["loss"][0]
        assert len(trace["loss"]) == 40

    def test_single_class_rejected(self):
        f_gait, f_face, _ = self.separable_features()
        with pytest.raises(ShapeError, match="both classes"):
            train_fusion(f_gait, f_face, np.zeros(24, dtype=int))

    def test_count_mismatch_rejected(self):
        f_gait, f_face, labels = self.separable_features()
        with pytest.raises(ShapeError, match="disagree"):
            train_fusion(f_gait[:-1], f_face, labels)

    def test_extractors_frozen_through_training(self):
        """train_fusion consumes precomputed features; the extractor models
        that produced them must be bitwise-identical afterwards."""
        gait_cfg = GaitModelConfig(channels=(8,), window_length=8, stride=8, embedding_dim=3)
        gait_clf = GaitClassifier(
            GaitModel(gait_cfg, seed=1), ndnn.Dense(3, 2, np.random.default_rng(1))
        )
        face_model = FaceModel(
            FaceBackboneConfig(image_shape=(8, 8, 1), conv_channels=(4,), embedding_dim=2), seed=2
        )
        gait_before = gait_clf.checksum()
        face_before = face_model.checksum()

        rng = np.random.default_rng(5)
        windows = rng.normal(size=(2, 8, 17, 3))
        images = rng.uniform(0.1, 0.9, size=(3, 8, 8, 1))
        f_gait = np.stack([gait_clf.subject_feature(windows) for _ in range(10)])
        f_face = np.stack([face_model.embeddings(images).mean(axis=0) for _ in range(10)])
        labels = np.array([0, 1] * 5)
        train_fusion(f_gait, f_face, labels, FusionTrainConfig(epochs=3))

        assert gait_clf.checksum() == gait_before
        assert face_model.checksum() == face_before


class TestPrediction:
    def test_probability_from_softmax(self):
        logits = np.array([3.0, -3.0])
        probs = ndnn.softmax(logits[None])[0]
        npt.assert_allclose(probs[0], 1.0 / (1.0 + np.exp(-6.0)), atol=1e-12)

    def test_predicted_label_index(self):
        pred = Prediction(
            subject_id="s0", label="PD", is_pd=True, pd_probability=0.9, logits=np.array([1.0, 0.0])
        )
        assert pred.predicted_label_index == 0
        pred = Prediction(
            subject_id="s1",
            label="non-PD",
            is_pd=False,
            pd_probability=0.2,
            logits=np.array([0.0, 1.0]),
        )
        assert pred.predicted_label_index == 1
