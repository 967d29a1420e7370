"""Expression backbone, synthesis-based augmentation, and face features."""

import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse import ndnn
from pdfuse.direction_discovery import DirectionVector
from pdfuse.errors import ConfigError, FormatError, ShapeError
from pdfuse.face_features import (
    EXPRESSIONS,
    ExpressionReport,
    FaceBackboneConfig,
    FaceModel,
    FaceTrainOptions,
    augment_with_synthesized,
    expression_index,
    extract_face_features,
    train_expression_classifier,
)
from pdfuse.io import from_dict
from pdfuse.latent_editing import LatentVector
from pdfuse.synthetic_bench import ToyGeneratorSpec, make_toy_generator

SMALL_CFG = FaceBackboneConfig(image_shape=(8, 8, 1), conv_channels=(4,), embedding_dim=4)


def random_images(n, shape=(8, 8, 1), seed=0):
    return np.random.default_rng(seed).uniform(0.05, 0.95, size=(n,) + shape)


def test_expression_canon():
    assert len(EXPRESSIONS) == 7
    assert EXPRESSIONS[0] == "neutral"
    assert len(set(EXPRESSIONS)) == 7
    assert expression_index("happiness") == EXPRESSIONS.index("happiness")


def test_unknown_expression_rejected():
    with pytest.raises(ConfigError, match="unknown expression"):
        expression_index("smirk")


def test_config_rejects_indivisible_image():
    with pytest.raises(ConfigError, match="divisible"):
        FaceBackboneConfig(image_shape=(10, 10, 1), conv_channels=(4, 8))


def test_config_round_trips_through_dict():
    assert from_dict(FaceBackboneConfig, json.loads(json.dumps(asdict(SMALL_CFG)))) == SMALL_CFG


class TestFaceModelForward:
    def test_logit_shape_and_finiteness(self):
        model = FaceModel(SMALL_CFG, seed=0)
        x = random_images(5).transpose(0, 3, 1, 2)
        logits, emb, _ = model.forward(x)
        assert logits.shape == (5, 7)
        assert emb.shape == (5, SMALL_CFG.embedding_dim)
        assert np.isfinite(logits).all()
        npt.assert_allclose(ndnn.softmax(logits).sum(axis=1), np.ones(5), atol=1e-9)

    def test_gradients_match_finite_differences(self):
        model = FaceModel(SMALL_CFG, seed=1)
        layers = model.trainable_layers()
        x = random_images(3, seed=2).transpose(0, 3, 1, 2)
        labels = np.array([0, 3, 6])

        def loss_fn():
            logits, _, _ = model.forward(x)
            return ndnn.cross_entropy(logits, labels)[0]

        ndnn.zero_all_grads(layers)
        logits, _, cache = model.forward(x)
        _, grad_logits = ndnn.cross_entropy(logits, labels)
        model.backward(grad_logits, cache)

        worst = 0.0
        for layer in layers:
            for name, value in layer.params.items():
                fd = ndnn.finite_difference_gradient(loss_fn, value, h=1e-5)
                worst = max(worst, ndnn.relative_error(layer.grads[name], fd))
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"


class TestExtractFaceFeatures:
    def test_single_image_is_embedding_verbatim(self):
        model = FaceModel(SMALL_CFG, seed=3)
        image = random_images(1, seed=4)[0]
        feature = extract_face_features(image, model)
        npt.assert_array_equal(feature, model.embeddings(image[None])[0])
        assert feature.shape == (SMALL_CFG.embedding_dim,)

    def test_duplicating_an_image_changes_nothing(self):
        model = FaceModel(SMALL_CFG, seed=3)
        images = random_images(3, seed=5)
        doubled = np.concatenate([images, images])
        npt.assert_allclose(
            extract_face_features(doubled, model),
            extract_face_features(images, model),
            atol=1e-12,
        )

    def test_order_invariance(self):
        model = FaceModel(SMALL_CFG, seed=3)
        images = random_images(4, seed=6)
        npt.assert_allclose(
            extract_face_features(images[::-1].copy(), model),
            extract_face_features(images, model),
            atol=1e-12,
        )

    def test_model_parameters_untouched(self):
        model = FaceModel(SMALL_CFG, seed=3)
        before = model.checksum()
        extract_face_features(random_images(2, seed=7), model)
        assert model.checksum() == before

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("layer02.bias", None, r"missing \['layer02.bias'\]"),
            ("layer03.bias", np.zeros(7), r"unexpected \['layer03.bias'\]"),
            ("layer00.bias", np.zeros(1), r"layer00.bias: shape \(1,\), expected \(8,\)"),
        ],
        ids=["missing", "unexpected", "broadcastable-shape"],
    )
    def test_load_rejects_state_that_does_not_fit(self, key, value, message):
        cfg = FaceBackboneConfig(image_shape=(8, 8, 1), conv_channels=(8,), embedding_dim=4)
        model = FaceModel(cfg, seed=3)
        state = ndnn.state_dict(model.named_layers())
        if value is None:
            del state[key]
        else:
            state[key] = value
        before = model.checksum()
        with pytest.raises(FormatError, match=message):
            ndnn.load_state_dict(model.named_layers(), state)
        assert model.checksum() == before

    def test_empty_input_rejected(self):
        model = FaceModel(SMALL_CFG, seed=3)
        with pytest.raises(ShapeError):
            extract_face_features(np.empty((0, 8, 8, 1)), model)

    def test_wrong_image_shape_rejected(self):
        model = FaceModel(SMALL_CFG, seed=3)
        with pytest.raises(ShapeError, match="shape"):
            extract_face_features(random_images(2, shape=(16, 16, 1)), model)


class TestTraining:
    def test_ten_samples_overfit_to_perfect_train_accuracy(self):
        rng = np.random.default_rng(8)
        # Two well-separated pixel-level classes, five images each.
        images = np.concatenate(
            [
                rng.uniform(0.05, 0.25, size=(5, 8, 8, 1)),
                rng.uniform(0.75, 0.95, size=(5, 8, 8, 1)),
            ]
        )
        labels = np.array([0] * 5 + [1] * 5)
        model, report = train_expression_classifier(
            images, labels, SMALL_CFG, FaceTrainOptions(epochs=60, learning_rate=0.01, seed=0)
        )
        assert report.train_accuracy == 1.0
        assert report.train_size + report.test_size == 10

    def test_report_schema(self):
        report = ExpressionReport(
            model_name="conv-small",
            parameter_count=1000,
            parameter_megabytes=0.008,
            train_accuracy=0.9,
            test_accuracy=0.8,
            train_size=80,
            test_size=20,
        )
        table = report.format_table()
        assert "Parameters" in table
        assert "Train Acc." in table
        assert "Test Acc." in table
        as_dict = asdict(report)
        for key in ("model_name", "parameter_count", "train_accuracy", "test_accuracy"):
            assert key in as_dict

    def test_single_class_rejected(self):
        images = random_images(6, seed=9)
        with pytest.raises(ShapeError, match="class"):
            train_expression_classifier(images, np.zeros(6, dtype=int), SMALL_CFG)

    def test_mismatched_labels_rejected(self):
        images = random_images(6, seed=10)
        with pytest.raises(ShapeError):
            train_expression_classifier(images, np.array([0, 1]), SMALL_CFG)


@pytest.fixture(scope="module")
def toy_expression_world():
    """Toy generator plus oracle expression directions and cluster latents."""
    spec = ToyGeneratorSpec(latent_dim=16, height=8, width=8, channels=1, seed=12)
    generator, _ = make_toy_generator(spec)
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(16, 6))
    q, _ = np.linalg.qr(raw)
    neutral_mean = np.zeros(16)
    directions = {
        name: DirectionVector(values=q[:, i], source="neutral", target=name)
        for i, name in enumerate(e for e in EXPRESSIONS if e != "neutral")
    }
    return generator, neutral_mean, directions


class TestAugmentWithSynthesized:
    def test_six_outputs_with_distinct_labels(self, toy_expression_world):
        generator, neutral_mean, directions = toy_expression_world
        neutral = generator.forward(LatentVector(neutral_mean))
        out = augment_with_synthesized(neutral, directions, generator, strength=2.0)
        assert len(out) == 6
        names = [name for _, name in out]
        assert sorted(names) == sorted(e for e in EXPRESSIONS if e != "neutral")

    def test_zero_strength_copies_reconstruction(self, toy_expression_world):
        generator, neutral_mean, directions = toy_expression_world
        neutral = generator.forward(LatentVector(neutral_mean))
        out = augment_with_synthesized(neutral, directions, generator, strength=0.0)
        reference = out[0][0].pixels
        for image, _ in out[1:]:
            npt.assert_array_equal(image.pixels, reference)

    def test_missing_direction_rejected(self, toy_expression_world):
        generator, neutral_mean, directions = toy_expression_world
        neutral = generator.forward(LatentVector(neutral_mean))
        partial = {k: v for k, v in directions.items() if k != "fear"}
        with pytest.raises(ConfigError, match="fear"):
            augment_with_synthesized(neutral, partial, generator, strength=1.0)

    def test_mistagged_direction_rejected(self, toy_expression_world):
        generator, neutral_mean, directions = toy_expression_world
        neutral = generator.forward(LatentVector(neutral_mean))
        bad = dict(directions)
        bad["anger"] = DirectionVector(
            values=directions["anger"].values, source="happiness", target="anger"
        )
        with pytest.raises(ConfigError, match="anger"):
            augment_with_synthesized(neutral, bad, generator, strength=1.0)

    def test_probe_assigns_intended_class_at_strength_two(self, toy_expression_world):
        """Nearest-centroid probe in pixel space, fit on held-out cluster
        samples, must put >= 0.9 of synthesized images in their target
        class at strength 2 (here: all of them, six images per base)."""
        generator, neutral_mean, directions = toy_expression_world
        rng = np.random.default_rng(14)
        sigma, gap = 0.3, 2.0

        names = [e for e in EXPRESSIONS if e != "neutral"]
        centroids = {}
        for name in names:
            mean = neutral_mean + gap * directions[name].values
            latents = mean + sigma * rng.normal(size=(40, 16))
            images = np.stack(
                [generator.forward(LatentVector(z)).pixels.ravel() for z in latents]
            )
            centroids[name] = images.mean(axis=0)

        hits = 0
        total = 0
        for base_seed in range(5):
            base = LatentVector(neutral_mean + sigma * rng.normal(size=16))
            neutral_image = generator.forward(base)
            for image, name in augment_with_synthesized(
                neutral_image, directions, generator, strength=2.0
            ):
                flat = image.pixels.ravel()
                nearest = min(names, key=lambda n: np.linalg.norm(flat - centroids[n]))
                hits += nearest == name
                total += 1
        assert hits / total >= 0.9, f"probe accuracy {hits}/{total}"
