"""Inversion and latent-arithmetic behavior on the invertible toy generator."""

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse.direction_discovery import DirectionVector
from pdfuse.errors import ShapeError
from pdfuse.io import load_image
from pdfuse.latent_editing import (
    ImageTensor,
    InversionConfig,
    LatentVector,
    PoolingPerceptualExtractor,
    edit_latent,
    invert,
    perceptual_loss,
    synthesize,
)
from pdfuse.synthetic_bench import BenchmarkSpec, build_benchmark, load_generator_spec, make_toy_generator

RNG = np.random.default_rng(77)


def random_latent(generator, seed=0):
    return LatentVector(np.random.default_rng(seed).normal(size=generator.latent_dim))


def unit_direction(dim, seed=0):
    v = np.random.default_rng(seed).normal(size=dim)
    return DirectionVector(values=v / np.linalg.norm(v), source="A", target="B")


class TestValueTypes:
    def test_image_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            ImageTensor(np.full((2, 2, 1), 1.5))

    def test_image_rejects_nan(self):
        bad = np.full((2, 2, 1), 0.5)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            ImageTensor(bad)

    def test_image_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            ImageTensor(np.full((2, 2), 0.5))

    def test_latent_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            LatentVector(np.array([1.0, np.inf]))

    def test_latent_dim(self):
        assert LatentVector(np.zeros(9)).dim == 9


class TestInversionConfig:
    def test_defaults_weight_pixel_and_perceptual_terms(self):
        cfg = InversionConfig()
        assert cfg.lambda_mse == 1.0
        assert cfg.k == 4
        assert len(cfg.lambda_layers) == 4
        assert all(w == 1.0 for w in cfg.lambda_layers)

    def test_rejects_unknown_init_mode(self):
        with pytest.raises(ShapeError, match="init"):
            InversionConfig(init="hot")

    @pytest.mark.parametrize("step_size", [0.0, -0.05, float("nan")])
    def test_rejects_a_step_size_that_is_not_positive(self, step_size):
        with pytest.raises(ShapeError, match="step_size"):
            InversionConfig(step_size=step_size)


class TestPerceptualLoss:
    def test_zero_on_identical_inputs(self, small_generator):
        generator, _ = small_generator
        image = generator.forward(random_latent(generator, 1))
        extractor = PoolingPerceptualExtractor(generator.output_shape)
        assert perceptual_loss(image, image, extractor) == 0.0

    def test_symmetric_and_nonnegative(self, small_generator):
        generator, _ = small_generator
        a = generator.forward(random_latent(generator, 1))
        b = generator.forward(random_latent(generator, 2))
        extractor = PoolingPerceptualExtractor(generator.output_shape)
        ab = perceptual_loss(a, b, extractor)
        ba = perceptual_loss(b, a, extractor)
        assert ab > 0
        npt.assert_allclose(ab, ba, rtol=1e-12)


class TestInvert:
    def test_warm_start_at_solution_is_fixed_point(self, small_generator):
        generator, _ = small_generator
        true_latent = random_latent(generator, 5)
        target = generator.forward(true_latent)
        result = invert(
            target,
            generator,
            config=InversionConfig(init="warm", max_iterations=50),
            warm_start=true_latent,
        )
        assert result.loss_trace[0] == 0.0
        npt.assert_allclose(result.latent.values, true_latent.values, atol=1e-12)

    def test_zero_init_matches_pseudoinverse_oracle(self, small_generator):
        generator, oracle = small_generator
        true_latent = random_latent(generator, 6)
        target = generator.forward(true_latent)
        result = invert(target, generator, config=InversionConfig(max_iterations=2000))
        reconstruction = generator.forward(result.latent)
        per_pixel_mse = float(np.mean((reconstruction.pixels - target.pixels) ** 2))
        assert per_pixel_mse <= 1e-4
        oracle_latent = oracle(target)
        assert np.linalg.norm(result.latent.values - oracle_latent.values) <= 1e-2

    def test_loss_trace_non_increasing(self, small_generator):
        generator, _ = small_generator
        target = generator.forward(random_latent(generator, 7))
        result = invert(target, generator, config=InversionConfig(max_iterations=300))
        trace = np.asarray(result.loss_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert trace[-1] <= trace[0]

    def test_recovers_benchmark_face_pd0008_of_seed_24(self, tmp_path):
        """A face on which a loop that reads a flat loss trace as convergence
        stops at iteration 17, 0.378 from the oracle's latent."""
        spec = BenchmarkSpec(n_per_class=9, gait_frames=64, n_expression_samples=2, seed=24)
        paths = build_benchmark(spec, tmp_path)
        generator, oracle = make_toy_generator(load_generator_spec(paths.generator_path))
        face = load_image(paths.root / "subjects" / "pd0008" / "face_neutral.img")
        result = invert(face, generator, config=InversionConfig())
        assert result.converged
        assert np.linalg.norm(result.latent.values - oracle(face).values) <= 1e-2

    def test_shape_mismatch_rejected(self, small_generator):
        generator, _ = small_generator
        wrong = ImageTensor(np.full((4, 4, 1), 0.5))
        with pytest.raises(ShapeError, match="shape"):
            invert(wrong, generator)

    def test_extractor_layer_count_must_match_config(self, small_generator):
        generator, _ = small_generator
        target = generator.forward(random_latent(generator, 8))
        two_layer = PoolingPerceptualExtractor(generator.output_shape, scales=(1, 2))
        with pytest.raises(ShapeError, match="layers"):
            invert(target, generator, extractor=two_layer)

    def test_warm_init_requires_warm_start(self, small_generator):
        generator, _ = small_generator
        target = generator.forward(random_latent(generator, 9))
        with pytest.raises(ShapeError, match="warm"):
            invert(target, generator, config=InversionConfig(init="warm"))


class TestLatentArithmetic:
    def test_strength_zero_is_identity(self, small_generator):
        generator, _ = small_generator
        base = random_latent(generator, 10)
        direction = unit_direction(generator.latent_dim, 1)
        edited = edit_latent(base, direction, 0.0)
        npt.assert_array_equal(edited.values, base.values)

        image = synthesize(base, direction, 0.0, generator)
        npt.assert_array_equal(image.pixels, generator.forward(base).pixels)

    @pytest.mark.parametrize("strength", [-2.0, -1.0, 1.0, 2.0])
    def test_projection_moves_by_strength(self, small_generator, strength):
        generator, _ = small_generator
        base = random_latent(generator, 11)
        direction = unit_direction(generator.latent_dim, 2)
        edited = edit_latent(base, direction, strength)
        before = base.values @ direction.values
        after = edited.values @ direction.values
        npt.assert_allclose(after - before, strength, atol=1e-12)

    def test_edits_compose_additively(self, small_generator):
        generator, _ = small_generator
        base = random_latent(generator, 12)
        direction = unit_direction(generator.latent_dim, 3)
        once = edit_latent(base, direction, 1.75)
        twice = edit_latent(edit_latent(base, direction, 1.0), direction, 0.75)
        npt.assert_allclose(once.values, twice.values, atol=1e-9)

    def test_dimension_mismatch_rejected(self, small_generator):
        generator, _ = small_generator
        base = random_latent(generator, 13)
        with pytest.raises(ShapeError):
            edit_latent(base, unit_direction(generator.latent_dim + 1, 4), 1.0)
