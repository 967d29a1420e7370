"""Oracle self-tests: the synthetic ground truth must be right by itself.

If these fail, nothing downstream means anything, so they check the toy
generator's invertibility, the cluster sampler's statistics, and the gait
simulator's spectral signatures directly, without any learned model.
"""

import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from pdfuse import ndnn
from pdfuse.errors import ConfigError, FormatError, ShapeError
from pdfuse.io import from_dict
from pdfuse.latent_editing import LatentVector
from pdfuse.manifest import load_manifest
from pdfuse.synthetic_bench import (
    BenchmarkSpec,
    GaitSimSpec,
    ToyGeneratorSpec,
    build_benchmark,
    load_generator_spec,
    make_toy_generator,
    sample_latent_clusters,
    simulate_gait,
)

from conftest import TINY_BENCH_SPEC


class TestToyGenerator:
    def test_pseudoinverse_recovers_latent(self, small_generator):
        generator, oracle = small_generator
        rng = np.random.default_rng(11)
        for _ in range(10):
            latent = rng.normal(size=generator.latent_dim)
            image = generator.forward(LatentVector(latent))
            recovered = oracle(image)
            npt.assert_allclose(recovered.values, latent, atol=1e-8)

    def test_forward_deterministic(self, small_generator):
        generator, _ = small_generator
        latent = LatentVector(np.random.default_rng(4).normal(size=generator.latent_dim))
        first = generator.forward(latent).pixels
        second = generator.forward(latent).pixels
        npt.assert_array_equal(first, second)

    def test_same_spec_same_matrix(self):
        spec = ToyGeneratorSpec(latent_dim=8, height=8, width=8, channels=1, seed=21)
        g1, _ = make_toy_generator(spec)
        g2, _ = make_toy_generator(spec)
        npt.assert_array_equal(g1.matrix, g2.matrix)

    def test_gradient_matches_finite_differences(self, small_generator):
        """Relative error <= 1e-6: the map is sigmoid-of-linear, so central
        differences should be extremely accurate."""
        generator, _ = small_generator
        rng = np.random.default_rng(9)
        for _ in range(10):
            values = rng.normal(size=generator.latent_dim)
            probe = rng.normal(size=generator.output_shape)

            def loss_fn():
                return float(np.sum(generator.forward(LatentVector(values)).pixels * probe))

            analytic = generator.backward(LatentVector(values), probe)
            fd = ndnn.finite_difference_gradient(loss_fn, values)
            assert ndnn.relative_error(analytic, fd) <= 1e-6

    def test_pixels_strictly_inside_unit_interval(self, small_generator):
        generator, _ = small_generator
        image = generator.forward(
            LatentVector(np.random.default_rng(2).normal(size=generator.latent_dim))
        )
        assert image.pixels.min() > 0.0
        assert image.pixels.max() < 1.0

    def test_rejects_latent_dim_at_least_pixel_count(self):
        with pytest.raises(ConfigError):
            make_toy_generator(ToyGeneratorSpec(latent_dim=64, height=8, width=8, channels=1))

    def test_spec_round_trips_through_dict(self):
        spec = ToyGeneratorSpec(latent_dim=12, height=8, width=8, channels=1, gain=3.0, seed=5)
        assert from_dict(ToyGeneratorSpec, json.loads(json.dumps(asdict(spec)))) == spec

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b'{"generator": {"latent_dim": "\xff"}}', "not valid UTF-8 JSON"),
            (b'{"generator": ', "not valid UTF-8 JSON"),
            (b'{"format_version": 1}', "generator: expected object, got NoneType"),
            (b'{"generator": {"latent_dim": 4, "height": 4, "width": 4, "channels": 1, "gain": 1.0, '
             b'"seed": 0, "extra": 1}}', "generator: unknown key 'extra'"),
        ],
        ids=["not-utf8", "not-json", "no-generator-key", "unknown-key"],
    )
    def test_malformed_spec_file_raises_format_error(self, tmp_path, raw, message):
        path = tmp_path / "generator.json"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=message):
            load_generator_spec(path)


class TestLatentClusters:
    def test_oracle_direction_unit_norm(self):
        sample = sample_latent_clusters(np.zeros(16), np.ones(16), sigma=0.3, n_per_class=5)
        npt.assert_allclose(np.linalg.norm(sample.oracle.values), 1.0, atol=1e-9)

    def test_sample_means_converge(self):
        """Standard-error bound ||mean - mu|| <= 4*sigma/sqrt(n) at n=1000.

        Each coordinate's sample mean has sd sigma/sqrt(n); the norm of the
        d=16 error vector concentrates near sigma*sqrt(d/n), well under the
        4-sigma bound. Checked over several seeds, not just one draw.
        """
        d, n, sigma = 16, 1000, 0.5
        mu_a = np.zeros(d)
        mu_b = 2.0 * np.eye(d)[0]
        bound = 4 * sigma / np.sqrt(n) * np.sqrt(d)
        for seed in range(5):
            sample = sample_latent_clusters(mu_a, mu_b, sigma=sigma, n_per_class=n, seed=seed)
            assert np.linalg.norm(sample.latents_a.mean(axis=0) - mu_a) <= bound
            assert np.linalg.norm(sample.latents_b.mean(axis=0) - mu_b) <= bound

    def test_seed_determinism(self):
        a = sample_latent_clusters(np.zeros(4), np.ones(4), 0.2, 10, seed=3)
        b = sample_latent_clusters(np.zeros(4), np.ones(4), 0.2, 10, seed=3)
        npt.assert_array_equal(a.latents_a, b.latents_a)
        npt.assert_array_equal(a.latents_b, b.latents_b)

    def test_coincident_means_rejected(self):
        with pytest.raises(ShapeError, match="coincide"):
            sample_latent_clusters(np.ones(8), np.ones(8), 0.3, 10)

    def test_rejects_tiny_sample_and_bad_sigma(self):
        with pytest.raises(ShapeError):
            sample_latent_clusters(np.zeros(4), np.ones(4), 0.3, 1)
        with pytest.raises(ShapeError):
            sample_latent_clusters(np.zeros(4), np.ones(4), 0.0, 10)

    def test_mismatched_means_rejected(self):
        with pytest.raises(ShapeError):
            sample_latent_clusters(np.zeros(4), np.ones(5), 0.3, 10)


def wrist_spectrum_peak_hz(seq, frame_rate):
    """Dominant nonzero frequency of the left wrist's x coordinate.

    The forward-walk ramp is removed first; an un-detrended ramp buries
    every oscillation under low-frequency leakage.
    """
    x = seq.frames[:, 9, 0]
    t = np.arange(len(x), dtype=np.float64)
    slope, intercept = np.polyfit(t, x, 1)
    x = x - (slope * t + intercept)
    spectrum = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(x), d=1.0 / frame_rate)
    return freqs[1:][spectrum[1:].argmax()]


class TestGaitSimulator:
    def test_shapes_and_confidence(self):
        seq = simulate_gait(GaitSimSpec(num_frames=60, seed=1))
        assert seq.frames.shape == (60, 17, 3)
        npt.assert_array_equal(seq.frames[:, :, 2], 1.0)

    def test_seed_determinism(self):
        a = simulate_gait(GaitSimSpec(group="parkinsonian", num_frames=50, seed=5))
        b = simulate_gait(GaitSimSpec(group="parkinsonian", num_frames=50, seed=5))
        npt.assert_array_equal(a.frames, b.frames)

    def test_ankle_excursion_ratio_near_half(self):
        """Parkinsonian stride is built at 0.5x control amplitude; the
        measured ankle excursion ratio must land within 10% of that."""
        ratios = []
        for seed in range(4):
            spans = {}
            for group in ("control", "parkinsonian"):
                spec = GaitSimSpec(group=group, num_frames=300, noise_sigma=0.0, seed=seed)
                seq = simulate_gait(spec)
                x = seq.frames[:, 15, 0]  # left ankle, pixels
                drift = np.linspace(x[0], x[-1], len(x))
                spans[group] = np.ptp(x - drift)
            ratios.append(spans["parkinsonian"] / spans["control"])
        ratio = float(np.mean(ratios))
        assert 0.45 <= ratio <= 0.55, f"excursion ratio {ratio:.3f}"

    def test_parkinsonian_wrist_peaks_at_tremor_frequency(self):
        for seed in range(4):
            spec = GaitSimSpec(group="parkinsonian", num_frames=300, seed=seed)
            peak = wrist_spectrum_peak_hz(simulate_gait(spec), spec.frame_rate)
            assert 4.0 <= peak <= 6.0, f"seed {seed}: wrist peak at {peak:.2f} Hz"

    def test_control_wrist_peaks_at_cadence(self):
        for seed in range(4):
            spec = GaitSimSpec(group="control", num_frames=300, seed=seed)
            peak = wrist_spectrum_peak_hz(simulate_gait(spec), spec.frame_rate)
            assert peak < 2.0, f"seed {seed}: control wrist peak at {peak:.2f} Hz"

    def test_rejects_cadence_beyond_nyquist(self):
        with pytest.raises(ConfigError, match="cadence"):
            GaitSimSpec(cadence_hz=20.0, frame_rate=30.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ConfigError, match="tremor_amplitude"):
            GaitSimSpec(tremor_amplitude=-0.1)

    def test_rejects_unknown_group(self):
        with pytest.raises(ConfigError, match="group"):
            GaitSimSpec(group="patient")


class TestBuildBenchmark:
    def test_inventory(self, tiny_bench_dir):
        spec = TINY_BENCH_SPEC
        manifest = load_manifest(tiny_bench_dir / "manifest.jsonl")
        assert len(manifest) == 2 * spec.n_per_class
        labels = [rec.label for rec in manifest.records]
        assert labels.count("PD") == spec.n_per_class
        assert labels.count("non-PD") == spec.n_per_class

        for rec in manifest.records:
            assert manifest.resolve(rec.gait_path).exists()
            assert len(rec.faces) == 7
            expressions = {f.expression for f in rec.faces}
            assert len(expressions) == 7
            for ref in rec.faces:
                assert manifest.resolve(ref.path).exists()

        generator_doc = json.loads((tiny_bench_dir / "generator.json").read_text())
        assert generator_doc["generator"]["latent_dim"] == spec.latent_dim
        assert sorted(p.name for p in (tiny_bench_dir / "oracle_directions").iterdir()) == [
            "neutral__anger.json",
            "neutral__disgust.json",
            "neutral__fear.json",
            "neutral__happiness.json",
            "neutral__sadness.json",
            "neutral__surprise.json",
        ]
        assert len(list((tiny_bench_dir / "latent_samples").glob("*.npy"))) == 7

    def test_rebuild_is_deterministic(self, tmp_path, tiny_bench_dir):
        build_benchmark(TINY_BENCH_SPEC, tmp_path / "again")
        original = load_manifest(tiny_bench_dir / "manifest.jsonl")
        rebuilt = load_manifest(tmp_path / "again" / "manifest.jsonl")
        assert original.subject_ids() == rebuilt.subject_ids()
        first = original.records[0]
        twin = rebuilt.records[0]
        a = np.fromfile(original.resolve(first.faces[0].path), dtype="<f8")
        b = np.fromfile(rebuilt.resolve(twin.faces[0].path), dtype="<f8")
        npt.assert_array_equal(a, b)

    def test_spec_serializes(self):
        spec = BenchmarkSpec(n_per_class=3)
        as_dict = asdict(spec)
        assert as_dict["n_per_class"] == 3
        assert "seed" in as_dict
