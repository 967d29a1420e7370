"""Synthetic ground-truth oracles for end-to-end validation.

Clinical recordings and pretrained backbones are replaced by constructions
whose correct answers are known exactly:

* a toy generator (full-column-rank linear map squashed into (0, 1) by a
  sigmoid) with a closed-form pseudoinverse oracle on its range,
* Gaussian latent clusters whose separating direction is the mean
  difference,
* a parametric gait simulator with controlled stride, arm swing, and wrist
  tremor, so class differences in the keypoint streams are known by design.

``build_benchmark`` assembles these into a two-class multimodal dataset on
disk, in the manifest and file formats the rest of the package consumes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .direction_discovery import DirectionVector, _sigmoid
from .errors import ConfigError, ShapeError
from .face_features import EXPRESSIONS
from .gait_features import (
    LEFT_HIP,
    LEFT_SHOULDER,
    NUM_JOINTS,
    RIGHT_HIP,
    RIGHT_SHOULDER,
    SkeletonSequence,
    save_keypoints,
)
from .io import _json_object, from_dict, save_direction, save_image
from .latent_editing import Generator, ImageTensor, LatentVector
from .manifest import (
    LABEL_CONTROL,
    LABEL_PD,
    DatasetManifest,
    FaceImageRef,
    SubjectRecord,
    relativize,
    save_manifest,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class ToyGeneratorSpec:
    latent_dim: int = 64
    height: int = 32
    width: int = 32
    channels: int = 1
    gain: float = 4.0
    seed: int = 0


class ToyGenerator(Generator):
    """pixels = sigmoid(gain * W @ latent), W with orthonormal columns.

    The QR construction makes W full column rank by construction; the rank
    is still verified after construction and a deficient draw is rejected.
    Orthonormal columns keep the map perfectly conditioned, so inversion
    quality is limited only by the optimizer, not the geometry.
    """

    def __init__(self, spec: ToyGeneratorSpec):
        self.spec = spec
        n = spec.height * spec.width * spec.channels
        if spec.latent_dim >= n:
            raise ConfigError(
                f"latent_dim {spec.latent_dim} must be smaller than the pixel count {n}"
            )
        rng = np.random.default_rng(spec.seed)
        raw = rng.normal(0.0, 1.0, size=(n, spec.latent_dim))
        q, _ = np.linalg.qr(raw)
        self.matrix = q * spec.gain
        singular_values = np.linalg.svd(self.matrix, compute_uv=False)
        if singular_values[-1] < 1e-8 * singular_values[0]:
            raise ConfigError("toy generator matrix is rank deficient; reseed the generator")
        self._pinv = np.linalg.pinv(self.matrix)

    @property
    def latent_dim(self) -> int:
        return self.spec.latent_dim

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return (self.spec.height, self.spec.width, self.spec.channels)

    def forward(self, latent: LatentVector) -> ImageTensor:
        if latent.dim != self.latent_dim:
            raise ShapeError(f"latent dim {latent.dim}, generator wants {self.latent_dim}")
        pixels = _sigmoid(self.matrix @ latent.values)
        return ImageTensor(pixels.reshape(self.output_shape))

    def backward(self, latent: LatentVector, grad_pixels: np.ndarray) -> np.ndarray:
        if latent.dim != self.latent_dim:
            raise ShapeError(f"latent dim {latent.dim}, generator wants {self.latent_dim}")
        if grad_pixels.shape != self.output_shape:
            raise ShapeError(
                f"pixel gradient shape {grad_pixels.shape}, expected {self.output_shape}"
            )
        z = self.matrix @ latent.values
        p = _sigmoid(z)
        return self.matrix.T @ (p * (1.0 - p) * grad_pixels.ravel())


class PseudoInverseOracle:
    """Exact inverse of the toy generator on its own range.

    latent = pinv(gain * W) @ logit(pixels); exact (to float precision) for
    any image the generator produced, because sigmoid is invertible and the
    matrix has full column rank.
    """

    def __init__(self, generator: ToyGenerator):
        self._pinv = generator._pinv
        self._shape = generator.output_shape

    def __call__(self, image: ImageTensor) -> LatentVector:
        if image.shape != self._shape:
            raise ShapeError(f"image shape {image.shape}, oracle expects {self._shape}")
        p = np.clip(image.pixels.ravel(), 1e-15, 1.0 - 1e-15)
        return LatentVector(self._pinv @ np.log(p / (1.0 - p)))


def make_toy_generator(spec: ToyGeneratorSpec = ToyGeneratorSpec()):
    """Construct the generator and its pseudoinverse oracle together."""
    generator = ToyGenerator(spec)
    return generator, PseudoInverseOracle(generator)


@dataclass(frozen=True)
class ClusterSample:
    """Two labeled latent clouds plus the known separating direction."""

    latents_a: np.ndarray
    latents_b: np.ndarray
    oracle: DirectionVector


def sample_latent_clusters(
    mean_a: np.ndarray,
    mean_b: np.ndarray,
    sigma: float,
    n_per_class: int,
    seed: int = 0,
    source: str = "A",
    target: str = "B",
) -> ClusterSample:
    """Isotropic Gaussian clouds around two means.

    The oracle direction is the normalized mean difference (B - A), the
    ground truth any direction-discovery method is judged against.
    """
    mean_a = np.asarray(mean_a, dtype=np.float64)
    mean_b = np.asarray(mean_b, dtype=np.float64)
    if mean_a.shape != mean_b.shape or mean_a.ndim != 1:
        raise ShapeError(f"means must share a 1-D shape, got {mean_a.shape} and {mean_b.shape}")
    if sigma <= 0 or n_per_class < 2:
        raise ShapeError("sigma must be positive and n_per_class at least 2")
    gap = mean_b - mean_a
    norm = np.linalg.norm(gap)
    if norm < 1e-12:
        raise ShapeError("cluster means coincide; no oracle direction exists")
    rng = np.random.default_rng(seed)
    d = mean_a.shape[0]
    latents_a = mean_a + sigma * rng.normal(size=(n_per_class, d))
    latents_b = mean_b + sigma * rng.normal(size=(n_per_class, d))
    oracle = DirectionVector(values=gap / norm, source=source, target=target)
    return ClusterSample(latents_a=latents_a, latents_b=latents_b, oracle=oracle)


@dataclass(frozen=True)
class GaitSimSpec:
    """Parametric walking-skeleton generator settings.

    Amplitudes are in body units (torso length is 0.45 units); the emitted
    keypoints are mapped to a pixel frame. The parkinsonian preset halves
    the stride, damps the arm swing to 0.3x, and adds a wrist tremor
    oscillation; the control preset has no tremor.
    """

    group: str = "control"
    num_frames: int = 150
    frame_rate: float = 30.0
    cadence_hz: float = 1.0
    stride_scale: float | None = None
    arm_swing_scale: float | None = None
    tremor_amplitude: float | None = None
    tremor_frequency_hz: float = 5.0
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.group not in ("control", "parkinsonian"):
            raise ConfigError(f"group must be 'control' or 'parkinsonian', got {self.group!r}")
        if self.num_frames < 1:
            raise ConfigError("num_frames must be positive")
        if self.frame_rate <= 0:
            raise ConfigError("frame_rate must be positive")
        nyquist = self.frame_rate / 2.0
        if self.cadence_hz <= 0 or self.cadence_hz >= nyquist:
            raise ConfigError(
                f"cadence {self.cadence_hz} Hz must lie in (0, {nyquist}) for frame rate "
                f"{self.frame_rate}"
            )
        if self.tremor_frequency_hz <= 0 or self.tremor_frequency_hz >= nyquist:
            raise ConfigError(
                f"tremor frequency {self.tremor_frequency_hz} Hz must lie in (0, {nyquist})"
            )
        for name in ("stride_scale", "arm_swing_scale", "tremor_amplitude"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")

    @property
    def effective_stride_scale(self) -> float:
        if self.stride_scale is not None:
            return self.stride_scale
        return 1.0 if self.group == "control" else 0.5

    @property
    def effective_arm_swing_scale(self) -> float:
        if self.arm_swing_scale is not None:
            return self.arm_swing_scale
        return 1.0 if self.group == "control" else 0.3

    @property
    def effective_tremor_amplitude(self) -> float:
        # Large enough that tremor power beats the damped arm swing at the
        # wrist, so the parkinsonian wrist spectrum peaks at the tremor
        # frequency rather than at the cadence.
        if self.tremor_amplitude is not None:
            return self.tremor_amplitude
        return 0.0 if self.group == "control" else 0.10


# Standing pose in body units, y up, mid-hip at (0, 1).
_BASE_POSE = np.array(
    [
        [0.00, 1.62],  # nose
        [-0.04, 1.66], [0.04, 1.66],  # eyes
        [-0.08, 1.62], [0.08, 1.62],  # ears
        [-0.18, 1.45], [0.18, 1.45],  # shoulders
        [-0.25, 1.20], [0.25, 1.20],  # elbows
        [-0.28, 0.95], [0.28, 0.95],  # wrists
        [-0.12, 1.00], [0.12, 1.00],  # hips
        [-0.12, 0.55], [0.12, 0.55],  # knees
        [-0.12, 0.10], [0.12, 0.10],  # ankles
    ]
)

_STRIDE_AMPLITUDE = 0.30
_LIFT_AMPLITUDE = 0.05
_ARM_AMPLITUDE = 0.20
_BOB_AMPLITUDE = 0.02
_FORWARD_SPEED = 0.40
_PIXELS_PER_UNIT = 100.0
_PIXEL_OFFSET = np.array([320.0, 240.0])


def simulate_gait(spec: GaitSimSpec = GaitSimSpec()) -> SkeletonSequence:
    """Render one subject's walking keypoint sequence.

    All motion components are pure sinusoids: legs and arms at the cadence
    frequency (opposite sides in antiphase), plus, for the parkinsonian
    group, a wrist tremor at ``tremor_frequency_hz``. Gaussian pixel noise
    is added to the coordinates; confidence is 1 everywhere.
    """
    t = np.arange(spec.num_frames) / spec.frame_rate
    phase = 2.0 * np.pi * spec.cadence_hz * t
    stride = _STRIDE_AMPLITUDE * spec.effective_stride_scale
    arm = _ARM_AMPLITUDE * spec.effective_arm_swing_scale
    tremor = spec.effective_tremor_amplitude

    pose = np.repeat(_BASE_POSE[None, :, :], spec.num_frames, axis=0)

    left, right = np.sin(phase), np.sin(phase + np.pi)
    # legs: ankles swing at full amplitude, knees at half, with a small lift
    pose[:, 15, 0] += stride * left
    pose[:, 16, 0] += stride * right
    pose[:, 13, 0] += 0.5 * stride * left
    pose[:, 14, 0] += 0.5 * stride * right
    pose[:, 15, 1] += _LIFT_AMPLITUDE * spec.effective_stride_scale * np.clip(left, 0.0, None)
    pose[:, 16, 1] += _LIFT_AMPLITUDE * spec.effective_stride_scale * np.clip(right, 0.0, None)
    # arms swing against the same-side leg
    pose[:, 9, 0] += arm * right
    pose[:, 10, 0] += arm * left
    pose[:, 7, 0] += 0.5 * arm * right
    pose[:, 8, 0] += 0.5 * arm * left
    # torso bob at twice the cadence
    pose[:, :, 1] += _BOB_AMPLITUDE * np.sin(2.0 * phase)[:, None]
    if tremor > 0.0:
        rng_phase = np.random.default_rng(derive_seed(spec.seed, "tremor-phase"))
        for wrist in (9, 10):
            offset = rng_phase.uniform(0.0, 2.0 * np.pi)
            osc = 2.0 * np.pi * spec.tremor_frequency_hz * t + offset
            pose[:, wrist, 0] += tremor * np.sin(osc)
            pose[:, wrist, 1] += tremor * np.cos(osc)
    # whole-body forward translation
    pose[:, :, 0] += (_FORWARD_SPEED * spec.effective_stride_scale * t)[:, None]

    pixels = pose * _PIXELS_PER_UNIT + _PIXEL_OFFSET
    rng = np.random.default_rng(derive_seed(spec.seed, "keypoint-noise"))
    pixels = pixels + rng.normal(0.0, spec.noise_sigma, size=pixels.shape)
    frames = np.concatenate([pixels, np.ones((spec.num_frames, NUM_JOINTS, 1))], axis=2)
    return SkeletonSequence(
        frames=frames, frame_rate=spec.frame_rate, subject_id=f"sim-{spec.group}-{spec.seed}"
    )


@dataclass(frozen=True)
class BenchmarkSpec:
    """Sizes and signal strengths of the on-disk multimodal benchmark.

    Faces: each subject has one image per expression, decoded from an
    identity latent moved along each expression direction. Controls use
    ``expressiveness_control``; the parkinsonian class uses the smaller
    ``expressiveness_pd`` (flattened affect). Gait follows GaitSimSpec with
    per-subject cadence jitter.
    """

    n_per_class: int = 200
    latent_dim: int = 64
    image_size: int = 32
    gain: float = 4.0
    cluster_sigma: float = 0.3
    expression_gap: float = 2.0
    expressiveness_control: float = 2.0
    expressiveness_pd: float = 0.5
    identity_sigma: float = 0.15
    image_noise_sigma: float = 0.1
    n_expression_samples: int = 150
    gait_frames: int = 150
    gait_frame_rate: float = 30.0
    cadence_jitter: float = 0.1
    noise_sigma: float = 0.5
    seed: int = 0


def _orthonormal_directions(d: int, count: int, rng) -> np.ndarray:
    raw = rng.normal(size=(d, count))
    q, _ = np.linalg.qr(raw)
    return q.T


@dataclass
class BenchmarkPaths:
    root: Path
    manifest_path: Path
    generator_path: Path
    clusters_path: Path
    latent_samples: dict
    oracle_directions: dict


def load_generator_spec(path: str | Path) -> ToyGeneratorSpec:
    """The toy generator spec stored in a benchmark's ``generator.json``."""
    path = Path(path)
    doc = _json_object(path.read_bytes(), f"generator spec {path}")
    return from_dict(ToyGeneratorSpec, doc.get("generator"), f"generator spec {path}: generator")


def expression_cluster_means(spec: BenchmarkSpec) -> tuple[np.ndarray, np.ndarray]:
    """(neutral mean, 6 orthonormal expression directions) for the benchmark seed."""
    rng = np.random.default_rng(derive_seed(spec.seed, "clusters"))
    neutral = 0.5 * rng.normal(size=spec.latent_dim) / np.sqrt(spec.latent_dim)
    directions = _orthonormal_directions(spec.latent_dim, len(EXPRESSIONS) - 1, rng)
    return neutral, directions


def expression_training_set(
    spec: BenchmarkSpec, generator: ToyGenerator
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Labeled expression images sampled from the latent clusters.

    Returns (images, labels, latents-per-expression). Deterministic in the
    benchmark seed, so training can regenerate it without storing images.
    """
    neutral, directions = expression_cluster_means(spec)
    rng = np.random.default_rng(derive_seed(spec.seed, "expression-samples"))
    images, labels = [], []
    latents_by_expression: dict[str, np.ndarray] = {}
    for idx, name in enumerate(EXPRESSIONS):
        mean = neutral.copy()
        if name != "neutral":
            mean = mean + spec.expression_gap * directions[idx - 1]
        latents = mean + spec.cluster_sigma * rng.normal(
            size=(spec.n_expression_samples, spec.latent_dim)
        )
        latents_by_expression[name] = latents
        for row in latents:
            images.append(generator.forward(LatentVector(row)).pixels)
            labels.append(idx)
    return np.stack(images), np.asarray(labels), latents_by_expression


def build_benchmark(spec: BenchmarkSpec, out_dir: str | Path) -> BenchmarkPaths:
    """Write the complete two-class multimodal benchmark to ``out_dir``.

    Emits the generator spec, latent cluster samples and oracle directions,
    per-subject face images and gait keypoint files, and the manifest.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    gen_spec = ToyGeneratorSpec(
        latent_dim=spec.latent_dim,
        height=spec.image_size,
        width=spec.image_size,
        channels=1,
        gain=spec.gain,
        seed=derive_seed(spec.seed, "generator"),
    )
    generator, _ = make_toy_generator(gen_spec)
    generator_path = root / "generator.json"
    generator_path.write_text(
        json.dumps({"format_version": 1, "generator": asdict(gen_spec)}, sort_keys=True) + "\n"
    )

    neutral, directions = expression_cluster_means(spec)
    clusters_path = root / "clusters.json"
    clusters_path.write_text(
        json.dumps(
            {
                "format_version": 1,
                "expressions": list(EXPRESSIONS),
                "neutral_mean": neutral.tolist(),
                "expression_gap": spec.expression_gap,
                "cluster_sigma": spec.cluster_sigma,
            },
            sort_keys=True,
        )
        + "\n"
    )

    _, _, latents_by_expression = expression_training_set(spec, generator)
    samples_dir = root / "latent_samples"
    samples_dir.mkdir(exist_ok=True)
    latent_samples = {}
    for name, latents in latents_by_expression.items():
        path = samples_dir / f"{name}.npy"
        np.save(path, latents)
        latent_samples[name] = path

    oracle_dir = root / "oracle_directions"
    oracle_dir.mkdir(exist_ok=True)
    oracle_directions = {}
    for idx, name in enumerate(EXPRESSIONS):
        if name == "neutral":
            continue
        direction = DirectionVector(values=directions[idx - 1], source="neutral", target=name)
        path = oracle_dir / f"neutral__{name}.json"
        save_direction(path, direction)
        oracle_directions[name] = path

    subjects_dir = root / "subjects"
    subjects_dir.mkdir(exist_ok=True)
    records = []
    face_rng = np.random.default_rng(derive_seed(spec.seed, "subject-faces"))
    cadence_rng = np.random.default_rng(derive_seed(spec.seed, "subject-cadence"))
    for label, group, prefix, expressiveness in (
        (LABEL_PD, "parkinsonian", "pd", spec.expressiveness_pd),
        (LABEL_CONTROL, "control", "ctl", spec.expressiveness_control),
    ):
        for i in range(spec.n_per_class):
            subject_id = f"{prefix}{i:04d}"
            sdir = subjects_dir / subject_id
            sdir.mkdir(exist_ok=True)
            identity = neutral + spec.identity_sigma * face_rng.normal(size=spec.latent_dim)
            face_refs = []
            for idx, name in enumerate(EXPRESSIONS):
                latent = identity + spec.image_noise_sigma * face_rng.normal(size=spec.latent_dim)
                if name != "neutral":
                    latent = latent + expressiveness * directions[idx - 1]
                image = generator.forward(LatentVector(latent))
                img_path = sdir / f"face_{name}.img"
                save_image(img_path, image)
                face_refs.append(
                    FaceImageRef(path=relativize(img_path, root), expression=name)
                )
            cadence = 1.0 + spec.cadence_jitter * float(cadence_rng.standard_normal())
            cadence = float(np.clip(cadence, 0.5, 2.0))
            gait_spec = GaitSimSpec(
                group=group,
                num_frames=spec.gait_frames,
                frame_rate=spec.gait_frame_rate,
                cadence_hz=cadence,
                noise_sigma=spec.noise_sigma,
                seed=derive_seed(spec.seed, f"gait-{subject_id}"),
            )
            seq = simulate_gait(gait_spec)
            seq = SkeletonSequence(
                frames=seq.frames, frame_rate=seq.frame_rate, subject_id=subject_id
            )
            kpt_path = sdir / "gait.kpts"
            save_keypoints(seq, kpt_path)
            records.append(
                SubjectRecord(
                    subject_id=subject_id,
                    label=label,
                    gait_path=relativize(kpt_path, root),
                    faces=tuple(face_refs),
                    source="synthetic",
                )
            )
    manifest = DatasetManifest(records=records, root=root.resolve())
    manifest_path = root / "manifest.jsonl"
    save_manifest(manifest, manifest_path)
    return BenchmarkPaths(
        root=root,
        manifest_path=manifest_path,
        generator_path=generator_path,
        clusters_path=clusters_path,
        latent_samples=latent_samples,
        oracle_directions=oracle_directions,
    )
