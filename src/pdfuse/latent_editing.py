"""Latent-space image editing against a differentiable generator interface.

Provides optimization-based inversion (recover the latent that reproduces a
target image) and additive direction edits (move an inverted latent along a
unit semantic direction and decode). Generators and perceptual feature
extractors are abstract so the same machinery runs against any backend that
can supply forward values and vector-Jacobian products.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InversionDivergedError, ShapeError
from .ndnn import minimize

GTOL = 1e-10  # latent gradient norm at which an inversion has converged


@dataclass(frozen=True)
class ImageTensor:
    """Real-valued image, row-major (height, width, channels), values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"image must be (H, W, C), got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ShapeError(
                f"pixel values must lie in [0, 1], got range "
                f"[{arr.min():.6g}, {arr.max():.6g}]"
            )
        object.__setattr__(self, "pixels", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.pixels.shape

    @property
    def size(self) -> int:
        return self.pixels.size


@dataclass(frozen=True)
class LatentVector:
    """Point in generator latent space, shape (d,), finite float64."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"latent must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("latent contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


class Generator(ABC):
    """Decoder from latent space to image space with gradient support."""

    @property
    @abstractmethod
    def latent_dim(self) -> int: ...

    @property
    @abstractmethod
    def output_shape(self) -> tuple[int, int, int]: ...

    @abstractmethod
    def forward(self, latent: LatentVector) -> ImageTensor:
        """Decode a latent. Must be deterministic."""

    @abstractmethod
    def backward(self, latent: LatentVector, grad_pixels: np.ndarray) -> np.ndarray:
        """Vector-Jacobian product: gradient w.r.t. the latent of any scalar
        loss whose gradient w.r.t. the decoded pixels is ``grad_pixels``."""


class PerceptualExtractor(ABC):
    """Stack of k feature maps with per-layer weights for perceptual loss."""

    @property
    @abstractmethod
    def num_layers(self) -> int: ...

    @property
    @abstractmethod
    def layer_weights(self) -> np.ndarray:
        """Per-layer loss weights, shape (k,)."""

    @abstractmethod
    def features(self, pixels: np.ndarray) -> list[np.ndarray]:
        """All k feature maps of an (H, W, C) pixel array."""

    @abstractmethod
    def feature_backward(self, pixels: np.ndarray, layer: int, grad_feature: np.ndarray) -> np.ndarray:
        """Vector-Jacobian product of layer ``layer`` at ``pixels``."""


class PoolingPerceptualExtractor(PerceptualExtractor):
    """Multi-scale average-pooling features.

    Layer j averages the image over non-overlapping ``scales[j]`` x
    ``scales[j]`` patches, so the stack compares images at several
    resolutions. All layers are linear, which keeps the loss convex in the
    pixels and the VJPs exact.
    """

    def __init__(self, image_shape, scales=(1, 2, 4, 8), weights=None):
        H, W, C = image_shape
        for s in scales:
            if H % s or W % s:
                raise ShapeError(f"image shape {image_shape} not divisible by pool scale {s}")
        self.image_shape = (H, W, C)
        self.scales = tuple(int(s) for s in scales)
        if weights is None:
            weights = np.ones(len(self.scales))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(self.scales),):
            raise ShapeError(
                f"need one weight per scale: {len(self.scales)} scales, "
                f"weights shape {weights.shape}"
            )
        self._weights = weights

    @property
    def num_layers(self) -> int:
        return len(self.scales)

    @property
    def layer_weights(self) -> np.ndarray:
        return self._weights

    def _check(self, pixels):
        if pixels.shape != self.image_shape:
            raise ShapeError(f"expected image shape {self.image_shape}, got {pixels.shape}")

    def features(self, pixels: np.ndarray) -> list[np.ndarray]:
        self._check(pixels)
        H, W, C = self.image_shape
        out = []
        for s in self.scales:
            out.append(pixels.reshape(H // s, s, W // s, s, C).mean(axis=(1, 3)))
        return out

    def feature_backward(self, pixels, layer, grad_feature):
        self._check(pixels)
        s = self.scales[layer]
        g = np.repeat(np.repeat(grad_feature, s, axis=0), s, axis=1)
        return g / (s * s)


@dataclass(frozen=True)
class InversionConfig:
    """Knobs for optimization-based inversion.

    ``lambda_mse`` and ``lambda_layers`` are the loss weights (all 1 by
    default, with k = 4 perceptual layers). ``max_iterations`` caps the
    accepted L-BFGS steps, and ``step_size`` is the length of the first
    trial step, along the negative gradient. ``init`` selects the starting
    latent: "zeros", "random" (seeded), or "warm" (caller supplies one).
    """

    lambda_mse: float = 1.0
    lambda_layers: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    max_iterations: int = 500
    step_size: float = 0.05
    init: str = "zeros"
    seed: int = 0

    def __post_init__(self):
        if self.init not in ("zeros", "random", "warm"):
            raise ShapeError(f"unknown init mode {self.init!r}")
        if self.max_iterations < 1:
            raise ShapeError("max_iterations must be positive")
        if not self.step_size > 0:
            raise ShapeError(f"step_size must be positive, got {self.step_size}")

    @property
    def k(self) -> int:
        return len(self.lambda_layers)


@dataclass(frozen=True)
class InversionResult:
    latent: LatentVector
    loss_trace: np.ndarray
    iterations: int
    converged: bool

    @property
    def final_loss(self) -> float:
        return float(self.loss_trace[-1])


def perceptual_loss(a: ImageTensor, b: ImageTensor, extractor: PerceptualExtractor) -> float:
    """Weighted sum over layers of mean squared feature difference.

    For layer j with N_j output elements the contribution is
    ``w_j / N_j * ||C_j(a) - C_j(b)||^2``. Symmetric in a and b.
    """
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    fa = extractor.features(a.pixels)
    fb = extractor.features(b.pixels)
    weights = extractor.layer_weights
    total = 0.0
    for j in range(extractor.num_layers):
        diff = fa[j] - fb[j]
        total += weights[j] / diff.size * float(np.sum(diff * diff))
    return total


def invert(
    target: ImageTensor,
    generator: Generator,
    extractor: PerceptualExtractor | None = None,
    config: InversionConfig = InversionConfig(),
    warm_start: LatentVector | None = None,
) -> InversionResult:
    """Recover a latent whose decoding matches ``target``.

    Minimizes perceptual loss plus ``lambda_mse``-weighted mean squared pixel
    error over the latent with ``ndnn.minimize`` (L-BFGS with Armijo
    backtracking). Every accepted step lowers the objective, so the loss
    trace is non-increasing. ``converged`` means the latent gradient norm
    reached ``GTOL``; ``iterations`` counts the accepted steps.
    """
    if target.shape != generator.output_shape:
        raise ShapeError(
            f"target shape {target.shape} does not match generator output "
            f"{generator.output_shape}"
        )
    if extractor is None:
        scales = (1, 2, 4, 8)[: config.k]
        extractor = PoolingPerceptualExtractor(
            generator.output_shape, scales=scales, weights=np.asarray(config.lambda_layers)
        )
    elif extractor.num_layers != config.k:
        raise ShapeError(
            f"extractor has {extractor.num_layers} layers but config.k = {config.k}"
        )

    d = generator.latent_dim
    if config.init == "zeros":
        current = np.zeros(d)
    elif config.init == "random":
        current = np.random.default_rng(config.seed).normal(0.0, 1.0, size=d)
    else:
        if warm_start is None:
            raise ShapeError("init='warm' requires a warm_start latent")
        if warm_start.dim != d:
            raise ShapeError(f"warm start has dim {warm_start.dim}, generator wants {d}")
        current = warm_start.values

    target_features = extractor.features(target.pixels)
    weights = extractor.layer_weights

    def fg(values):
        """The objective at latent ``values`` and its gradient w.r.t. the latent."""
        latent = LatentVector(values)
        pixels = generator.forward(latent).pixels
        resid = pixels - target.pixels
        loss = config.lambda_mse / resid.size * float(np.sum(resid * resid))
        grad = 2.0 * config.lambda_mse / resid.size * resid
        for j, feature in enumerate(extractor.features(pixels)):
            diff = feature - target_features[j]
            loss += weights[j] / diff.size * float(np.sum(diff * diff))
            grad += extractor.feature_backward(pixels, j, 2.0 * weights[j] / diff.size * diff)
        return loss, generator.backward(latent, grad)

    latent, trace, converged = minimize(fg, current, config.max_iterations, GTOL, config.step_size)
    if not np.isfinite(trace[0]):
        raise InversionDivergedError(0, "objective non-finite at the initial latent")
    return InversionResult(LatentVector(latent), trace, len(trace) - 1, converged)


def edit_latent(base, direction, strength: float) -> LatentVector:
    """Move ``base`` along a unit ``direction`` by ``strength``."""
    dir_values = direction.values
    if base.dim != dir_values.shape[0]:
        raise ShapeError(f"latent dim {base.dim} vs direction dim {dir_values.shape[0]}")
    norm = np.linalg.norm(dir_values)
    if abs(norm - 1.0) > 1e-6:
        raise ShapeError(f"direction must be unit norm, got ||dir|| = {norm:.8g}")
    if strength == 0.0:
        return LatentVector(base.values.copy())
    return LatentVector(base.values + strength * dir_values)


def synthesize(base, direction, strength: float, generator: Generator) -> ImageTensor:
    """Decode ``base + strength * direction`` through the generator."""
    edited = edit_latent(base, direction, strength)
    if edited.dim != generator.latent_dim:
        raise ShapeError(
            f"latent dim {edited.dim} does not match generator dim {generator.latent_dim}"
        )
    return generator.forward(edited)
