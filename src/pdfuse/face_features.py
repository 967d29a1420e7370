"""Expression recognition backbone and face feature extraction.

A small convolutional classifier is trained on 7-way expression labels; its
penultimate embedding is the face feature. Per subject, features of all
available face images are averaged into one vector. Also provides the
expression-synthesis augmentation: invert a neutral face and re-decode it
along each neutral-to-expression direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndnn
from .direction_discovery import DirectionVector
from .errors import ConfigError, ShapeError
from .latent_editing import (
    Generator,
    ImageTensor,
    InversionConfig,
    PerceptualExtractor,
    invert,
    synthesize,
)

EXPRESSIONS = ("neutral", "anger", "disgust", "fear", "happiness", "sadness", "surprise")
NUM_EXPRESSIONS = len(EXPRESSIONS)


def expression_index(name: str) -> int:
    try:
        return EXPRESSIONS.index(name)
    except ValueError:
        raise ConfigError(f"unknown expression {name!r}; expected one of {EXPRESSIONS}") from None


@dataclass(frozen=True)
class FaceBackboneConfig:
    """Convolutional backbone settings.

    Each conv stage is kernel ``kernel_size`` same-padding convolution,
    ReLU, then 2x2 average pooling; the last feature map is flattened and
    mapped to the ``embedding_dim``-dimensional face feature, and a final
    linear head emits the 7 expression logits.
    """

    image_shape: tuple[int, int, int] = (32, 32, 1)
    conv_channels: tuple[int, ...] = (8, 16)
    kernel_size: int = 3
    embedding_dim: int = 16
    num_classes: int = NUM_EXPRESSIONS

    def __post_init__(self):
        H, W, _ = self.image_shape
        if self.num_classes != NUM_EXPRESSIONS:
            raise ConfigError(f"expression head must output {NUM_EXPRESSIONS} logits")
        if len(self.conv_channels) < 1:
            raise ConfigError("need at least one conv stage")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be at least 2")
        factor = 2 ** len(self.conv_channels)
        if H % factor or W % factor:
            raise ConfigError(
                f"image shape {self.image_shape} not divisible by the pooling "
                f"factor {factor} of {len(self.conv_channels)} conv stages"
            )


class FaceModel:
    """Expression classifier whose penultimate layer is the face feature.

    The last feature map is flattened, not globally pooled, before the
    embedding layer: expression signals here are fixed spatial patterns with
    near-zero spatial mean, which pooling would cancel.
    """

    def __init__(self, cfg: FaceBackboneConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        c_in = cfg.image_shape[2]
        self.stages = []
        for c_out in cfg.conv_channels:
            self.stages.append(
                (ndnn.Conv2d(c_in, c_out, cfg.kernel_size, rng), ndnn.ReLU(), ndnn.AvgPool2d(2))
            )
            c_in = c_out
        factor = 2 ** len(cfg.conv_channels)
        flat_dim = cfg.conv_channels[-1] * (cfg.image_shape[0] // factor) * (
            cfg.image_shape[1] // factor
        )
        self.embed = ndnn.Dense(flat_dim, cfg.embedding_dim, rng)
        self.head = ndnn.Dense(cfg.embedding_dim, cfg.num_classes, rng)

    def layers(self):
        out = []
        for conv, relu, pool in self.stages:
            out.extend([conv, relu, pool])
        out.extend([self.embed, self.head])
        return out

    def trainable_layers(self):
        return [layer for layer in self.layers() if layer.params]

    def forward(self, images_bchw: np.ndarray):
        h = images_bchw
        caches = []
        for conv, relu, pool in self.stages:
            h, c1 = conv.forward(h)
            h, c2 = relu.forward(h)
            h, c3 = pool.forward(h)
            caches.append((c1, c2, c3))
        map_shape = h.shape
        flat = h.reshape(h.shape[0], -1)
        emb, emb_cache = self.embed.forward(flat)
        logits, head_cache = self.head.forward(emb)
        return logits, emb, (caches, map_shape, emb_cache, head_cache)

    def backward(self, grad_logits, cache):
        caches, map_shape, emb_cache, head_cache = cache
        g = self.head.backward(grad_logits, head_cache)
        g = self.embed.backward(g, emb_cache)
        g = g.reshape(map_shape)
        for (conv, relu, pool), (c1, c2, c3) in zip(reversed(self.stages), reversed(caches)):
            g = pool.backward(g, c3)
            g = relu.backward(g, c2)
            g = conv.backward(g, c1)
        return g

    def embeddings(self, images_bhwc: np.ndarray) -> np.ndarray:
        _, emb, _ = self.forward(images_to_bchw(images_bhwc))
        return emb

    def parameter_count(self) -> int:
        return sum(p.size for layer in self.trainable_layers() for p in layer.params.values())

    def named_layers(self) -> dict:
        """Checkpoint names: ``layerNN`` over the trainable layers."""
        return {f"layer{i:02d}": layer for i, layer in enumerate(self.trainable_layers())}

    def checksum(self) -> str:
        return ndnn.params_checksum(ndnn.state_dict(self.named_layers()))


def images_to_bchw(images_bhwc: np.ndarray) -> np.ndarray:
    if images_bhwc.ndim != 4:
        raise ShapeError(f"images must be (B, H, W, C), got shape {images_bhwc.shape}")
    return np.ascontiguousarray(images_bhwc.transpose(0, 3, 1, 2))


def augment_with_synthesized(
    neutral: ImageTensor,
    directions: dict[str, DirectionVector],
    generator: Generator,
    strength: float,
    extractor: PerceptualExtractor | None = None,
    config: InversionConfig = InversionConfig(),
) -> list[tuple[ImageTensor, str]]:
    """Synthesize the six non-neutral expressions from one neutral face.

    Inverts the neutral image once, then decodes the inverted latent moved
    by ``strength`` along each neutral-to-expression direction. Returns
    (image, expression-name) pairs in canonical expression order.
    """
    wanted = [e for e in EXPRESSIONS if e != "neutral"]
    missing = [e for e in wanted if e not in directions]
    if missing:
        raise ConfigError(f"directions missing for expressions: {missing}")
    for name in wanted:
        d = directions[name]
        if d.source != "neutral" or d.target != name:
            raise ConfigError(
                f"direction for {name!r} is tagged {d.source!r} -> {d.target!r}; "
                f"expected 'neutral' -> {name!r}"
            )
    inversion = invert(neutral, generator, extractor, config)
    out = []
    for name in wanted:
        image = synthesize(inversion.latent, directions[name], strength, generator)
        out.append((image, name))
    return out


@dataclass(frozen=True)
class ExpressionReport:
    """Accuracy report in the usual benchmark-table layout."""

    model_name: str
    parameter_count: int
    parameter_megabytes: float
    train_accuracy: float
    test_accuracy: float
    train_size: int
    test_size: int

    def format_table(self) -> str:
        header = f"{'Model':<16} {'Parameters':>12} {'Train Acc.':>11} {'Test Acc.':>10}"
        row = (
            f"{self.model_name:<16} {self.parameter_megabytes:>10.2f}MB "
            f"{self.train_accuracy:>11.4f} {self.test_accuracy:>10.4f}"
        )
        return header + "\n" + row


def stratified_split(labels: np.ndarray, test_fraction: float, rng: np.random.Generator):
    """Per-class shuffled split; every class lands in both halves."""
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise ShapeError(
                f"class {cls} has {idx.size} sample(s); need at least 2 to split "
                "without an empty test class"
            )
        idx = rng.permutation(idx)
        n_test = max(1, int(round(idx.size * test_fraction)))
        if n_test >= idx.size:
            n_test = idx.size - 1
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    return np.asarray(sorted(train_idx)), np.asarray(sorted(test_idx))


@dataclass(frozen=True)
class FaceTrainOptions:
    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 0.003
    test_fraction: float = 0.2
    seed: int = 0


def train_expression_classifier(
    images: np.ndarray,
    labels: np.ndarray,
    cfg: FaceBackboneConfig = FaceBackboneConfig(),
    opts: FaceTrainOptions = FaceTrainOptions(),
) -> tuple[FaceModel, ExpressionReport]:
    """Train the backbone on labeled expression images with a 4:1 split.

    ``images`` is (N, H, W, C) in [0, 1]; ``labels`` are expression indices.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if images.ndim != 4 or images.shape[1:] != tuple(cfg.image_shape):
        raise ShapeError(
            f"images must be (N, {cfg.image_shape[0]}, {cfg.image_shape[1]}, "
            f"{cfg.image_shape[2]}), got {images.shape}"
        )
    if labels.shape != (images.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match {images.shape[0]} images")
    if np.unique(labels).size < 2:
        raise ShapeError("need at least two expression classes to train")

    rng = np.random.default_rng(opts.seed)
    train_idx, test_idx = stratified_split(labels, opts.test_fraction, rng)
    x_train = images_to_bchw(images[train_idx])
    y_train = labels[train_idx]
    x_test = images_to_bchw(images[test_idx])
    y_test = labels[test_idx]

    model = FaceModel(cfg, seed=opts.seed)

    def forward(idx):
        logits, _, cache = model.forward(x_train[idx])
        return logits, y_train[idx], lambda grad_logits: model.backward(grad_logits, cache)

    ndnn.fit(
        model.trainable_layers(), x_train.shape[0], forward, opts.epochs, opts.batch_size,
        opts.learning_rate, rng,
    )

    def accuracy(x, y):
        preds = []
        for start in range(0, x.shape[0], 256):
            logits, _, _ = model.forward(x[start : start + 256])
            preds.append(logits.argmax(axis=1))
        return float((np.concatenate(preds) == y).mean())

    count = model.parameter_count()
    report = ExpressionReport(
        model_name="conv-small",
        parameter_count=count,
        parameter_megabytes=count * 8 / 1e6,
        train_accuracy=accuracy(x_train, y_train),
        test_accuracy=accuracy(x_test, y_test),
        train_size=int(train_idx.size),
        test_size=int(test_idx.size),
    )
    return model, report


def extract_face_features(images: np.ndarray, model: FaceModel) -> np.ndarray:
    """Mean embedding of a subject's face images, shape (embedding_dim,).

    Reads the model without mutating it.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        images = images[None]
    if images.shape[0] == 0:
        raise ShapeError("need at least one face image")
    if images.shape[1:] != tuple(model.cfg.image_shape):
        raise ShapeError(
            f"face images have shape {images.shape[1:]}, model expects {model.cfg.image_shape}"
        )
    return model.embeddings(images).mean(axis=0)
