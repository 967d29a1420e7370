"""Skeleton-graph gait embeddings.

Takes 17-joint COCO keypoint sequences, normalizes them into fixed-length
windows (mid-hip centered, torso-length scaled), and embeds each window with
stacked spatial-temporal graph blocks: graph convolution over adjacency
partitions, parallel temporal branches concatenated channel-wise, a residual
connection, and a pointwise nonlinearity. Window embeddings are averaged
into one per-subject gait feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ndnn
from .errors import ConfigError, EmptyWindowsError, FormatError, ShapeError
from .manifest import PD_INDEX

NUM_JOINTS = 17

# COCO person skeleton, 0-indexed joint pairs.
COCO_EDGES = (
    (15, 13), (13, 11), (16, 14), (14, 12), (11, 12),
    (5, 11), (6, 12), (5, 6), (5, 7), (6, 8), (7, 9), (8, 10),
    (1, 2), (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6),
)

LEFT_HIP, RIGHT_HIP = 11, 12
LEFT_SHOULDER, RIGHT_SHOULDER = 5, 6

PARTITION_STRATEGIES = ("uniform", "distance")


@dataclass(frozen=True)
class SkeletonSequence:
    """Keypoint sequence, shape (T, 17, 3) with (x, y, confidence) per joint."""

    frames: np.ndarray
    frame_rate: float
    subject_id: str

    def __post_init__(self):
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[1] != NUM_JOINTS or arr.shape[2] != 3:
            raise ShapeError(f"frames must be (T, {NUM_JOINTS}, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ShapeError("sequence must contain at least one frame")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("frames contain non-finite values")
        conf = arr[:, :, 2]
        if conf.min() < 0.0 or conf.max() > 1.0:
            raise ShapeError(
                f"confidence must lie in [0, 1], got range [{conf.min():.4g}, {conf.max():.4g}]"
            )
        if self.frame_rate <= 0.0:
            raise ShapeError(f"frame rate must be positive, got {self.frame_rate}")
        object.__setattr__(self, "frames", arr)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def save_keypoints(seq: SkeletonSequence, path: str | Path, meta: dict | None = None) -> None:
    """Write the text keypoint format.

    Leading ``#`` lines carry metadata; the first data line is the header
    ``subject_id frame_rate num_frames num_joints``; each following line is
    one frame: 51 reals, ``x y confidence`` for joints 0..16 in order.
    """
    path = Path(path)
    lines = []
    meta = dict(meta or {})
    meta.setdefault("format_version", 1)
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append(f"{seq.subject_id} {seq.frame_rate!r} {seq.num_frames} {NUM_JOINTS}")
    for frame in seq.frames:
        lines.append(" ".join(repr(float(v)) for v in frame.ravel()))
    path.write_text("\n".join(lines) + "\n")


def load_keypoints(path: str | Path) -> SkeletonSequence:
    path = Path(path)
    try:
        raw_lines = path.read_bytes().decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read keypoint file {path}: {exc}") from exc
    lines = [ln for ln in raw_lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FormatError(f"keypoint file {path} has no header line")
    header = lines[0].split()
    if len(header) != 4:
        raise FormatError(
            f"keypoint file {path}: header must be "
            f"'subject_id frame_rate num_frames num_joints', got {lines[0]!r}"
        )
    subject_id = header[0]
    try:
        frame_rate = float(header[1])
        num_frames = int(header[2])
        num_joints = int(header[3])
    except ValueError as exc:
        raise FormatError(f"keypoint file {path}: bad header field: {exc}") from exc
    if num_joints != NUM_JOINTS:
        raise FormatError(
            f"keypoint file {path}: header declares {num_joints} joints, expected {NUM_JOINTS}"
        )
    if len(lines) - 1 != num_frames:
        raise FormatError(
            f"keypoint file {path}: header declares {num_frames} frames, found {len(lines) - 1}"
        )
    frames = np.empty((num_frames, NUM_JOINTS, 3))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != NUM_JOINTS * 3:
            raise FormatError(
                f"keypoint file {path}: frame {i} has {len(parts)} values, "
                f"expected {NUM_JOINTS * 3} (joint count mismatch)"
            )
        try:
            frames[i] = np.asarray([float(p) for p in parts]).reshape(NUM_JOINTS, 3)
        except ValueError as exc:
            raise FormatError(f"keypoint file {path}: frame {i}: {exc}") from exc
    try:
        return SkeletonSequence(frames=frames, frame_rate=frame_rate, subject_id=subject_id)
    except ShapeError as exc:
        raise FormatError(f"keypoint file {path}: {exc}") from exc


@dataclass(frozen=True)
class SkeletonGraph:
    """Adjacency partitions for the spatial graph convolution.

    ``partitions`` has shape (P, V, V). The raw symmetric adjacency (without
    self-loops) is kept alongside for inspection and tests.
    """

    strategy: str
    partitions: np.ndarray
    adjacency: np.ndarray

    @property
    def num_partitions(self) -> int:
        return self.partitions.shape[0]

    @property
    def num_joints(self) -> int:
        return self.partitions.shape[1]


def _hop_distances(adjacency: np.ndarray, sources: tuple[int, ...]) -> np.ndarray:
    """Breadth-first hop distance from the nearest source joint."""
    V = adjacency.shape[0]
    dist = np.full(V, np.inf)
    frontier = list(sources)
    for s in sources:
        dist[s] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in range(V):
                if adjacency[u, v] and dist[v] == np.inf:
                    dist[v] = level
                    nxt.append(v)
        frontier = nxt
    return dist


def symmetric_normalized(adjacency_with_self: np.ndarray) -> np.ndarray:
    """D^(-1/2) M D^(-1/2) with zero-degree rows left at zero."""
    deg = adjacency_with_self.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[:, None] * adjacency_with_self * inv_sqrt[None, :]


def row_normalized(adjacency_with_self: np.ndarray) -> np.ndarray:
    """D^(-1) M; rows with edges sum to exactly 1."""
    deg = adjacency_with_self.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    return inv[:, None] * adjacency_with_self


def build_adjacency(strategy: str = "distance") -> SkeletonGraph:
    """Build normalized adjacency partitions for the COCO skeleton.

    ``uniform`` yields a single partition: the symmetric-normalized
    adjacency with self-loops. ``distance`` splits the same normalized
    matrix into self (equal hop distance from the hip center, including the
    diagonal), centripetal (neighbor closer to the hips), and centrifugal
    (neighbor farther) partitions, which sum back to the uniform matrix.
    """
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigError(f"strategy must be one of {PARTITION_STRATEGIES}, got {strategy!r}")
    A = np.zeros((NUM_JOINTS, NUM_JOINTS))
    for i, j in COCO_EDGES:
        A[i, j] = 1.0
        A[j, i] = 1.0
    normalized = symmetric_normalized(A + np.eye(NUM_JOINTS))
    if strategy == "uniform":
        partitions = normalized[None]
    else:
        dist = _hop_distances(A, (LEFT_HIP, RIGHT_HIP))
        d_col = dist[None, :]
        d_row = dist[:, None]
        self_mask = d_row == d_col
        centripetal = d_col < d_row
        centrifugal = d_col > d_row
        partitions = np.stack(
            [normalized * self_mask, normalized * centripetal, normalized * centrifugal]
        )
    return SkeletonGraph(strategy=strategy, partitions=partitions, adjacency=A)


@dataclass(frozen=True)
class BranchSpec:
    """One temporal branch of a block.

    ``kind`` is ``conv`` (temporal convolution with the given kernel and
    dilation), ``pointwise`` (1x1 channel mix), or ``pool`` (1x1 mix
    followed by a temporal max-pool of width 3).
    """

    kind: str
    kernel_size: int = 3
    dilation: int = 1

    def __post_init__(self):
        if self.kind not in ("conv", "pointwise", "pool"):
            raise ConfigError(f"unknown branch kind {self.kind!r}")
        if self.kernel_size % 2 != 1 or self.kernel_size < 1:
            raise ConfigError(f"branch kernel_size must be odd and positive, got {self.kernel_size}")
        if self.dilation < 1:
            raise ConfigError(f"branch dilation must be >= 1, got {self.dilation}")


def default_branches() -> tuple[BranchSpec, ...]:
    return (
        BranchSpec("pointwise"),
        BranchSpec("conv", kernel_size=3, dilation=1),
        BranchSpec("conv", kernel_size=3, dilation=2),
        BranchSpec("pool"),
    )


@dataclass(frozen=True)
class GaitModelConfig:
    """Architecture and preprocessing settings for the gait extractor."""

    channels: tuple[int, ...] = (8, 16)
    branches: tuple[BranchSpec, ...] = field(default_factory=default_branches)
    window_length: int = 64
    stride: int = 32
    min_confidence: float = 0.3
    embedding_dim: int = 16
    partition_strategy: str = "distance"
    in_channels: int = 3

    def __post_init__(self):
        if len(self.channels) < 1:
            raise ConfigError("need at least one block")
        if len(self.branches) < 1:
            raise ConfigError("need at least one temporal branch")
        for c in self.channels:
            if c % len(self.branches) != 0:
                raise ConfigError(
                    f"block channels {c} not divisible by {len(self.branches)} branches; "
                    "branch output channels must sum to the block's output channels"
                )
        if self.window_length < 1 or self.stride < 1:
            raise ConfigError("window_length and stride must be positive")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(f"min_confidence must lie in [0, 1], got {self.min_confidence}")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be positive")
        if self.partition_strategy not in PARTITION_STRATEGIES:
            raise ConfigError(f"unknown partition strategy {self.partition_strategy!r}")


def window_count(num_frames: int, window_length: int, stride: int) -> int:
    """Number of sliding windows: floor((T - T_w) / stride) + 1, 0 if T < T_w."""
    if num_frames < window_length:
        return 0
    return (num_frames - window_length) // stride + 1


def preprocess(seq: SkeletonSequence, cfg: GaitModelConfig) -> np.ndarray:
    """Slice a sequence into normalized windows, shape (n, T_w, 17, 3).

    Per frame the mid-hip (mean of joints 11 and 12) is subtracted from the
    coordinates, making the windows exactly invariant to global translation.
    Coordinates are then divided by the window's mean torso length (mid-hip
    to mid-shoulder), making them exactly invariant to global scaling.
    Confidences pass through untouched. Windows whose mean confidence falls
    below ``cfg.min_confidence`` (or whose torso collapses to zero length)
    are dropped; dropping every window raises EmptyWindowsError listing the
    reason per window.
    """
    T = seq.num_frames
    n = window_count(T, cfg.window_length, cfg.stride)
    if n == 0:
        raise EmptyWindowsError(
            f"sequence {seq.subject_id!r} has {T} frames, shorter than one "
            f"window of {cfg.window_length}",
            diagnostics=[{"window": 0, "reason": "sequence shorter than window"}],
        )
    windows = []
    dropped = []
    for w in range(n):
        start = w * cfg.stride
        chunk = seq.frames[start : start + cfg.window_length].copy()
        mean_conf = float(chunk[:, :, 2].mean())
        if mean_conf < cfg.min_confidence:
            dropped.append(
                {"window": w, "reason": f"mean confidence {mean_conf:.4f} < {cfg.min_confidence}"}
            )
            continue
        mid_hip = chunk[:, (LEFT_HIP, RIGHT_HIP), :2].mean(axis=1)
        mid_shoulder = chunk[:, (LEFT_SHOULDER, RIGHT_SHOULDER), :2].mean(axis=1)
        torso = float(np.linalg.norm(mid_shoulder - mid_hip, axis=1).mean())
        if torso < 1e-8:
            dropped.append({"window": w, "reason": f"mean torso length {torso:.3g} ~ 0"})
            continue
        chunk[:, :, :2] -= mid_hip[:, None, :]
        chunk[:, :, :2] /= torso
        windows.append(chunk)
    if not windows:
        raise EmptyWindowsError(
            f"all {n} windows of sequence {seq.subject_id!r} were dropped",
            diagnostics=dropped,
        )
    return np.stack(windows)


class _Block:
    """Spatial graph conv -> parallel temporal branches -> residual -> ReLU."""

    def __init__(self, graph: SkeletonGraph, in_channels: int, out_channels: int, branches, rng):
        self.spatial = ndnn.SpatialGraphConv(graph.partitions, in_channels, out_channels, rng)
        per_branch = out_channels // len(branches)
        self.branches = []
        for spec in branches:
            if spec.kind == "conv":
                ops = [ndnn.TemporalConv(out_channels, per_branch, spec.kernel_size, spec.dilation, rng)]
            elif spec.kind == "pointwise":
                ops = [ndnn.TemporalConv(out_channels, per_branch, 1, 1, rng)]
            else:
                ops = [
                    ndnn.TemporalConv(out_channels, per_branch, 1, 1, rng),
                    ndnn.TemporalMaxPool(3),
                ]
            self.branches.append(ops)
        self.residual = (
            None if in_channels == out_channels else ndnn.TemporalConv(in_channels, out_channels, 1, 1, rng)
        )
        self.relu = ndnn.ReLU()

    def layers(self):
        out = [self.spatial]
        for ops in self.branches:
            out.extend(ops)
        if self.residual is not None:
            out.append(self.residual)
        return out

    def forward(self, x):
        s, spatial_cache = self.spatial.forward(x)
        branch_outs = []
        branch_caches = []
        for ops in self.branches:
            h = s
            caches = []
            for op in ops:
                h, c = op.forward(h)
                caches.append(c)
            branch_outs.append(h)
            branch_caches.append(caches)
        merged = np.concatenate(branch_outs, axis=1)
        if self.residual is None:
            res, res_cache = x, None
        else:
            res, res_cache = self.residual.forward(x)
        out, relu_cache = self.relu.forward(merged + res)
        sizes = [bo.shape[1] for bo in branch_outs]
        return out, (spatial_cache, branch_caches, res_cache, relu_cache, sizes)

    def backward(self, grad_out, cache):
        spatial_cache, branch_caches, res_cache, relu_cache, sizes = cache
        g = self.relu.backward(grad_out, relu_cache)
        if self.residual is None:
            grad_x = g.copy()
        else:
            grad_x = self.residual.backward(g, res_cache)
        grad_s = None
        offset = 0
        for ops, caches, size in zip(self.branches, branch_caches, sizes):
            gb = g[:, offset : offset + size]
            offset += size
            for op, c in zip(reversed(ops), reversed(caches)):
                gb = op.backward(gb, c)
            grad_s = gb if grad_s is None else grad_s + gb
        grad_x += self.spatial.backward(grad_s, spatial_cache)
        return grad_x


class GaitModel:
    """Window embedder: stacked blocks, global average pool, linear projection."""

    def __init__(self, cfg: GaitModelConfig, graph: SkeletonGraph | None = None, seed: int = 0):
        self.cfg = cfg
        self.graph = graph if graph is not None else build_adjacency(cfg.partition_strategy)
        rng = np.random.default_rng(seed)
        self.blocks = []
        c_in = cfg.in_channels
        for c_out in cfg.channels:
            self.blocks.append(_Block(self.graph, c_in, c_out, cfg.branches, rng))
            c_in = c_out
        self.pool = ndnn.GlobalAvgPool()
        self.project = ndnn.Dense(cfg.channels[-1], cfg.embedding_dim, rng)

    def layers(self):
        out = []
        for block in self.blocks:
            out.extend(block.layers())
        out.append(self.project)
        return out

    def forward(self, windows_bctv: np.ndarray):
        """Embed a batch of windows, (B, C, T, V) -> (B, embedding_dim)."""
        h = windows_bctv
        caches = []
        for block in self.blocks:
            h, c = block.forward(h)
            caches.append(c)
        pooled, pool_cache = self.pool.forward(h)
        emb, proj_cache = self.project.forward(pooled)
        return emb, (caches, pool_cache, proj_cache)

    def backward(self, grad_emb, cache):
        caches, pool_cache, proj_cache = cache
        g = self.project.backward(grad_emb, proj_cache)
        g = self.pool.backward(g, pool_cache)
        for block, c in zip(reversed(self.blocks), reversed(caches)):
            g = block.backward(g, c)
        return g


def windows_to_bctv(windows: np.ndarray) -> np.ndarray:
    """(n, T, V, C) windows -> (n, C, T, V) network layout."""
    if windows.ndim != 4:
        raise ShapeError(f"windows must be 4-D, got shape {windows.shape}")
    return np.ascontiguousarray(windows.transpose(0, 3, 1, 2))


def gait_forward(windows: np.ndarray, model: GaitModel) -> np.ndarray:
    """Mean window embedding for one subject, shape (embedding_dim,)."""
    if windows.shape[0] == 0:
        raise ShapeError("need at least one window")
    emb, _ = model.forward(windows_to_bctv(windows))
    return emb.mean(axis=0)


@dataclass(frozen=True)
class TrainOptions:
    epochs: int = 40
    batch_size: int = 16
    learning_rate: float = 0.003
    seed: int = 0


class GaitClassifier:
    """Gait extractor plus a 2-class linear head (index 0 = PD)."""

    def __init__(self, model: GaitModel, head: ndnn.Dense):
        self.model = model
        self.head = head

    def subject_feature(self, windows: np.ndarray) -> np.ndarray:
        return gait_forward(windows, self.model)

    def named_layers(self) -> dict:
        """Checkpoint names: ``layerNN`` over the extractor's layers, then ``head``."""
        named = {f"layer{i:02d}": layer for i, layer in enumerate(self.model.layers())}
        named["head"] = self.head
        return named

    def checksum(self) -> str:
        return ndnn.params_checksum(ndnn.state_dict(self.named_layers()))


def _stack_subject_windows(per_subject_windows):
    """Concatenate windows and build the (S, B) per-subject averaging matrix."""
    stacked = np.concatenate(per_subject_windows, axis=0)
    total = stacked.shape[0]
    averaging = np.zeros((len(per_subject_windows), total))
    pos = 0
    for i, w in enumerate(per_subject_windows):
        averaging[i, pos : pos + w.shape[0]] = 1.0 / w.shape[0]
        pos += w.shape[0]
    return stacked, averaging


def train_gait_classifier(
    subjects: list[tuple[np.ndarray, int]],
    cfg: GaitModelConfig = GaitModelConfig(),
    opts: TrainOptions = TrainOptions(),
) -> tuple[GaitClassifier, dict]:
    """Train extractor and head end-to-end with cross-entropy.

    ``subjects`` pairs each subject's preprocessed windows (n_i, T_w, 17, 3)
    with a class index. Subjects are shuffled each epoch; a batch stacks its
    subjects' windows, embeds them, averages embeddings per subject, and
    classifies. Returns the classifier and a training trace (per-epoch loss
    and accuracy).
    """
    if len(subjects) < 2:
        raise ShapeError("need at least two subjects to train")
    labels = np.asarray([label for _, label in subjects])
    if len(set(labels.tolist())) < 2:
        raise ShapeError("training manifest contains a single class; need both")
    model = GaitModel(cfg, seed=opts.seed)
    head = ndnn.Dense(cfg.embedding_dim, 2, np.random.default_rng(opts.seed))
    bctv = [windows_to_bctv(w) for w, _ in subjects]

    def forward(idx):
        stacked, averaging = _stack_subject_windows([bctv[i] for i in idx])
        emb, model_cache = model.forward(stacked)
        logits, head_cache = head.forward(averaging @ emb)

        def backward(grad_logits):
            model.backward(averaging.T @ head.backward(grad_logits, head_cache), model_cache)

        return logits, labels[idx], backward

    trace = ndnn.fit(
        model.layers() + [head], len(subjects), forward, opts.epochs, opts.batch_size,
        opts.learning_rate, np.random.default_rng(opts.seed),
    )
    return GaitClassifier(model, head), trace


def classifier_from_arrays(arrays: dict[str, np.ndarray], cfg: GaitModelConfig) -> GaitClassifier:
    model = GaitModel(cfg, seed=0)
    head = ndnn.Dense(cfg.embedding_dim, 2, np.random.default_rng(0))
    clf = GaitClassifier(model, head)
    ndnn.load_state_dict(clf.named_layers(), arrays)
    return clf


def predict_is_pd(logits: np.ndarray) -> bool:
    """Argmax with ties broken toward the PD index; non-finite logits raise."""
    if not np.all(np.isfinite(logits)):
        raise ShapeError(f"logits contain non-finite values: {logits}")
    return bool(logits[PD_INDEX] >= logits.max())
