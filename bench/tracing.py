"""Spans and counters recorded from outside pdfuse, around its public calls.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and then calls the original.
A function imported with ``from ... import ...`` is looked up by its caller
in the caller's own module, so every such binding gets its own wrapper; the
binding's call count is kept apart so that a missed binding shows as zero
calls. Spans stay in memory until ``summary`` folds them into per-layer
metrics. Nothing under ``src/`` is changed: ``uninstall`` restores every
original.

FLOP and byte counts for the three contraction layers are computed from the
call shapes, not measured: FLOPs are 2 per multiply-add of each contraction,
bytes are the float64 operands read and results written by each contraction
(temporary copies such as padding are not counted).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

from pdfuse import (
    direction_discovery,
    evaluation,
    face_features,
    fusion,
    gait_features,
    io,
    latent_editing,
    manifest,
    ndnn,
    synthetic_bench,
)

F8 = 8


def _spatial_fwd(counters, args, kwargs, result):
    layer, x = args[0], args[1]
    B, C, T, V = x.shape
    P, _, O = layer.params["weight"].shape
    agg, out = P * B * C * T * V, B * O * T * V
    counters["ndnn.SpatialGraphConv.flop"] += 2 * P * V * B * C * T * V + 2 * agg * O
    counters["ndnn.SpatialGraphConv.bytes"] += F8 * (
        (P * V * V + B * C * T * V + agg) + (agg + P * C * O + out)
    )


def _spatial_bwd(counters, args, kwargs, result):
    layer, grad_out, agg_cache = args[0], args[1], args[2]
    B, O, T, V = grad_out.shape
    P, C, _ = layer.params["weight"].shape
    agg, out = agg_cache.size, grad_out.size
    counters["ndnn.SpatialGraphConv.flop"] += 2 * agg * O * 2 + 2 * P * V * V * B * C * T
    counters["ndnn.SpatialGraphConv.bytes"] += F8 * (
        (agg + out + P * C * O) + (out + P * C * O + agg) + (P * V * V + agg + B * C * T * V)
    )


def _temporal_fwd(counters, args, kwargs, result):
    layer, x = args[0], args[1]
    B, C, T, V = x.shape
    K, _, O = layer.params["weight"].shape
    counters["ndnn.TemporalConv.flop"] += K * 2 * B * C * T * V * O
    counters["ndnn.TemporalConv.bytes"] += F8 * K * (B * C * T * V + C * O + B * O * T * V)


def _temporal_bwd(counters, args, kwargs, result):
    layer, grad_out = args[0], args[1]
    B, O, T, V = grad_out.shape
    K, C, _ = layer.params["weight"].shape
    counters["ndnn.TemporalConv.flop"] += K * 2 * (2 * B * C * T * V * O)
    counters["ndnn.TemporalConv.bytes"] += F8 * K * 2 * (B * C * T * V + C * O + B * O * T * V)


def _conv2d_fwd(counters, args, kwargs, result):
    layer, x = args[0], args[1]
    B, C, H, W = x.shape
    O, _, k, _ = layer.params["weight"].shape
    p = layer.pad
    counters["ndnn.Conv2d.flop"] += 2 * B * C * H * W * k * k * O
    counters["ndnn.Conv2d.bytes"] += F8 * (B * C * (H + 2 * p) * (W + 2 * p) + O * C * k * k + B * O * H * W)


def _conv2d_bwd(counters, args, kwargs, result):
    layer, grad_out = args[0], args[1]
    B, O, H, W = grad_out.shape
    _, C, k, _ = layer.params["weight"].shape
    p = layer.pad
    padded = B * C * (H + 2 * p) * (W + 2 * p)
    counters["ndnn.Conv2d.flop"] += 2 * (2 * B * C * H * W * k * k * O)
    counters["ndnn.Conv2d.bytes"] += F8 * (
        (padded + B * O * H * W + O * C * k * k)
        + k * k * (B * O * H * W + O * C + B * C * H * W)
    )


def _keypoint_file(counters, args, kwargs, result):
    counters["gait_features.load_keypoints.bytes"] += os.path.getsize(args[0])


def _image_files(counters, args, kwargs, result):
    path = os.fspath(args[0])
    counters["io.load_image.bytes"] += os.path.getsize(path) + os.path.getsize(path + ".json")


def _windows(counters, args, kwargs, result):
    seq, cfg = args[0], args[1]
    total = gait_features.window_count(seq.num_frames, cfg.window_length, cfg.stride)
    counters["gait_features.windows_kept"] += result.shape[0]
    counters["gait_features.windows_dropped"] += total - result.shape[0]


def _iterations(counters, args, kwargs, result):
    counters["latent_editing.invert.iterations"] += result.iterations


def _epochs(counters, args, kwargs, result):
    counters["direction_discovery.fit_direction.epochs"] += result.diagnostics.epochs_run


# (span name, [(owner, attribute), ...], note). Every owner listed for one
# span is a separate place where callers look the same object up.
TRACED = [
    ("ndnn.SpatialGraphConv.fwd", [(ndnn.SpatialGraphConv, "forward")], _spatial_fwd),
    ("ndnn.SpatialGraphConv.bwd", [(ndnn.SpatialGraphConv, "backward")], _spatial_bwd),
    ("ndnn.TemporalConv.fwd", [(ndnn.TemporalConv, "forward")], _temporal_fwd),
    ("ndnn.TemporalConv.bwd", [(ndnn.TemporalConv, "backward")], _temporal_bwd),
    ("ndnn.Conv2d.fwd", [(ndnn.Conv2d, "forward")], _conv2d_fwd),
    ("ndnn.Conv2d.bwd", [(ndnn.Conv2d, "backward")], _conv2d_bwd),
    *[
        (f"ndnn.{cls.__name__}.{short}", [(cls, method)], None)
        for cls in (ndnn.TemporalMaxPool, ndnn.AvgPool2d, ndnn.Dense, ndnn.ReLU, ndnn.GlobalAvgPool)
        for short, method in (("fwd", "forward"), ("bwd", "backward"))
    ],
    ("ndnn.Adam.step", [(ndnn.Adam, "step")], None),
    ("ndnn.cross_entropy", [(ndnn, "cross_entropy")], None),
    (
        "gait_features.load_keypoints",
        [(gait_features, "load_keypoints"), (fusion, "load_keypoints"), (evaluation, "load_keypoints")],
        _keypoint_file,
    ),
    (
        "gait_features.preprocess",
        [(gait_features, "preprocess"), (fusion, "preprocess"), (evaluation, "preprocess")],
        _windows,
    ),
    ("gait_features.GaitModel.forward", [(gait_features.GaitModel, "forward")], None),
    ("gait_features.GaitModel.backward", [(gait_features.GaitModel, "backward")], None),
    (
        "gait_features.train_gait_classifier",
        [(gait_features, "train_gait_classifier"), (evaluation, "train_gait_classifier")],
        None,
    ),
    ("gait_features.gait_forward", [(gait_features, "gait_forward")], None),
    (
        "gait_features.save_keypoints",
        [(gait_features, "save_keypoints"), (synthetic_bench, "save_keypoints")],
        None,
    ),
    ("face_features.train_expression_classifier", [(face_features, "train_expression_classifier")], None),
    ("face_features.FaceModel.forward", [(face_features.FaceModel, "forward")], None),
    ("face_features.FaceModel.backward", [(face_features.FaceModel, "backward")], None),
    (
        "face_features.extract_face_features",
        [
            (face_features, "extract_face_features"),
            (fusion, "extract_face_features"),
            (evaluation, "extract_face_features"),
        ],
        None,
    ),
    ("io.load_image", [(io, "load_image"), (fusion, "load_image"), (evaluation, "load_image")], _image_files),
    ("io.save_image", [(io, "save_image"), (synthetic_bench, "save_image")], None),
    ("manifest.load_manifest", [(manifest, "load_manifest")], None),
    ("fusion.train_fusion", [(fusion, "train_fusion"), (evaluation, "train_fusion")], None),
    ("fusion.subject_features", [(fusion, "subject_features")], None),
    ("fusion.hybrid_fuse", [(fusion, "hybrid_fuse"), (evaluation, "hybrid_fuse")], None),
    ("fusion.predict_subject", [(fusion, "predict_subject"), (evaluation, "predict_subject")], None),
    ("evaluation.compare_unimodal", [(evaluation, "compare_unimodal")], None),
    ("evaluation.train_linear_head", [(evaluation, "train_linear_head")], None),
    ("evaluation.evaluate", [(evaluation, "evaluate")], None),
    ("synthetic_bench.build_benchmark", [(synthetic_bench, "build_benchmark")], None),
    ("synthetic_bench.simulate_gait", [(synthetic_bench, "simulate_gait")], None),
    ("synthetic_bench.ToyGenerator.forward", [(synthetic_bench.ToyGenerator, "forward")], None),
    ("synthetic_bench.ToyGenerator.backward", [(synthetic_bench.ToyGenerator, "backward")], None),
    ("latent_editing.invert", [(latent_editing, "invert"), (face_features, "invert")], _iterations),
    ("latent_editing.synthesize", [(latent_editing, "synthesize"), (face_features, "synthesize")], None),
    ("direction_discovery.fit_direction", [(direction_discovery, "fit_direction")], _epochs),
]


def binding_name(owner, attribute: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attribute}"
    return f"{owner.__name__}.{attribute}"


# Per-layer metrics: (name, unit, kind, key). Kinds: "total" sums the
# durations of spans named key, "self" sums duration minus child spans,
# "calls" counts those spans, "counter" reads a counter scaled to the unit.
_LAYERS = ("SpatialGraphConv", "TemporalConv", "TemporalMaxPool", "Conv2d", "AvgPool2d", "Dense", "ReLU", "GlobalAvgPool")
PER_LAYER = [
    *[
        row
        for layer in _LAYERS
        for row in (
            (f"ndnn.{layer}.fwd_s", "s", "total", f"ndnn.{layer}.fwd"),
            (f"ndnn.{layer}.bwd_s", "s", "total", f"ndnn.{layer}.bwd"),
            (f"ndnn.{layer}.calls", "count", "calls", f"ndnn.{layer}.fwd"),
        )
    ],
    ("ndnn.Adam.step_s", "s", "total", "ndnn.Adam.step"),
    ("ndnn.Adam.steps", "count", "calls", "ndnn.Adam.step"),
    ("ndnn.cross_entropy_s", "s", "total", "ndnn.cross_entropy"),
    *[
        row
        for layer in ("SpatialGraphConv", "TemporalConv", "Conv2d")
        for row in (
            (f"ndnn.{layer}.gflop", "GFLOP-computed", "counter", f"ndnn.{layer}.flop"),
            (f"ndnn.{layer}.gb", "GB-computed", "counter", f"ndnn.{layer}.bytes"),
        )
    ],
    ("gait_features.load_keypoints_s", "s", "total", "gait_features.load_keypoints"),
    ("gait_features.load_keypoints.calls", "count", "calls", "gait_features.load_keypoints"),
    ("gait_features.load_keypoints.mb", "MB", "counter", "gait_features.load_keypoints.bytes"),
    ("gait_features.preprocess_s", "s", "total", "gait_features.preprocess"),
    ("gait_features.windows_kept", "count", "counter", "gait_features.windows_kept"),
    ("gait_features.windows_dropped", "count", "counter", "gait_features.windows_dropped"),
    ("gait_features.GaitModel.forward_s", "s", "self", "gait_features.GaitModel.forward"),
    ("gait_features.GaitModel.backward_s", "s", "self", "gait_features.GaitModel.backward"),
    ("gait_features.train_gait_classifier_s", "s", "total", "gait_features.train_gait_classifier"),
    ("gait_features.gait_forward_s", "s", "total", "gait_features.gait_forward"),
    ("gait_features.save_keypoints_s", "s", "total", "gait_features.save_keypoints"),
    ("face_features.train_expression_classifier_s", "s", "total", "face_features.train_expression_classifier"),
    ("face_features.FaceModel.forward_s", "s", "self", "face_features.FaceModel.forward"),
    ("face_features.FaceModel.backward_s", "s", "self", "face_features.FaceModel.backward"),
    ("face_features.extract_face_features_s", "s", "total", "face_features.extract_face_features"),
    ("io.load_image_s", "s", "total", "io.load_image"),
    ("io.load_image.calls", "count", "calls", "io.load_image"),
    ("io.load_image.mb", "MB", "counter", "io.load_image.bytes"),
    ("io.save_image_s", "s", "total", "io.save_image"),
    ("manifest.load_manifest_s", "s", "total", "manifest.load_manifest"),
    ("fusion.train_fusion_s", "s", "total", "fusion.train_fusion"),
    ("fusion.subject_features_s", "s", "self", "fusion.subject_features"),
    ("fusion.hybrid_fuse_s", "s", "total", "fusion.hybrid_fuse"),
    ("fusion.predict_subject_s", "s", "self", "fusion.predict_subject"),
    ("evaluation.compare_unimodal_s", "s", "self", "evaluation.compare_unimodal"),
    ("evaluation.train_linear_head_s", "s", "total", "evaluation.train_linear_head"),
    ("evaluation.evaluate_s", "s", "self", "evaluation.evaluate"),
    ("synthetic_bench.build_benchmark_s", "s", "total", "synthetic_bench.build_benchmark"),
    ("synthetic_bench.simulate_gait_s", "s", "total", "synthetic_bench.simulate_gait"),
    ("synthetic_bench.ToyGenerator.forward_s", "s", "total", "synthetic_bench.ToyGenerator.forward"),
    ("synthetic_bench.ToyGenerator.forward.calls", "count", "calls", "synthetic_bench.ToyGenerator.forward"),
    ("synthetic_bench.ToyGenerator.backward_s", "s", "total", "synthetic_bench.ToyGenerator.backward"),
    ("synthetic_bench.ToyGenerator.backward.calls", "count", "calls", "synthetic_bench.ToyGenerator.backward"),
    ("latent_editing.invert_s", "s", "self", "latent_editing.invert"),
    ("latent_editing.invert.iterations", "count", "counter", "latent_editing.invert.iterations"),
    ("latent_editing.synthesize_s", "s", "total", "latent_editing.synthesize"),
    ("direction_discovery.fit_direction_s", "s", "total", "direction_discovery.fit_direction"),
    ("direction_discovery.fit_direction.epochs", "count", "counter", "direction_discovery.fit_direction.epochs"),
]

_SCALE = {"GFLOP-computed": 1e-9, "GB-computed": 1e-9, "MB": 1e-6, "count": 1}


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.binding_calls: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, binding: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer.binding_calls[binding] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                note(tracer.counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """Trace inside a root span ``phase.<name>`` (set-up or the timed phase)."""
        index = len(self.spans)
        span = [f"phase.{name}", time.perf_counter(), 0.0, -1]
        self.spans.append(span)
        self._stack.append(index)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._stack.pop()
            span[2] = time.perf_counter()

    def install(self) -> None:
        for name, bindings, note in TRACED:
            for owner, attribute in bindings:
                original = getattr(owner, attribute)
                self._originals.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, binding_name(owner, attribute), original, note))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), inside in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inside
        return out

    def module_shares(self) -> dict[str, dict]:
        """Per phase: its seconds and each module's self seconds inside it.

        What no traced span covers is reported as ``untraced``: the
        benchmark's own loop and program code outside the traced calls.
        """
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                phase = out.setdefault(name, {"seconds": 0.0, "modules": Counter()})
                phase["seconds"] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                out[self.spans[root[i]][0]]["modules"][name.split(".")[0]] += end - start - child[i]
        for phase in out.values():
            phase["modules"]["untraced"] = phase["seconds"] - sum(phase["modules"].values())
            phase["modules"] = dict(phase["modules"].most_common())
        return out

    def summary(self) -> dict[str, dict]:
        """Every per-layer metric as {"value", "unit"}; unused layers read 0."""
        totals = self.totals()
        empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        metrics = {}
        for name, unit, kind, key in PER_LAYER:
            if kind == "counter":
                value = self.counters[key] * _SCALE[unit]
            else:
                row = totals.get(key, empty)
                value = {"total": row["total_s"], "self": row["self_s"], "calls": row["calls"]}[kind]
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    def missing(self, expected_spans, expected_bindings) -> list[str]:
        """Expected span names and bindings that recorded zero calls."""
        totals = self.totals()
        gone = [name for name in expected_spans if name not in totals]
        gone += [b for b in expected_bindings if self.binding_calls[b] == 0]
        return gone
