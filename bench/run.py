"""Benchmark of pdfuse's three user paths: compare, screen and augment.

    python3 bench/run.py --workload compare --seed 0 --seconds 8 --trace 0

Run from the root of a checkout; pdfuse is imported from ``src/`` there. A
run writes its generated benchmark under ``bench/work/`` (removed at exit)
and its result file under ``bench/results/``. Standard output lists every
metric by name and unit, and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, so every run uses the same count
# and never more than the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compare", "screen", "augment")

# Spans a traced run must record at least once. Every run passes through all
# three paths (its own and the two companions), so every workload expects
# every span. A zero means a wrapper was bypassed (for example a binding that
# was not patched).
EXPECTED_SPANS = [
    "synthetic_bench.build_benchmark",
    "synthetic_bench.simulate_gait",
    "synthetic_bench.ToyGenerator.forward",
    "gait_features.save_keypoints",
    "io.save_image",
    "manifest.load_manifest",
    "face_features.train_expression_classifier",
    "face_features.FaceModel.forward",
    "face_features.FaceModel.backward",
    "face_features.extract_face_features",
    "gait_features.load_keypoints",
    "gait_features.preprocess",
    "gait_features.train_gait_classifier",
    "gait_features.GaitModel.forward",
    "gait_features.GaitModel.backward",
    "gait_features.gait_forward",
    "io.load_image",
    "fusion.train_fusion",
    "ndnn.Adam.step",
    "ndnn.cross_entropy",
] + [
    f"ndnn.{layer}.{d}"
    for layer in ("SpatialGraphConv", "TemporalConv", "TemporalMaxPool", "Conv2d", "AvgPool2d", "Dense", "ReLU", "GlobalAvgPool")
    for d in ("fwd", "bwd")
] + [
    "evaluation.compare_unimodal",
    "evaluation.train_linear_head",
    "evaluation.evaluate",
    "fusion.predict_subject",
    "fusion.subject_features",
    "fusion.hybrid_fuse",
    "direction_discovery.fit_direction",
    "latent_editing.invert",
    "latent_editing.synthesize",
    "synthetic_bench.ToyGenerator.backward",
]
EXPECTED_BINDINGS = (
    ["pdfuse.synthetic_bench.save_keypoints", "pdfuse.synthetic_bench.save_image", "pdfuse.synthetic_bench.simulate_gait"]
    + [
        f"pdfuse.evaluation.{name}"
        for name in ("load_keypoints", "preprocess", "load_image", "extract_face_features", "train_gait_classifier", "train_fusion", "hybrid_fuse", "train_linear_head", "predict_subject")
    ]
    + [f"pdfuse.fusion.{name}" for name in ("load_keypoints", "preprocess", "load_image", "extract_face_features", "subject_features", "hybrid_fuse", "predict_subject")]
    + ["pdfuse.face_features.invert", "pdfuse.face_features.synthesize"]
)


def blas_info(np) -> dict:
    """BLAS name, version and the thread count it reports (None if unreadable)."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for lib in (p for d in libdirs for p in sorted(glob.glob(str(d / "*openblas*")))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "smoke", "criterion7"),
        default="full",
        help="smoke: smallest inputs, for tests; criterion7: compare at the acceptance gate's scale",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pdfuse").is_dir():
        print(f"error: no pdfuse sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads

    sizes = {"smoke": workloads.SMOKE, "criterion7": workloads.CRITERION7}.get(args.size, workloads.SIZES[args.workload])
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, sizes, workdir, tracer)
    blas = blas_info(np)
    started = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            setup_s, timed_s = workloads.run_workload(run, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall_s = time.perf_counter() - started
    rss = workloads.peak_rss_mb()

    run.check(
        "blas_threads_fixed",
        (blas["threads"] in (None, BLAS_THREADS), f"BLAS reports {blas['threads']} threads, set {BLAS_THREADS}"),
    )
    if tracer is not None:
        missing = tracer.missing(EXPECTED_SPANS, EXPECTED_BINDINGS)
        run.check("trace.expected_spans_recorded", (not missing, f"zero calls: {missing}" if missing else "all recorded"))
        metrics = tracer.summary()
    else:
        metrics = run.end_to_end(setup_s, rss)
    correct = all(c["passed"] for c in run.checks)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "sizes": dataclasses.asdict(sizes),
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "checks": run.checks,
        "timed_phase_s": timed_s,
        "wall_s": wall_s,
        "samples": dict(run.samples),
        "metrics": metrics,
    }
    if tracer is not None:
        # Timings of the traced run itself, set against an untraced run's to
        # give the tracing overhead.
        record["end_to_end_under_trace"] = run.end_to_end(setup_s, rss)
        record["module_shares"] = tracer.module_shares()
        record["spans"] = len(tracer.spans)
        record["span_totals"] = tracer.totals()
        record["binding_calls"] = dict(sorted(tracer.binding_calls.items()))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    size = "" if args.size == "full" else f"-{args.size}"
    out = results / f"{args.workload}{size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for c in run.checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"timed phase {timed_s:.3f} s, run {wall_s:.3f} s, result file {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
