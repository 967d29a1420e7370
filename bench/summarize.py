"""Summarize the result files that ``bench/run.py`` wrote under ``bench/results/``.

    python3 bench/summarize.py

Prints, per workload: each end-to-end metric's median over the untraced runs
and its spread (distance between the first and third quartile over the
median), the tracing overhead (traced over untraced medians, for the
metrics a traced run also measures), and each module's share of the
workload's own timed rounds in the traced runs.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    runs = defaultdict(list)
    for path in sorted(RESULTS.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("size", "full") == "full":
            runs[(record["workload"], record["trace"])].append(record)
    for workload in ("compare", "screen", "augment"):
        plain, traced = runs[(workload, 0)], runs[(workload, 1)]
        if not plain:
            continue
        seeds = sorted(r["seed"] for r in plain)
        print(f"\n{workload}: {len(plain)} untraced runs, seeds {seeds}; {len(traced)} traced")
        medians = {}
        for name in plain[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in plain]
            medians[name] = statistics.median(values)
            unit = plain[0]["metrics"][name]["unit"]
            print(f"  {name:<24} {medians[name]:>12.5g} {unit:<11} spread {spread(values):.3f}")
        for name in sorted({k for r in traced for k in r["end_to_end_under_trace"]}):
            if name in ("setup_s", "peak_rss_mb"):
                continue
            under = statistics.median(r["end_to_end_under_trace"][name]["value"] for r in traced)
            print(f"  tracing overhead {name:<24} {under / medians[name] - 1:+.1%}")
        if traced:
            shares = defaultdict(list)
            for r in traced:
                timed = r["module_shares"]["phase.timed"]
                for module, seconds in timed["modules"].items():
                    shares[module].append(seconds / timed["seconds"])
            cells = sorted(((statistics.mean(v), m) for m, v in shares.items()), reverse=True)
            print("  timed rounds by module: " + ", ".join(f"{m} {s:.1%}" for s, m in cells))


if __name__ == "__main__":
    main()
