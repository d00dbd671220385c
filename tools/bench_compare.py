#!/usr/bin/env python3
"""Diff fresh BENCH_*.json results against the committed baselines.

Usage:
    tools/bench_compare.py [--fresh-dir DIR] [--baseline-dir DIR]
                           [--threshold FRAC] [--strict] [name ...]

Compares every requested bench (default: table1, micro, weight_update,
experiment_throughput) whose BENCH_<name>.json exists in BOTH directories; table1 carries the paper's
Table I rows (per-iteration filter and mean-shift time vs NP and threads),
micro the per-primitive seconds_per_op rows of bench_micro (grid index
queries and re-filing, the local resample, normal and Poisson sampling,
one filter iteration).
Rows are matched on (scenario, config, metric, threads); the direction of
"better" is inferred from the metric name (rates and speedups up, times and
errors down). Changes beyond the threshold (default 15%) are printed as
REGRESSION or IMPROVEMENT lines.

The exit code is informational by default (always 0, so tools/check.sh can
surface regressions without failing the gauntlet — bench numbers from smoke
runs or loaded machines are noisy); pass --strict to exit 1 when any
regression is flagged. Rows present on only one side are reported but never
flagged: tier sweeps legitimately differ across hosts (a scalar-only machine
emits no simd:avx2 rows), which is also why baselines record `host_simd`.
"""

import argparse
import json
import os
import sys

DEFAULT_BENCHES = [
    "table1",
    "micro",
    "weight_update",
    "experiment_throughput",
]

# Metric-name fragments that identify the "bigger is better" direction.
HIGHER_IS_BETTER = ("per_sec", "speedup", "throughput", "frac")
LOWER_IS_BETTER = ("sec_per", "seconds_per", "_ms", "_us", "_seconds", "error", "rmse", "nll")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for r in doc.get("results", []):
        key = (r.get("scenario"), r.get("config"), r.get("metric"), r.get("threads"))
        rows[key] = r.get("value")
    return doc, rows


def direction(metric):
    name = (metric or "").lower()
    if any(tag in name for tag in HIGHER_IS_BETTER):
        return +1
    if any(tag in name for tag in LOWER_IS_BETTER):
        return -1
    return 0  # unknown: report the change, flag nothing


def compare_bench(name, fresh_dir, baseline_dir, threshold):
    fresh_path = os.path.join(fresh_dir, f"BENCH_{name}.json")
    base_path = os.path.join(baseline_dir, f"BENCH_{name}.json")
    if not os.path.exists(base_path):
        print(f"[{name}] no committed baseline at {base_path}; skipping")
        return 0
    if not os.path.exists(fresh_path):
        print(f"[{name}] no fresh results at {fresh_path}; skipping")
        return 0

    base_doc, base_rows = load_rows(base_path)
    fresh_doc, fresh_rows = load_rows(fresh_path)
    if fresh_doc.get("smoke") and not base_doc.get("smoke"):
        print(f"[{name}] note: fresh results are from a --smoke run; expect noise")
    if fresh_doc.get("host_simd") != base_doc.get("host_simd"):
        print(
            f"[{name}] note: host_simd differs "
            f"(baseline {base_doc.get('host_simd')!r}, fresh {fresh_doc.get('host_simd')!r})"
        )

    regressions = 0
    for key in sorted(base_rows, key=str):
        scenario, config, metric, threads = key
        label = f"{scenario} | {config} | {metric} | threads={threads}"
        if key not in fresh_rows:
            print(f"[{name}] only in baseline: {label}")
            continue
        old, new = base_rows[key], fresh_rows[key]
        if old is None or new is None or old == 0:
            continue
        change = (new - old) / abs(old)
        sign = direction(metric)
        flagged = sign != 0 and sign * change < -threshold
        improved = sign != 0 and sign * change > threshold
        if flagged:
            regressions += 1
            tag = "REGRESSION "
        elif improved:
            tag = "IMPROVEMENT"
        else:
            continue
        print(f"[{name}] {tag} {change:+7.1%}  {label}  ({old:.6g} -> {new:.6g})")
    for key in sorted(set(fresh_rows) - set(base_rows), key=str):
        scenario, config, metric, threads = key
        print(f"[{name}] new row (no baseline): {scenario} | {config} | {metric}")
    if regressions == 0:
        print(f"[{name}] no regressions beyond {threshold:.0%}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("benches", nargs="*", default=None, help="bench names (BENCH_<name>.json)")
    ap.add_argument("--fresh-dir", default=".", help="directory with fresh BENCH_*.json")
    ap.add_argument("--baseline-dir", default=None, help="directory with committed baselines "
                    "(default: repo root, inferred from this script's location)")
    ap.add_argument("--threshold", type=float, default=0.15, help="flag fraction (default 0.15)")
    ap.add_argument("--strict", action="store_true", help="exit 1 when regressions are flagged")
    args = ap.parse_args()

    baseline_dir = args.baseline_dir
    if baseline_dir is None:
        baseline_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    benches = args.benches or DEFAULT_BENCHES

    total = 0
    for name in benches:
        total += compare_bench(name, args.fresh_dir, baseline_dir, args.threshold)
    if total:
        print(f"bench_compare: {total} regression(s) beyond threshold (informational)")
    return 1 if (args.strict and total) else 0


if __name__ == "__main__":
    sys.exit(main())
