#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results: parent vs change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds the results JSON files run.sh writes (one per run,
named <workload>-s<seed>-<e2e|trace>.json). Runs of the two sides are paired
by (workload, seed); run at least ten pairs, alternating which side runs
first (README.md). For every workload x end-to-end metric this prints each
side's median and quartiles, the share of pairs the change wins, and a
verdict against the metric's bound from BENCHMARK.json:

  improved    over at least ten pairs, the change wins >= 90% of them and
              the medians differ by more than the parent's own quartile
              spread; or, where the spread is wider than the bound, every
              change run beats every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  the run-to-run spread (IQR / median) of either side is wider
              than the bound, so "no worse" cannot be shown
  no-worse    none of the above

A metric in ABS_FLOOR may also move by that absolute amount. Each workload
additionally gets a row with verdict

  failed      the change has more failed or missing runs than the parent
              (a run that failed the correctness gate has no metrics, and
              one that crashed wrote no file)
  mismatched  the runs differ in run length or thread count, so their
              numbers are not comparable; its metrics are not compared

Tail metrics and per-layer metrics (from --trace runs) are summarised
without a verdict.
The exit status is 1 when any verdict is "regressed", "failed" or
"mismatched".
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Absolute allowances on top of the relative bounds in BENCHMARK.json. Set-up
# takes a fraction of a millisecond to a few milliseconds, where a relative
# bound alone would flag a few microseconds of noise.
ABS_FLOOR = {"setup_s": 0.05}
FAILING = ("regressed", "failed", "mismatched")


def new_side():
    return {"runs": {}, "seeds": set(), "failed": set(), "shapes": set()}


def load_runs(directory):
    """{(mode, workload): side}. A side holds the correct runs' metrics by
    seed, every seed seen, the seeds whose run failed, and the run shapes
    (seconds, threads) seen."""
    sides = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        header = doc["header"]
        side = sides.setdefault((header["mode"], header["workload"]), new_side())
        seed = header["seed"]
        side["seeds"].add(seed)
        side["shapes"].add((header.get("seconds"), header.get("threads")))
        if not doc.get("correct"):
            side["failed"].add(seed)
            continue
        values = {name: m["value"] for name, m in doc["metrics"].items()}
        values.update({name: m["value"] for name, m in doc.get("tail_metrics", {}).items()})
        side["runs"][seed] = values
    return sides


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(delta, base):
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def verdict(parent, change, pairs, better, bound, floor=0.0):
    """Verdict for one metric. `pairs` is a list of (parent, change) values."""
    lower = better == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)

    def beats(a, b):  # a reads better than b
        return a < b if lower else a > b

    decided = [(p, c) for p, c in pairs if p != c]
    wins = sum(1 for p, c in decided if beats(c, p))
    win_share = wins / len(decided) if decided else 0.0
    every_run_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    spread = max(relative(p_q3 - p_q1, p_med), relative(c_q3 - c_q1, c_med))
    worsening = relative(c_med - p_med if lower else p_med - c_med, p_med)
    limit = max(bound, relative(floor, p_med))

    enough_pairs = len(pairs) >= MIN_PAIRS
    if spread > limit:
        result = "improved" if every_run_better and enough_pairs else "unresolved"
    elif worsening > limit:
        result = "regressed"
    elif (enough_pairs and win_share >= WIN_SHARE and beats(c_med, p_med)
          and abs(c_med - p_med) > p_q3 - p_q1):
        result = "improved"
    else:
        result = "no-worse"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "pairs": len(pairs),
        "win_share": win_share,
        "delta": relative(c_med - p_med, p_med),
        "spread": spread,
        "verdict": result,
    }


def compare(parent_sides, change_sides, spec):
    """Rows of (mode, workload, metric, stats): a "runs" row where a workload
    failed or is mismatched, then one row per metric both sides ran."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for key in sorted(set(parent_sides) | set(change_sides)):
        mode, workload = key
        p = parent_sides.get(key, new_side())
        c = change_sides.get(key, new_side())
        p_bad = len(p["failed"]) + len(c["seeds"] - p["seeds"])
        c_bad = len(c["failed"]) + len(p["seeds"] - c["seeds"])
        if c_bad > p_bad:
            rows.append((mode, workload, "runs", {
                "verdict": "failed",
                "note": f"failed or missing runs: parent {p_bad}, change {c_bad}"}))
        shapes = p["shapes"] | c["shapes"]
        if len(shapes) > 1:
            rows.append((mode, workload, "runs", {
                "verdict": "mismatched",
                "note": "(seconds, threads) differ: " + ", ".join(map(str, sorted(shapes, key=str)))}))
            continue
        p_runs, c_runs = p["runs"], c["runs"]
        names = sorted({n for v in p_runs.values() for n in v} & {n for v in c_runs.values() for n in v})
        for name in names:
            parent = [v[name] for v in p_runs.values() if name in v]
            change = [v[name] for v in c_runs.values() if name in v]
            pairs = [(p_runs[s][name], c_runs[s][name])
                     for s in sorted(set(p_runs) & set(c_runs))
                     if name in p_runs[s] and name in c_runs[s]]
            if mode == "e2e" and name in e2e:
                stats = verdict(parent, change, pairs, e2e[name]["better"], e2e[name]["bound"],
                                ABS_FLOOR.get(name, 0.0))
            else:
                stats = {"parent": quartiles(parent), "change": quartiles(change),
                         "pairs": len(pairs), "verdict": "-"}
                stats["delta"] = relative(stats["change"][1] - stats["parent"][1],
                                          stats["parent"][1])
            rows.append((mode, workload, name, stats))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=str(Path(__file__).resolve().parents[2] / "BENCHMARK.json"),
                    help="BENCHMARK.json holding the end-to-end bounds")
    args = ap.parse_args(argv)

    spec = json.loads(Path(args.bench).read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no results on either side")
        return 1

    fmt = "{:<6} {:<12} {:<32} {:>32} {:>32} {:>8} {:>5} {:>6} {:<10}"
    print(fmt.format("mode", "workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "delta", "pairs", "wins", "verdict"))
    short = set()
    for mode, workload, name, s in rows:
        if "note" in s:
            print(f"{mode:<6} {workload:<12} {name:<32} {s['note']:<91} {s['verdict']}")
            continue
        side = "{:.5g} [{:.5g}, {:.5g}]"
        p, c = s["parent"], s["change"]
        wins = f"{100 * s['win_share']:.0f}%" if "win_share" in s else "-"
        print(fmt.format(mode, workload, name, side.format(p[1], p[0], p[2]),
                         side.format(c[1], c[0], c[2]), f"{100 * s['delta']:+.1f}%",
                         s["pairs"], wins, s["verdict"]))
        if mode == "e2e" and s["pairs"] < MIN_PAIRS:
            short.add(workload)
    for workload in sorted(short):
        print(f"note: {workload} has fewer than {MIN_PAIRS} parent/change pairs")
    return 1 if any(s["verdict"] in FAILING for *_, s in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
