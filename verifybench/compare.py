#!/usr/bin/env python3
"""Compares two result sets of verifybench/run.py (stdlib only).

A result set is the JSON-lines file that `run.py --record FILE` appends to,
one line per run. Record both commits with the same seeds and settings,
alternating which commit runs first.

    python3 verifybench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 verifybench/compare.py --summary RUNS.jsonl

Comparison, per workload and end-to-end metric (bounds and directions from
BENCHMARK.json), pairing the i-th parent run with the i-th change run:

    improved     the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 interquartile range
    regressed    the change's median is worse than the parent's by more
                 than the bound
    unresolved   the parent's spread (interquartile range over median) is
                 wider than the bound, and not every change run beats every
                 parent run
    within bound otherwise

Exits 1 if anything regressed. --summary prints medians and quartiles per
workload and metric as JSON (end-to-end metrics from untraced runs,
per-layer metrics from traced runs).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path, trace):
    """{workload: [metrics dict, ...]} for the runs with the given trace flag."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"] == trace:
            runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p, c = summarize(parent), summarize(change)
    pairs = list(zip(parent, change))
    wins = sum(better(cv, pv, direction) for pv, cv in pairs)
    sign = 1.0 if direction == "lower" else -1.0
    worse_by = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    dominates = all(better(cv, pv, direction) for cv in change for pv in parent)
    if p["spread"] > bound and not dominates:
        label = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and abs(c["median"] - p["median"]) > p["q3"] - p["q1"] \
            and worse_by < 0:
        label = "improved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "within bound"
    return p, c, wins, len(pairs), worse_by, label


def compare(parent_path, change_path):
    benchmark = json.loads(BENCHMARK.read_text())
    parent, change = load(parent_path, 0), load(change_path, 0)
    regressed = False
    for workload in sorted(parent.keys() & change.keys()):
        print(f"{workload}")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            pv = [m[name]["value"] for m in parent[workload]]
            cv = [m[name]["value"] for m in change[workload]]
            p, c, wins, n, worse_by, label = verdict(pv, cv, spec["better"], spec["bound"])
            regressed |= label == "regressed"
            print(f"  {name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {spec['unit']}"
                  f"  worse by {100 * worse_by:+.1f}% (bound {100 * spec['bound']:.0f}%)"
                  f"  wins {wins}/{n}  {label}")
    for workload in sorted(parent.keys() ^ change.keys()):
        print(f"{workload}: only in one result set, not compared")
    return 1 if regressed else 0


def summary(path):
    out = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload, runs in load(path, trace).items():
            names = runs[0].keys()
            out.setdefault(workload, {})[section] = {
                name: summarize([m[name]["value"] for m in runs]) | {"unit": runs[0][name]["unit"]}
                for name in names}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+", type=Path)
    ap.add_argument("--summary", action="store_true")
    args = ap.parse_args()
    if args.summary:
        if len(args.files) != 1:
            ap.error("--summary takes one result set")
        sys.exit(summary(args.files[0]))
    if len(args.files) != 2:
        ap.error("give PARENT.jsonl CHANGE.jsonl")
    sys.exit(compare(args.files[0], args.files[1]))


if __name__ == "__main__":
    main()
