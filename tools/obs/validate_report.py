#!/usr/bin/env python3
"""Validate gdp::obs run reports (BENCH_<name>.json) against the schema.

Checks, for each file given on the command line:

  * top level: gdp_obs_schema == 2, string "name", object "meta" of
    string -> string, and exactly the two plane objects "deterministic"
    (counters / gauges / histograms) and "timing" (counters / gauges /
    histograms / spans);
  * counters and gauges map metric names to non-negative integers;
  * histograms carry integer "count" / "sum" and a "pow2_buckets" object
    whose keys are bit-widths 0..64 and whose bucket counts sum to "count";
  * spans carry integer "count" / "total_ns"; when count > 0 they must
    also carry integer "min_ns" / "max_ns" with min_ns <= max_ns <=
    total_ns, and when count == 0 min_ns/max_ns must be absent (an empty
    aggregate has no extrema — schema 2 has no sentinel values);
  * known timing-plane gauges (store residency, quant bracket width) never
    appear on the deterministic plane;
  * every metric table is emitted in sorted key order (the registry is an
    ordered map — out-of-order keys mean the emitter changed and diffs of
    the deterministic plane would churn);
  * known store.* counters sit on their contracted plane: the paging
    traffic (store.chunk_faults / store.chunk_evictions) is scheduling-
    dependent and must stay on the timing plane, while the chunk-shape and
    spill/checkpoint counters are pure functions of the call sequence and
    must stay deterministic — a counter drifting planes would silently
    break the deterministic fingerprint's run-to-run stability;
  * the explorer's footprint gauges (level scratch, rows, keys, slots and
    the interner's peak) are present on the deterministic plane with a
    value above 0 — every report validated here comes from a run that
    explores, so a missing or zero gauge means the accounting broke.

Exit status: 0 when every file validates, 1 otherwise. Stdlib only — this
runs in the bench-smoke CI step with no third-party packages.
"""

from __future__ import annotations

import json
import sys

SCHEMA_VERSION = 2

# Contracted plane placement for the store's counters (store.cpp's
# StoreCounters). Paging traffic depends on the interleaving of the
# parallel kernels' reads; everything else is deterministic.
TIMING_ONLY_COUNTERS = frozenset({
    "store.chunk_faults",
    "store.chunk_evictions",
})
DETERMINISTIC_ONLY_COUNTERS = frozenset({
    "store.chunks_written",
    "store.chunk_bytes",
    "store.chunks_spilled",
    "store.spill_bytes",
    "store.chunks_loaded",
    "store.fingerprint_verifications",
    "store.materializations",
})
# Live-progress gauges sampled by the heartbeat thread: residency follows
# the LRU's fault order and bracket width the sweep schedule — both are
# scheduling-shaped and must never enter the fingerprinted plane.
TIMING_ONLY_GAUGES = frozenset({
    "store.resident_chunks",
    "store.resident_bytes",
    "quant.bracket_width_ppb",
})
# Explore's footprint by structure (level_explore.cpp), all sizes: each
# must be reported, deterministically, and above 0.
EXPLORE_FOOTPRINT_GAUGES = (
    "explore.intern_bytes_peak",
    "explore.key_bytes_peak",
    "explore.level_scratch_bytes_peak",
    "explore.row_bytes_peak",
    "explore.slot_bytes_peak",
)


def _fail(errors: list[str], where: str, message: str) -> None:
    errors.append(f"{where}: {message}")


def _check_metric_table(errors: list[str], where: str, table: object) -> None:
    if not isinstance(table, dict):
        _fail(errors, where, "must be an object")
        return
    for name, value in table.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            _fail(errors, f"{where}.{name}", "must be a non-negative integer")
    keys = list(table.keys())
    if keys != sorted(keys):
        _fail(errors, where, "keys must be in sorted order")


def _check_histograms(errors: list[str], where: str, table: object) -> None:
    if not isinstance(table, dict):
        _fail(errors, where, "must be an object")
        return
    for name, hist in table.items():
        here = f"{where}.{name}"
        if not isinstance(hist, dict):
            _fail(errors, here, "must be an object")
            continue
        for field in ("count", "sum"):
            if not isinstance(hist.get(field), int) or isinstance(hist.get(field), bool):
                _fail(errors, here, f'needs integer "{field}"')
        buckets = hist.get("pow2_buckets")
        if not isinstance(buckets, dict):
            _fail(errors, here, 'needs object "pow2_buckets"')
            continue
        total = 0
        for width, count in buckets.items():
            if not (width.isdigit() and 0 <= int(width) <= 64):
                _fail(errors, here, f'bucket key "{width}" is not a bit-width 0..64')
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                _fail(errors, here, f'bucket "{width}" count must be a non-negative integer')
            else:
                total += count
        if isinstance(hist.get("count"), int) and total != hist["count"]:
            _fail(errors, here, f'bucket counts sum to {total}, "count" says {hist["count"]}')


def _check_spans(errors: list[str], where: str, table: object) -> None:
    if not isinstance(table, dict):
        _fail(errors, where, "must be an object")
        return
    for name, span in table.items():
        here = f"{where}.{name}"
        if not isinstance(span, dict):
            _fail(errors, here, "must be an object")
            continue
        for field in ("count", "total_ns"):
            if not isinstance(span.get(field), int) or isinstance(span.get(field), bool):
                _fail(errors, here, f'needs integer "{field}"')
        count = span.get("count")
        if isinstance(count, int) and not isinstance(count, bool) and count > 0:
            for field in ("min_ns", "max_ns"):
                if not isinstance(span.get(field), int) or isinstance(span.get(field), bool):
                    _fail(errors, here, f'needs integer "{field}" when count > 0')
            mn, mx, total = span.get("min_ns"), span.get("max_ns"), span.get("total_ns")
            if isinstance(mn, int) and isinstance(mx, int) and mn > mx:
                _fail(errors, here, f"min_ns {mn} > max_ns {mx}")
            if isinstance(mx, int) and isinstance(total, int) and mx > total:
                _fail(errors, here, f"max_ns {mx} > total_ns {total}")
        elif count == 0:
            for field in ("min_ns", "max_ns"):
                if field in span:
                    _fail(errors, here,
                          f'"{field}" present on an empty aggregate (count == 0)')
    keys = list(table.keys())
    if keys != sorted(keys):
        _fail(errors, where, "keys must be in sorted order")


def validate(report: object) -> list[str]:
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["top level must be an object"]
    if report.get("gdp_obs_schema") != SCHEMA_VERSION:
        _fail(errors, "gdp_obs_schema",
              f"must be {SCHEMA_VERSION}, got {report.get('gdp_obs_schema')!r}")
    if not isinstance(report.get("name"), str):
        _fail(errors, "name", "must be a string")
    meta = report.get("meta")
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        _fail(errors, "meta", "must be an object of string -> string")

    det = report.get("deterministic")
    if not isinstance(det, dict):
        _fail(errors, "deterministic", "must be an object")
    else:
        _check_metric_table(errors, "deterministic.counters", det.get("counters"))
        _check_metric_table(errors, "deterministic.gauges", det.get("gauges"))
        _check_histograms(errors, "deterministic.histograms", det.get("histograms"))

    timing = report.get("timing")
    if not isinstance(timing, dict):
        _fail(errors, "timing", "must be an object")
    else:
        _check_metric_table(errors, "timing.counters", timing.get("counters"))
        _check_metric_table(errors, "timing.gauges", timing.get("gauges"))
        _check_histograms(errors, "timing.histograms", timing.get("histograms"))
        _check_spans(errors, "timing.spans", timing.get("spans"))

    det_counters = det.get("counters") if isinstance(det, dict) else None
    timing_counters = timing.get("counters") if isinstance(timing, dict) else None
    det_gauges = det.get("gauges") if isinstance(det, dict) else None
    if isinstance(det_counters, dict):
        for name in sorted(TIMING_ONLY_COUNTERS & det_counters.keys()):
            _fail(errors, f"deterministic.counters.{name}",
                  "is scheduling-dependent and belongs on the timing plane")
    if isinstance(timing_counters, dict):
        for name in sorted(DETERMINISTIC_ONLY_COUNTERS & timing_counters.keys()):
            _fail(errors, f"timing.counters.{name}",
                  "is deterministic and must not sit on the timing plane")
    if isinstance(det_gauges, dict):
        for name in sorted(TIMING_ONLY_GAUGES & det_gauges.keys()):
            _fail(errors, f"deterministic.gauges.{name}",
                  "is scheduling-dependent and belongs on the timing plane")
        for name in EXPLORE_FOOTPRINT_GAUGES:
            value = det_gauges.get(name)
            if not isinstance(value, int) or value <= 0:
                _fail(errors, f"deterministic.gauges.{name}",
                      f"must be present and above 0, got {value!r}")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(f"usage: {argv[0]} REPORT.json [REPORT.json ...]", file=sys.stderr)
        return 1
    status = 0
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: cannot load: {err}", file=sys.stderr)
            status = 1
            continue
        errors = validate(report)
        if errors:
            status = 1
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        else:
            print(f"{path}: ok (gdp_obs_schema {SCHEMA_VERSION})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
