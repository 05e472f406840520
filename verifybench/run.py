#!/usr/bin/env python3
"""Verification benchmark: time to a certified verdict table.

Usage (from the repository root):

    python3 verifybench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 verifybench/run.py --bless        # re-pin verifybench/expected.json

The users of this engine re-check the paper's verdicts mechanically, so the
end-to-end question is how long a certified verdict table takes and what it
costs in CPU and memory. Each workload is one table, run by the C++ program
(verifybench.cpp) in a fresh process at threads = nproc with every obs plane
off. The run repeats the table in fresh processes until --seconds have
passed (at least MIN_REPS times) and reports medians:

    wall_s       process start to the finished verdict table
    cpu_s        user + system CPU of the process
    peak_rss_mb  ru_maxrss of the process
    setup_s      process start to the first layer call, timed by the
                 parent from just before it spawns the process to the
                 child's READY line. The program's own set-up (topologies
                 and algorithms) takes microseconds, so this is mostly
                 process spawn, exec and dynamic loading; it shows work
                 moved in front of the first layer call.

Every output of every run is checked against expected.json; mismatches are
counted in "failed" against the checks "attempted", never skipped.

Workloads, and why each was chosen:

    theorem2_quant     lr2 and gdp2 on ring(3), ring_pendant(3) (capped),
                       parallel(3), parallel(4): explore, progress verdict and
                       quant::analyze per model. Quant Bellman sweeps take
                       about half the time; the workload for quant changes.
    lockout_matrix     {lr1, lr2, gdp1, gdp2, gdp2c} x {ring(3), parallel(3),
                       ring_pendant(3) (capped)}: explore, progress and
                       per-philosopher lockout verdicts, then a uniform-
                       scheduler sampling campaign. MEC-heavy, no quant.
    store_out_of_core  gdp2 on ring_with_chord(4) explored into spilled
                       chunks, checkpointed, reloaded and resumed to a larger
                       cap, saved again and checked chunk-native under a
                       residency budget. Store I/O and paging; no quant.

Seeds. Only lockout_matrix has randomness: its sampling campaign runs with
seed CAMPAIGN_SEED_BASE + (seed mod CAMPAIGN_SEED_CLASSES), so every seed
maps onto one of a fixed set of campaigns whose aggregates are pinned. The
MDP workloads are exhaustive explorations and analyses; they have no random
input, so the seed does not change them.

--trace 1 makes a separate traced run instead: the table once untraced and
once traced at threads 1 and nproc, with outside timers around every call
into a layer's public functions (each verdict split into reachability, MEC
decomposition and verdict assembly), a snapshot of the obs registry, and the
pool probe. It prints the per-layer metrics of PER_LAYER_UNITS.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
Build output and progress go to stderr. --record FILE also appends the
result, tagged with workload, seed and trace, to FILE as one JSON line;
verifybench/compare.py compares two such files.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "verifybench"
EXE = BUILD_DIR / "verifybench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("theorem2_quant", "lockout_matrix", "store_out_of_core")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
CAMPAIGN_SEED_BASE = 50_000
CAMPAIGN_SEED_CLASSES = 16
# A certified interval is at most this wide; its pinned midpoint must agree
# to the same tolerance.
INTERVAL_TOL = 1e-6

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer_units():
    units = {}
    timed = ["explore.wall_s", "explore.states_per_s", "reach.wall_s", "mec.wall_s",
             "verdict.wall_s", "verdict.assembly_s", "quant.wall_s", "store.save_s",
             "store.load_s", "store.resume_s", "store.bounded_verdict_s", "campaign.wall_s",
             "store.wall_s", "campaign.trials_per_s", "traced.wall_s", "unattributed_s"]
    for name in timed:
        unit = "1/s" if name.endswith("_per_s") else "s"
        units[name + ".t1"] = units[name + ".tN"] = unit
    for layer in ("explore", "reach", "mec", "verdict", "quant", "store", "campaign", "traced"):
        units[layer + ".speedup"] = "x"
    for name in ("explore.calls", "explore.states", "reach.calls", "mec.calls", "mec.components",
                 "verdict.calls", "quant.calls", "quant.quotient_nodes", "quant.sweeps",
                 "quant.sweeps.p_max", "quant.sweeps.p_min", "quant.sweeps.e_min",
                 "quant.sweeps.e_max", "quant.sweeps.p_trap", "quant.stalled_phases",
                 "store.chunk_faults", "store.chunk_evictions", "campaign.trials",
                 "pool.parallel_for_calls"):
        units[name] = "count"
    units.update({"store.spill_bytes": "B", "store.peak_resident_bytes": "B",
                  "pool.call_overhead_us": "us", "pool.loop4m_s": "s", "pool.serial4m_s": "s",
                  "obs.overhead_pct": "%", "obs.mec.decompose_s": "s",
                  "obs.explore.level_s": "s", "obs.quant.analyze_s": "s"})
    return units


PER_LAYER_UNITS = _per_layer_units()


class BenchError(Exception):
    pass


def log(msg):
    print(f"[verifybench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no gdp sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "verifybench",
                  "-j", str(nproc())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def child_env():
    env = dict(os.environ)
    for var in ("GDP_OBS", "GDP_OBS_TIMELINE", "GDP_OBS_PROGRESS"):
        env[var] = "0"
    # glibc raises its mmap threshold each time a large mmapped block is
    # freed, so whether later big vectors land in the heap or in their own
    # mappings depends on allocation history; store_out_of_core's peak RSS
    # flipped between 188 and 232 MB with nothing more than the spill-dir
    # path's length. Pinning the threshold turns that adjustment off. It is
    # pinned at the adjustment's ceiling (32 MiB on 64-bit), where a default
    # run's threshold tends to settle; pinned at the 128 KiB start value,
    # mmap/munmap churn cost lockout_matrix 9% of its wall time.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    return env


def launch(workload, threads, seed=0, spill_dir=None, trace=False, oneshot=False):
    """Runs the C++ program once; returns its timings, rusage and JSON result."""
    argv = [str(EXE), workload, "--threads", str(threads), "--seed", str(seed)]
    if spill_dir is not None:
        argv += ["--spill-dir", str(spill_dir)]
    if trace:
        argv.append("--trace")
    if oneshot:
        argv.append("--oneshot")
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    stamps, lines = {}, []
    try:
        for raw in proc.stdout:
            now = time.monotonic()
            line = raw.decode().strip()
            if line in ("READY", "DONE"):
                stamps[line] = now
            elif line:
                lines.append(line)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    if "READY" not in stamps or "DONE" not in stamps or not lines:
        raise BenchError(f"{' '.join(argv)} ended without a result")
    result = json.loads(lines[-1])
    return {"setup_s": stamps["READY"] - start, "wall_s": stamps["DONE"] - start,
            "table_s": stamps["DONE"] - stamps["READY"],
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "outputs": result["outputs"], "trace": result.get("trace")}


def launch_workload(workload, threads, seed, **kwargs):
    """launch() with the workload's inputs: its campaign seed and, for the
    store workload, a fresh spill directory removed afterwards."""
    campaign_seed = CAMPAIGN_SEED_BASE + seed % CAMPAIGN_SEED_CLASSES
    if workload != "store_out_of_core":
        return launch(workload, threads, campaign_seed, **kwargs)
    spill_root = BUILD_DIR / "spill"
    spill_root.mkdir(parents=True, exist_ok=True)
    spill_dir = tempfile.mkdtemp(prefix="run-", dir=spill_root)
    try:
        return launch(workload, threads, campaign_seed, spill_dir=spill_dir, **kwargs)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


# --- output checks -----------------------------------------------------------

def _float(v):
    return math.inf if v == "inf" else (-math.inf if v == "-inf" else float(v))


def matches(want, got):
    """A pinned number or "inf" stands for a certified interval: width at
    most INTERVAL_TOL, midpoint within INTERVAL_TOL. Anything else (ints,
    strings, uncertified intervals pinned as [lower, upper]) must be equal."""
    if isinstance(got, list) and not isinstance(want, list):
        if len(got) != 2:
            return False
        lo, hi = _float(got[0]), _float(got[1])
        target = _float(want)
        if math.isinf(target):
            return lo == hi == target
        return hi - lo <= INTERVAL_TOL and abs((lo + hi) / 2 - target) <= INTERVAL_TOL
    return want == got


def pins_for(expected, workload, seed):
    entry = expected[workload]
    pins = dict(entry["pins"])
    by_class = entry.get("campaign_by_seed_class")
    if by_class is not None:
        pins.update(by_class[str(seed % CAMPAIGN_SEED_CLASSES)])
    return pins


def check(pins, outputs, label):
    """Returns (attempted, failed); every pin and every unpinned output is
    one check."""
    failed = 0
    for key, want in pins.items():
        got = outputs.get(key)
        if not matches(want, got):
            failed += 1
            log(f"MISMATCH {label}: {key} = {got!r}, pinned {want!r}")
    for key in outputs.keys() - pins.keys():
        failed += 1
        log(f"MISMATCH {label}: unpinned output {key} = {outputs[key]!r}")
    return len(pins) + len(outputs.keys() - pins.keys()), failed


# --- end-to-end run ----------------------------------------------------------

def end_to_end(workload, seed, seconds, pins):
    """Repeats the table in fresh processes for `seconds` (at least MIN_REPS
    times); every metric is the median over the repetitions."""
    threads = nproc()
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(launch_workload(workload, threads, seed))
        log(f"{workload} rep {len(reps)}: wall {reps[-1]['wall_s']:.3f} s")
    attempted = failed = 0
    for i, rep in enumerate(reps):
        a, f = check(pins, rep["outputs"], f"{workload} rep {i + 1}")
        attempted, failed = attempted + a, failed + f
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in END_TO_END_UNITS}
    return attempted, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                               for k, v in metrics.items()}


# --- traced run ----------------------------------------------------------------

def layer_metrics(trace):
    """Per-layer times of one traced run."""
    layers, counts = trace["layers"], trace["counts"]

    def s(name):
        return layers.get(name, {}).get("s", 0.0)

    explore = s("explore") + s("store.resume")
    verdict = s("reach") + s("mec") + s("verdict.assembly")
    store = s("store.save") + s("store.load") + s("store.fingerprint")
    states = counts.get("explore.states", 0.0)
    trials = counts.get("campaign.trials", 0.0)
    attributed = explore + verdict + s("quant") + store + s("campaign")
    return {
        "explore.wall_s": explore,
        "explore.states_per_s": states / explore if explore > 0 else 0.0,
        "reach.wall_s": s("reach"),
        "mec.wall_s": s("mec"),
        "verdict.wall_s": verdict,
        "verdict.assembly_s": s("verdict.assembly"),
        "quant.wall_s": s("quant"),
        "store.save_s": s("store.save"),
        "store.load_s": s("store.load"),
        "store.resume_s": s("store.resume"),
        "store.bounded_verdict_s": s("store.bounded_verdict"),
        "store.wall_s": store,
        "campaign.wall_s": s("campaign"),
        "campaign.trials_per_s": trials / s("campaign") if s("campaign") > 0 else 0.0,
        "traced.wall_s": trace["wall_s"],
        "unattributed_s": trace["wall_s"] - attributed,
    }


def run_pool(threads):
    """The pool probe: parallel_for per-call cost and a 4M-index loop."""
    proc = subprocess.run([str(EXE), "pool", "--threads", str(threads)], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"pool probe exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])["outputs"]


def traced(workload, seed, pins):
    threads = nproc()
    untraced = launch_workload(workload, threads, seed)
    runs = {"t1": launch_workload(workload, 1, seed, trace=True),
            "tN": launch_workload(workload, threads, seed, trace=True)}
    pool = run_pool(threads)
    attempted = failed = 0
    for label, run in [("untraced", untraced)] + list(runs.items()):
        a, f = check(pins, run["outputs"], f"{workload} {label}")
        attempted, failed = attempted + a, failed + f

    per = {tag: layer_metrics(run["trace"]) for tag, run in runs.items()}
    metrics = {f"{name}.{tag}": value for tag, values in per.items()
               for name, value in values.items()}
    for layer in ("explore", "reach", "mec", "verdict", "quant", "store", "campaign", "traced"):
        t1, tn = per["t1"][layer + ".wall_s"], per["tN"][layer + ".wall_s"]
        metrics[layer + ".speedup"] = t1 / tn if tn > 0 else 0.0

    trace = runs["tN"]["trace"]
    counts, counters, spans = trace["counts"], trace["registry"]["counters"], trace["registry"]["spans"]

    def calls(name):
        return trace["layers"].get(name, {}).get("calls", 0)

    metrics.update({
        "explore.calls": calls("explore") + calls("store.resume"),
        "reach.calls": calls("reach"),
        "mec.calls": calls("mec"),
        "quant.calls": calls("quant"),
        "store.chunk_faults": counters.get("store.chunk_faults", 0),
        "store.chunk_evictions": counters.get("store.chunk_evictions", 0),
        "pool.parallel_for_calls": counters.get("pool.parallel_for_calls", 0),
        "pool.call_overhead_us": pool["call_overhead_us"],
        "pool.loop4m_s": pool["loop4m_s"],
        "pool.serial4m_s": pool["serial4m_s"],
        "obs.overhead_pct": 100.0 * (runs["tN"]["table_s"] / untraced["table_s"] - 1.0),
        "obs.mec.decompose_s": spans.get("mec.decompose", {}).get("s", 0.0),
        "obs.explore.level_s": spans.get("explore.level", {}).get("s", 0.0),
        "obs.quant.analyze_s": spans.get("quant.analyze", {}).get("s", 0.0),
    })
    # Quant's work counts are the per-model outputs, summed over models.
    outputs = runs["tN"]["outputs"]

    def output_sum(suffix):
        return sum(v for k, v in outputs.items() if k.endswith(suffix))

    phases = ("p_max", "p_min", "e_min", "e_max", "p_trap")
    metrics.update({f"quant.sweeps.{p}": output_sum(f".sweeps.{p}") for p in phases})
    metrics["quant.sweeps"] = sum(metrics[f"quant.sweeps.{p}"] for p in phases)
    metrics["quant.quotient_nodes"] = output_sum(".quotient_nodes")
    metrics["quant.stalled_phases"] = output_sum(".stalled_phases")
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "B") and name not in metrics:
            metrics[name] = counts.get(name, 0)
    missing = PER_LAYER_UNITS.keys() - metrics.keys()
    if missing:
        raise BenchError(f"per-layer metrics not measured: {sorted(missing)}")
    return attempted, failed, {name: {"value": metrics[name], "unit": unit}
                               for name, unit in PER_LAYER_UNITS.items()}


# --- re-pinning ----------------------------------------------------------------

def pin_value(key, value, outputs):
    """The pin for one output: certified intervals by midpoint ("inf" for a
    certified infinity), everything else verbatim."""
    if not isinstance(value, list):
        return value
    certainty = outputs[key.rsplit(".", 1)[0] + ".certainty"]
    if certainty != "certified":
        return value
    lo, hi = _float(value[0]), _float(value[1])
    if math.isinf(lo) or math.isinf(hi):
        if lo != hi:
            raise BenchError(f"{key}: certified interval {value} is half infinite")
        return value[0]
    if hi - lo > INTERVAL_TOL:
        raise BenchError(f"{key}: certified interval {value} wider than {INTERVAL_TOL}")
    return (lo + hi) / 2


def bless():
    """Re-pins expected.json from the current program. Review the diff: the
    verdicts it records are the paper's claims."""
    threads = nproc()
    expected = {}
    for workload in WORKLOADS:
        outputs = launch_workload(workload, threads, 0,
                                  oneshot=workload == "store_out_of_core")["outputs"]
        if workload == "store_out_of_core":
            oneshot = outputs.pop("oneshot.fingerprint")
            if oneshot != outputs["resumed.fingerprint"]:
                raise BenchError("resumed model's fingerprint differs from a one-shot explore")
        entry = {"pins": {k: pin_value(k, v, outputs) for k, v in outputs.items()}}
        if workload == "lockout_matrix":
            del entry["pins"]["campaign.fingerprint"]
            entry["campaign_by_seed_class"] = {
                str(c): {"campaign.fingerprint":
                         launch_workload(workload, threads, c)["outputs"]["campaign.fingerprint"]}
                for c in range(CAMPAIGN_SEED_CLASSES)}
        expected[workload] = entry
        log(f"pinned {workload}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="append the result as one JSON line")
    ap.add_argument("--bless", action="store_true", help="re-pin expected.json")
    args = ap.parse_args()
    if not args.bless and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.bless:
            bless()
            return
        pins = pins_for(json.loads(EXPECTED.read_text()), args.workload, args.seed)
        if args.trace:
            attempted, failed, metrics = traced(args.workload, args.seed, pins)
        else:
            attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds, pins)
    except (BenchError, OSError, KeyError, ValueError, subprocess.SubprocessError) as err:
        log(f"error: {err}")
        sys.exit(1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record is not None:
        with args.record.open("a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
