#!/usr/bin/env bash
# CI entry point.
# Usage: ./ci.sh [--no-sanitize]   — full build+test matrix
#        ./ci.sh lint              — static-analysis gate only:
#                                    gdp_lint self-test + repo scan, and the
#                                    Clang -Werror=thread-safety build when a
#                                    clang++ is available (CI pins one; local
#                                    GCC-only machines skip it with a notice).
#        ./ci.sh bench-smoke       — build bench_thm2_theta, run its store
#                                    section with GDP_OBS=1 and validate the
#                                    emitted BENCH_thm2_theta.json against
#                                    the obs run-report schema (the explore
#                                    footprint gauges must be non-zero); then rerun it
#                                    with the timeline plane and heartbeats on
#                                    (GDP_OBS_TIMELINE / GDP_OBS_PROGRESS) and
#                                    validate TRACE_thm2_theta.json plus the
#                                    stderr heartbeat stream.
#        ./ci.sh verifybench-smoke — build the benchmark harness (verifybench/)
#                                    and run each of its three workloads for
#                                    ~1 s; fails unless every pinned check
#                                    passes.
#        ./ci.sh tsan              — ThreadSanitizer build + ctest of the
#                                    threaded suites (TSAN_SUITES below); the
#                                    full run ends with it too.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

lint_pass() {
  echo "=== lint: gdp_lint self-test (seeded fixtures) ==="
  python3 tools/lint/gdp_lint.py --self-test tests/lint_fixtures
  echo "=== lint: gdp_lint repo scan ==="
  python3 tools/lint/gdp_lint.py src tests bench examples

  local clangxx=""
  for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 clang++-16; do
    if command -v "$c" >/dev/null 2>&1; then clangxx="$c"; break; fi
  done
  if [[ -n "${clangxx}" ]]; then
    echo "=== lint: ${clangxx} -Werror=thread-safety build ==="
    cmake -B build/thread-safety -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER="${clangxx}" -DGDP_THREAD_SAFETY=ON
    cmake --build build/thread-safety -j "${JOBS}"
  else
    echo "=== lint: no clang++ found — skipping the thread-safety build" \
         "(the static-analysis CI job runs it with a pinned clang) ==="
  fi
  echo "=== lint green ==="
}

if [[ "${1:-}" == "lint" ]]; then
  lint_pass
  exit 0
fi

# TSan pass over the threaded subsystems only (the pool's parallel_for,
# the parallel model checker, the campaign runner and the obs registry);
# ASan and TSan cannot share a build tree. test_explore_oracle's
# lr2/parallel(4) cases have levels past the explorer's inline-intern
# cutoff, so the parallel intern phases (sharded table, prefix scan, slot
# settling) run under TSan too; test_chain's lr2/parallel(3) (17,186
# states) does the same for the uniform view's quotient build and e_min
# sweeps. The one list feeds both the build targets and the ctest selection.
TSAN_SUITES=(test_pool test_grow_array test_mdp_par test_explore_oracle test_exp test_key test_quant test_chain
             test_store test_obs)

tsan_pass() {
  echo "=== tsan: configure ==="
  cmake -B build/tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGDP_SANITIZE_THREAD=ON \
    -DGDP_BUILD_BENCH=OFF -DGDP_BUILD_EXAMPLES=OFF
  echo "=== tsan: build ${TSAN_SUITES[*]} ==="
  cmake --build build/tsan -j "${JOBS}" --target "${TSAN_SUITES[@]}"
  echo "=== tsan: ctest ${TSAN_SUITES[*]} ==="
  ctest --test-dir build/tsan --output-on-failure -R "^($(IFS='|'; echo "${TSAN_SUITES[*]}"))\$"
}

if [[ "${1:-}" == "tsan" ]]; then
  tsan_pass
  exit 0
fi

# Smoke-test the observability pipeline end to end: section (d) of
# bench_thm2_theta (capped exploration into the chunked store) must emit a
# run report that validates against the versioned schema.
if [[ "${1:-}" == "bench-smoke" ]]; then
  echo "=== bench-smoke: configure + build bench_thm2_theta ==="
  cmake -B build/bench-smoke -S . -DCMAKE_BUILD_TYPE=Release -DGDP_BUILD_TESTS=OFF \
    -DGDP_BUILD_EXAMPLES=OFF
  cmake --build build/bench-smoke -j "${JOBS}" --target bench_thm2_theta
  echo "=== bench-smoke: run section (d) with GDP_OBS=1 ==="
  ( cd build/bench-smoke/bench && GDP_OBS=1 ./bench_thm2_theta 0 d )
  echo "=== bench-smoke: validate the run report against the obs schema ==="
  python3 tools/obs/validate_report.py build/bench-smoke/bench/BENCH_thm2_theta.json
  echo "=== bench-smoke: rerun with the timeline plane + 50ms heartbeats ==="
  ( cd build/bench-smoke/bench && \
    GDP_OBS=1 GDP_OBS_TIMELINE=1 GDP_OBS_PROGRESS=50 ./bench_thm2_theta 0 d \
      2> obs_heartbeats.ndjson )
  echo "=== bench-smoke: require at least one heartbeat line ==="
  grep -c '"gdp_obs_heartbeat"' build/bench-smoke/bench/obs_heartbeats.ndjson
  echo "=== bench-smoke: validate + summarize the trace ==="
  python3 tools/obs/summarize_trace.py build/bench-smoke/bench/TRACE_thm2_theta.json
  echo "=== bench-smoke green ==="
  exit 0
fi

# Smoke-test the benchmark harness: tier-1 never compiles verifybench/, so
# this is what keeps it building against the library. run.py exits 0 even
# when checks fail, so the gate is the "correct" field of its last line.
if [[ "${1:-}" == "verifybench-smoke" ]]; then
  for workload in theorem2_quant lockout_matrix store_out_of_core; do
    echo "=== verifybench-smoke: ${workload} ==="
    result="$(python3 verifybench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1)"
    echo "${result}"
    python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["correct"] is not True)' \
      "${result}" || { echo "verifybench-smoke: ${workload} failed its checks" >&2; exit 1; }
  done
  echo "=== verifybench-smoke green ==="
  exit 0
fi

SANITIZE=1
[[ "${1:-}" == "--no-sanitize" ]] && SANITIZE=0

run_pass() {
  local name="$1"; shift
  echo "=== ${name}: configure ==="
  cmake -B "build/${name}" -S . "$@"
  echo "=== ${name}: build ==="
  cmake --build "build/${name}" -j "${JOBS}"
  echo "=== ${name}: ctest ==="
  ctest --test-dir "build/${name}" --output-on-failure -j "${JOBS}"
}

run_pass release -DCMAKE_BUILD_TYPE=Release

# Debug pass keeps the GDP_DCHECK invariants live (NDEBUG strips them in
# Release and RelWithDebInfo).
run_pass debug -DCMAKE_BUILD_TYPE=Debug

if [[ "${SANITIZE}" == 1 ]]; then
  run_pass asan-ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGDP_SANITIZE=ON

  # Chunked-store pass with spill forced on: every ChunkedModel the store
  # suite builds goes file-backed (tiny chunks, mmap reads), so ASan walks
  # the mapping lifetimes and chunk-seam arithmetic.
  echo "=== asan-ubsan: forced-spill chunked-store pass (ctest -L store) ==="
  GDP_TEST_FORCE_SPILL=1 ctest --test-dir build/asan-ubsan --output-on-failure -L store

  # Same suite again under a tight residency budget (2 chunks hot, 128
  # states per chunk): the chunk-native verdict kernels now run through the
  # LRU fault/evict path constantly, so ASan sees madvise-dropped pages
  # refaulting mid-sweep — the exact out-of-core access pattern.
  echo "=== asan-ubsan: bounded-resident forced-spill pass (ctest -L store) ==="
  GDP_TEST_FORCE_SPILL=1 GDP_TEST_MAX_RESIDENT_CHUNKS=2 GDP_TEST_CHUNK_STATES=128 \
    ctest --test-dir build/asan-ubsan --output-on-failure -L store

  tsan_pass
fi

echo "=== CI green ==="
