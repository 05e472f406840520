// gdp::obs — process-wide observability with two strictly separated planes.
//
//   * Deterministic plane: counters, gauges and histograms whose values are
//     a pure function of the work performed — states per level, edges,
//     Bellman sweeps, chunks written. Increments are integer adds (which
//     commute), accumulated into cache-line-padded per-thread stripes and
//     summed in stripe-index order, so every metric is bit-identical at
//     every thread count. The deterministic plane may be fingerprinted and
//     diffed across runs.
//
//   * Timing plane: wall-clock phase spans (obs::Span, which also emits a
//     timeline slice when gdp/obs/timeline.hpp is on) and scheduling
//     artifacts (steal counts). These are explicitly non-deterministic,
//     never enter any fingerprint, and live under a separate key space in
//     the report ("timing") so no tool can confuse the two.
//
// The whole subsystem is gated: obs::enabled() starts from the GDP_OBS
// environment variable (unset/"0" = off) and can be flipped with
// obs::set_enabled(). When off, Counter::add is a single relaxed atomic
// load (Span construction one per plane) and no clock is ever read — the
// engine's hot paths pay nothing measurable.
//
// Snapshots serialize through one versioned JSON schema (kReportSchema,
// obs::report_json) that every bench and example emits as BENCH_<name>.json
// — the replacement for per-bench hand-rolled "BENCH ..." printf lines.
//
// This directory is the only place in the tree allowed to read a clock
// (tools/lint/gdp_lint.py blesses src/gdp/obs/ and rejects wall-clock reads
// and hand-rolled stopwatch state everywhere else).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gdp/obs/timeline.hpp"

namespace gdp::obs {

/// Version of the JSON run-report schema emitted by report_json().
/// Schema 2 (this PR's bump from 1): span aggregates carry per-call
/// "min_ns"/"max_ns" (present iff count > 0), and the timing plane gains
/// "gauges" and "histograms" tables for live scheduler-shaped values
/// (resident chunks, bracket widths, hunger latency).
inline constexpr int kReportSchema = 2;

/// Which plane a metric lives in. Deterministic metrics must be a pure
/// function of the work performed (bit-identical at every thread count);
/// timing metrics may depend on the scheduler and the clock.
enum class Plane { kDeterministic, kTiming };

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when metric recording is on. Initialized once from GDP_OBS.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Flips recording globally (tests and bench mains; not thread-synchronizing
/// with in-flight increments — callers flip it around, not during, runs).
void set_enabled(bool on);

/// A monotonically increasing sum, striped across cache-line-padded atomic
/// slots so concurrent increments never contend on one line. Integer adds
/// commute, so value() — the stripe sum in index order — is independent of
/// which threads incremented: a deterministic-plane counter reads the same
/// at every thread count as long as the *set* of increments is.
class Counter {
 public:
  static constexpr unsigned kStripes = 64;

  void add(std::uint64_t n) {
    if (!enabled()) return;
    slots_[stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < kStripes; ++i) sum += slots_[i].v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (unsigned i = 0; i < kStripes; ++i) slots_[i].v.store(0, std::memory_order_relaxed);
  }

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  static unsigned stripe();
  Slot slots_[kStripes];
};

/// A last-writer-wins or running-max scalar (intern-table bytes, peak
/// resident chunks). set_max is a commutative fold, so a gauge updated only
/// through set_max stays deterministic across thread counts.
class Gauge {
 public:
  void set(std::uint64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void set_max(std::uint64_t v) {
    if (!enabled()) return;
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Power-of-two-bucketed distribution (bucket b counts samples with
/// bit_width(v) == b; bucket 0 counts v == 0). Counts and the running sum
/// are commutative integer adds — deterministic-plane safe.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // bit_width of a uint64 is 0..64

  void record(std::uint64_t v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(unsigned b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset();

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One metric in a snapshot.
struct MetricValue {
  std::string name;
  std::uint64_t value = 0;
};

/// One histogram in a snapshot (non-empty buckets only).
struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<unsigned, std::uint64_t>> buckets;  // (bit_width, count)
};

/// One span aggregate in a snapshot: how often the phase ran, the total
/// wall-clock nanoseconds across all runs, and the fastest/slowest single
/// run. min_ns/max_ns are meaningful only when count > 0 (the JSON report
/// omits them on empty aggregates). Timing plane only.
struct SpanValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// A point-in-time copy of every registered metric, keys sorted (the
/// registry is an ordered map, so JSON key order is deterministic too).
struct Snapshot {
  std::vector<MetricValue> counters;            // deterministic plane
  std::vector<MetricValue> gauges;              // deterministic plane
  std::vector<HistogramValue> histograms;       // deterministic plane
  std::vector<MetricValue> timing_counters;     // timing plane (e.g. pool.steals)
  std::vector<MetricValue> timing_gauges;       // timing plane (e.g. resident chunks)
  std::vector<HistogramValue> timing_histograms;  // timing plane (e.g. hunger ns)
  std::vector<SpanValue> spans;                 // timing plane
};

/// The process-wide metric registry. Lookup by name returns a stable
/// reference (entries are never erased; reset() zeroes values in place), so
/// hot paths resolve their Counter& once and cache it.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name, Plane plane = Plane::kDeterministic);
  Gauge& gauge(const std::string& name, Plane plane = Plane::kDeterministic);
  Histogram& histogram(const std::string& name, Plane plane = Plane::kDeterministic);

  /// Accumulates one timed phase run into the span aggregate for `name`.
  void record_span(const std::string& name, std::uint64_t elapsed_ns);

  Snapshot snapshot() const;

  /// Zeroes every registered metric in place. References handed out before
  /// reset() stay valid — tests call this between thread-count runs.
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII span around one phase — the one span type. It feeds whichever
/// planes are on at construction, each under its own gate: the registry's
/// SpanValue aggregate when obs::enabled() (timing plane; recorded into
/// Registry::record_span on destruction or stop(), never fingerprinted),
/// and a duration slice on the calling thread's timeline track when
/// timeline::enabled(). Each is armed at most once, at construction, so a
/// gate switched on mid-scope cannot leave an end without its begin or a
/// partial aggregate. With both gates off no clock is read at all. For a
/// reading that exists regardless of the gates (bench progress lines),
/// use Stopwatch.
class Span {
 public:
  /// `name` must outlive the span (string literals in practice).
  explicit Span(const char* name)
      : name_(name), timed_(enabled()), sliced_(timeline::enabled()) {
    if (timed_) start_ = std::chrono::steady_clock::now();
    if (sliced_) timeline::begin_slice(name_);
  }
  ~Span() { stop(); }

  /// Ends the span early and records both planes; idempotent.
  void stop() {
    if (sliced_) {
      sliced_ = false;
      timeline::end_slice(name_);
    }
    if (timed_) {
      timed_ = false;
      Registry::global().record_span(
          name_, static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                std::chrono::steady_clock::now() - start_)
                                                .count()));
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool timed_;
  bool sliced_;
  std::chrono::steady_clock::time_point start_;
};

/// Free-running stopwatch for harnesses whose *behavior* is time-driven —
/// duration cutoffs and latency samples in the dining-philosophers runtime,
/// not metric recording. Unlike Span it always reads the clock, independent
/// of enabled(): its readings feed live results (RuntimeResult quantiles)
/// that exist with or without obs. Living in gdp/obs keeps every clock read
/// in the tree inside the lint-blessed directory; readings must stay on the
/// timing side (reports, progress) and never reach a fingerprinted value.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void restart() { start_ = std::chrono::steady_clock::now(); }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start_)
                                          .count());
  }

  double seconds() const { return static_cast<double>(elapsed_ns()) * 1e-9; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Serializes a snapshot as the versioned run-report JSON:
///
///   {
///     "gdp_obs_schema": 2,
///     "name": "<report name>",
///     "meta": { ...caller-provided string pairs... },
///     "deterministic": {
///       "counters": {"explore.states": 123, ...},
///       "gauges": {...},
///       "histograms": {"explore.level_states": {"count": n, "sum": s,
///                      "pow2_buckets": {"4": 2, ...}}, ...}
///     },
///     "timing": {
///       "counters": {"pool.steals": 7, ...},
///       "gauges": {"store.resident_chunks": 4, ...},
///       "histograms": {"runtime.hunger_ns": {...}},
///       "spans": {"explore.run": {"count": 1, "total_ns": 123456,
///                 "min_ns": 123456, "max_ns": 123456}, ...}
///     }
///   }
///
/// Everything under "deterministic" is bit-identical at every thread count;
/// everything under "timing" is not and must never be diffed or hashed.
std::string report_json(const Snapshot& snapshot, const std::string& name,
                        const std::vector<std::pair<std::string, std::string>>& meta = {});

/// Snapshots the global registry and writes report_json to `path`.
/// Returns false (and writes nothing) on I/O failure.
bool write_report(const std::string& path, const std::string& name,
                  const std::vector<std::pair<std::string, std::string>>& meta = {});

/// FNV-1a over the deterministic plane of a snapshot (names and values;
/// timing plane excluded by construction). Two runs doing the same work
/// must produce the same fingerprint regardless of thread count.
std::uint64_t deterministic_fingerprint(const Snapshot& snapshot);

}  // namespace gdp::obs
