// gdp::obs::timeline — the time-axis plane: per-thread event rings drained
// into a Chrome trace-event JSON (loadable in Perfetto / chrome://tracing),
// plus the GDP_OBS_PROGRESS heartbeat sampler.
//
// Where the aggregate registry (obs.hpp) answers *how much*, the timeline
// answers *when* and *on which worker*: duration slices (begin/end), instant
// markers and counter samples land in a fixed-capacity ring owned by the
// writing thread. The hot path is lock-free and allocation-free — one
// relaxed atomic load when disabled; when enabled, one clock read plus a
// plain store into the ring and a release store of the ring size. A full
// ring never reallocates and never blocks: further events are dropped and
// counted in the ring's dropped_events counter, so earlier events stay
// intact and memory stays bounded.
//
// Gating is independent of GDP_OBS: the timeline starts from the
// GDP_OBS_TIMELINE environment variable (unset/"0" = off) and can be
// flipped with timeline::set_enabled(). Timeline events never touch the
// deterministic plane — deterministic fingerprints, models and verdicts are
// bit-identical with the timeline on or off (pinned by ctest -L obs).
//
// Ring ownership: each OS thread lazily claims a ring (one mutex hop, once
// per thread lifetime — registration, not the hot path) and returns it to a
// free list on thread exit, so short-lived pool workers recycle a bounded
// set of rings. A ring therefore represents a *worker track*, not a single
// OS thread — exactly the per-worker lane the trace viewer shows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gdp::obs::timeline {

/// Events per ring. 32768 events x 32 bytes = 1 MiB per worker track; a
/// level-synchronous explore emits a handful of events per level, so this
/// covers hours of engine work before dropping.
inline constexpr std::uint32_t kRingCapacity = 1u << 15;

/// Upper bound on live worker tracks (rings are recycled through a free
/// list as threads exit, so this only binds truly concurrent threads).
/// Threads beyond it drop their events into a global counter.
inline constexpr std::size_t kMaxRings = 256;

enum class EventKind : std::uint8_t { kBegin, kEnd, kInstant, kCounter };

/// One timeline event. `name` must be a string literal (or otherwise
/// outlive the drain) — the ring stores the pointer, never a copy.
struct Event {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;  // nanoseconds since the timeline epoch
  double value = 0.0;       // kCounter samples only
  EventKind kind = EventKind::kInstant;
};

namespace detail {
extern std::atomic<bool> g_enabled;
/// Starts the GDP_OBS_PROGRESS heartbeat sampler on first call (no-op when
/// the variable is unset). Called from the registry's access paths so any
/// process that touches gdp::obs can stream progress.
void ensure_progress_sampler();
}  // namespace detail

/// True when timeline recording is on. Initialized once from
/// GDP_OBS_TIMELINE, independent of obs::enabled().
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Flips timeline recording globally (tests and bench mains; flip it
/// around runs, not during them).
void set_enabled(bool on);

/// Opens a duration slice on the calling thread's track. Pair with
/// end_slice(name) on the same thread (or hold an obs::Span, which does).
void begin_slice(const char* name);
void end_slice(const char* name);

/// A point event on the calling thread's track.
void instant(const char* name);

/// A sampled counter value on the calling thread's track (rendered as a
/// counter lane in the trace viewer).
void counter_sample(const char* name, double value);

/// Aggregate event accounting, readable while writers run.
struct Stats {
  std::uint64_t events = 0;       // recorded (sum of ring sizes)
  std::uint64_t begins = 0;
  std::uint64_t ends = 0;
  std::uint64_t instants = 0;
  std::uint64_t counters = 0;
  std::uint64_t dropped_events = 0;  // ring-full + no-ring drops
  std::uint64_t tracks = 0;          // rings ever created
};
Stats stats();

/// One track's events, copied at a consistent published size.
struct TrackEvents {
  std::uint32_t track = 0;
  std::uint64_t dropped_events = 0;
  std::vector<Event> events;
};

/// Snapshot of every track (safe against concurrent writers: only events
/// published before the snapshot are read).
std::vector<TrackEvents> snapshot_tracks();

/// Serializes every track as Chrome trace-event JSON ("traceEvents" array
/// of B/E/i/C phases, ts in microseconds, tid = track id). Loadable in
/// Perfetto and chrome://tracing; validated by tools/obs/summarize_trace.py.
std::string trace_json(const std::string& process_name = "gdp");

/// Writes trace_json to `path`. Returns false (writing nothing) on I/O
/// failure.
bool write_trace(const std::string& path, const std::string& process_name = "gdp");

/// Zeroes every ring and drop counter in place. Test-only: callers must
/// guarantee no concurrent writers.
void reset();

}  // namespace gdp::obs::timeline
