#include "gdp/obs/timeline.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "gdp/common/strings.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/obs/obs.hpp"

namespace gdp::obs::timeline {

namespace detail {

namespace {
bool env_timeline_enabled() {
  const char* v = std::getenv("GDP_OBS_TIMELINE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}
}  // namespace

std::atomic<bool> g_enabled{env_timeline_enabled()};

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

namespace {

// ---------------------------------------------------------------------------
// Rings

struct Ring {
  std::uint32_t track = 0;
  // Published event count. The owning thread is the only writer: it stores
  // event fields plainly, then publishes with a release store of size;
  // readers acquire-load size and may touch events[0, size) only. Ring
  // handoff through the free list is ordered by the registry mutex.
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  Event events[kRingCapacity];
};

struct RingRegistry {
  common::Mutex mu;
  std::vector<std::unique_ptr<Ring>> all GDP_GUARDED_BY(mu);
  std::vector<Ring*> free_list GDP_GUARDED_BY(mu);
};

RingRegistry& rings() {
  // Leaked: worker threads may emit events during static destruction.
  static RingRegistry* const r = new RingRegistry();
  return *r;
}

// Events from threads that arrive after kMaxRings rings are live.
std::atomic<std::uint64_t> g_unringed_dropped{0};

void release_ring(Ring* ring) {
  RingRegistry& reg = rings();
  common::MutexLock lock(reg.mu);
  reg.free_list.push_back(ring);
}

Ring* acquire_ring() {
  RingRegistry& reg = rings();
  common::MutexLock lock(reg.mu);
  if (!reg.free_list.empty()) {
    Ring* ring = reg.free_list.back();
    reg.free_list.pop_back();
    return ring;
  }
  if (reg.all.size() >= kMaxRings) return nullptr;
  auto ring = std::make_unique<Ring>();
  ring->track = static_cast<std::uint32_t>(reg.all.size());
  reg.all.push_back(std::move(ring));
  return reg.all.back().get();
}

// Thread-local ring handle: claims a ring on the thread's first event and
// returns it to the free list at thread exit, so the pool's short-lived
// workers recycle a bounded set of tracks.
struct RingHandle {
  Ring* ring = nullptr;
  bool exhausted = false;  // acquire failed once: drop without retrying
  ~RingHandle() {
    if (ring != nullptr) release_ring(ring);
  }
};

Ring* my_ring() {
  thread_local RingHandle handle;
  if (handle.ring == nullptr && !handle.exhausted) {
    handle.ring = acquire_ring();
    handle.exhausted = handle.ring == nullptr;
  }
  return handle.ring;
}

std::uint64_t now_ns() {
  // Epoch = first clock read after process start; all later readings are
  // monotonically >= it, so ts_ns never underflows.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

void emit(EventKind kind, const char* name, double value) {
  Ring* ring = my_ring();
  if (ring == nullptr) {
    g_unringed_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Sole writer for this ring while it is held, so a relaxed self-read of
  // size is exact.
  const std::uint32_t i = ring->size.load(std::memory_order_relaxed);
  if (i >= kRingCapacity) {
    // Drop-on-full: earlier events stay intact, memory stays bounded.
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = ring->events[i];
  e.kind = kind;
  e.name = name;
  e.value = value;
  e.ts_ns = now_ns();
  ring->size.store(i + 1, std::memory_order_release);
}

}  // namespace

void begin_slice(const char* name) {
  if (!enabled()) return;
  emit(EventKind::kBegin, name, 0.0);
}

void end_slice(const char* name) {
  if (!enabled()) return;
  emit(EventKind::kEnd, name, 0.0);
}

void instant(const char* name) {
  if (!enabled()) return;
  emit(EventKind::kInstant, name, 0.0);
}

void counter_sample(const char* name, double value) {
  if (!enabled()) return;
  emit(EventKind::kCounter, name, value);
}

std::vector<TrackEvents> snapshot_tracks() {
  std::vector<Ring*> live;
  {
    RingRegistry& reg = rings();
    common::MutexLock lock(reg.mu);
    live.reserve(reg.all.size());
    for (const auto& ring : reg.all) live.push_back(ring.get());
  }
  std::vector<TrackEvents> out;
  out.reserve(live.size());
  for (Ring* ring : live) {
    TrackEvents te;
    te.track = ring->track;
    te.dropped_events = ring->dropped.load(std::memory_order_relaxed);
    const std::uint32_t published = ring->size.load(std::memory_order_acquire);
    te.events.assign(ring->events, ring->events + published);
    out.push_back(std::move(te));
  }
  return out;
}

Stats stats() {
  Stats st;
  const std::vector<TrackEvents> tracks = snapshot_tracks();
  st.tracks = tracks.size();
  st.dropped_events = g_unringed_dropped.load(std::memory_order_relaxed);
  for (const TrackEvents& te : tracks) {
    st.events += te.events.size();
    st.dropped_events += te.dropped_events;
    for (const Event& e : te.events) {
      switch (e.kind) {
        case EventKind::kBegin: ++st.begins; break;
        case EventKind::kEnd: ++st.ends; break;
        case EventKind::kInstant: ++st.instants; break;
        case EventKind::kCounter: ++st.counters; break;
      }
    }
  }
  return st;
}

namespace {

void append_event(std::string& out, std::uint32_t tid, const Event& e) {
  char buf[64];
  out += "{\"name\": ";
  append_json_string(out, e.name != nullptr ? e.name : "?");
  out += ", \"ph\": \"";
  switch (e.kind) {
    case EventKind::kBegin: out += 'B'; break;
    case EventKind::kEnd: out += 'E'; break;
    case EventKind::kInstant: out += 'i'; break;
    case EventKind::kCounter: out += 'C'; break;
  }
  // Chrome trace ts is in microseconds; keep nanosecond precision as the
  // fractional part.
  std::snprintf(buf, sizeof buf, "\", \"pid\": 1, \"tid\": %" PRIu32 ", \"ts\": %" PRIu64
                                 ".%03" PRIu64,
                tid, e.ts_ns / 1000, e.ts_ns % 1000);
  out += buf;
  if (e.kind == EventKind::kInstant) {
    out += ", \"s\": \"t\"";  // thread-scoped instant
  } else if (e.kind == EventKind::kCounter) {
    std::snprintf(buf, sizeof buf, ", \"args\": {\"value\": %.17g}", e.value);
    out += buf;
  }
  out += '}';
}

}  // namespace

std::string trace_json(const std::string& process_name) {
  const std::vector<TrackEvents> tracks = snapshot_tracks();
  std::uint64_t dropped = g_unringed_dropped.load(std::memory_order_relaxed);
  for (const TrackEvents& te : tracks) dropped += te.dropped_events;

  std::string out;
  out.reserve(256 + tracks.size() * 128);
  out += "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"tool\": \"gdp::obs::timeline\", "
         "\"dropped_events\": \"";
  out += std::to_string(dropped);
  out += "\"},\n\"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": "
         "{\"name\": ";
  append_json_string(out, process_name);
  out += "}}";
  for (const TrackEvents& te : tracks) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %" PRIu32
                  ", \"args\": {\"name\": \"track-%" PRIu32 "\"}}",
                  te.track, te.track);
    out += buf;
  }
  for (const TrackEvents& te : tracks) {
    for (const Event& e : te.events) {
      out += ",\n";
      append_event(out, te.track, e);
    }
  }
  out += "\n]\n}\n";
  return out;
}

bool write_trace(const std::string& path, const std::string& process_name) {
  const std::string json = trace_json(process_name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

void reset() {
  RingRegistry& reg = rings();
  common::MutexLock lock(reg.mu);
  for (const auto& ring : reg.all) {
    ring->size.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
  g_unringed_dropped.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// GDP_OBS_PROGRESS heartbeat sampler

namespace detail {

namespace {

std::uint64_t snapshot_value(const std::vector<MetricValue>& metrics, const char* name) {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void heartbeat_loop(long interval_ms) {
  std::uint64_t seq = 0;
  const std::uint64_t start_ns = now_ns();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const Snapshot snap = Registry::global().snapshot();
    const Stats st = stats();
    const std::uint64_t elapsed_ms = (now_ns() - start_ns) / 1'000'000;
    // One flat NDJSON object per line, built in one buffer so concurrent
    // stderr writers cannot split a heartbeat.
    std::string line;
    line.reserve(512);
    line += "{\"gdp_obs_heartbeat\": 1";
    line += ", \"seq\": " + std::to_string(seq++);
    line += ", \"elapsed_ms\": " + std::to_string(elapsed_ms);
    const auto field = [&line](const char* key, std::uint64_t v) {
      line += ", \"";
      line += key;
      line += "\": " + std::to_string(v);
    };
    field("explore_levels", snapshot_value(snap.counters, "explore.levels"));
    field("explore_states", snapshot_value(snap.counters, "explore.states"));
    field("explore_edges", snapshot_value(snap.counters, "explore.edges"));
    field("quant_sweeps", snapshot_value(snap.counters, "quant.sweeps"));
    field("quant_bracket_width_ppb",
          snapshot_value(snap.timing_gauges, "quant.bracket_width_ppb"));
    field("store_resident_chunks",
          snapshot_value(snap.timing_gauges, "store.resident_chunks"));
    field("store_resident_bytes",
          snapshot_value(snap.timing_gauges, "store.resident_bytes"));
    field("store_chunk_faults", snapshot_value(snap.timing_counters, "store.chunk_faults"));
    field("pool_tasks", snapshot_value(snap.timing_counters, "pool.tasks"));
    field("timeline_events", st.events);
    field("timeline_dropped", st.dropped_events);
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
}

}  // namespace

void ensure_progress_sampler() {
  static std::atomic<bool> started{false};
  if (started.load(std::memory_order_acquire)) return;
  if (started.exchange(true, std::memory_order_acq_rel)) return;
  const char* v = std::getenv("GDP_OBS_PROGRESS");
  if (v == nullptr || v[0] == '\0') return;
  char* end = nullptr;
  const long interval_ms = std::strtol(v, &end, 10);
  if (end == v || interval_ms <= 0) return;
  // gdp-lint: allow(raw-thread) — the heartbeat sampler is a detached
  // observer: it only reads registry snapshots and ring prefixes and writes
  // to stderr, so it must never join, park, or funnel into the pool — a
  // pool worker here would block engine work, which is exactly what the
  // heartbeat contract forbids.
  std::thread([interval_ms] { heartbeat_loop(interval_ms); }).detach();
}

}  // namespace detail

}  // namespace gdp::obs::timeline
