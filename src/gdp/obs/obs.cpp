#include "gdp/obs/obs.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "gdp/common/strings.hpp"
#include "gdp/common/thread_annotations.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::obs {

namespace detail {

namespace {
bool env_enabled() {
  const char* v = std::getenv("GDP_OBS");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}
}  // namespace

std::atomic<bool> g_enabled{env_enabled()};

}  // namespace detail

void set_enabled(bool on) { detail::g_enabled.store(on, std::memory_order_relaxed); }

unsigned Counter::stripe() {
  // One stripe per thread (wrapping at kStripes): ids are assigned on first
  // touch, so any bounded pool gets distinct cache lines.
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id % kStripes;
}

void Histogram::record(std::uint64_t v) {
  if (!enabled()) return;
  buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

namespace {

struct SpanAgg {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  // meaningful only when count > 0
  std::uint64_t max_ns = 0;
};

}  // namespace

/// Ordered maps keyed by metric name: lookup is rare (hot paths cache the
/// returned reference), node addresses are stable for the process lifetime,
/// and iteration order is lexicographic — which is what makes snapshot and
/// JSON key order deterministic without a sort step.
struct Registry::Impl {
  mutable common::Mutex mu;
  std::map<std::string, Counter> det_counters GDP_GUARDED_BY(mu);
  std::map<std::string, Counter> timing_counters GDP_GUARDED_BY(mu);
  std::map<std::string, Gauge> gauges GDP_GUARDED_BY(mu);
  std::map<std::string, Gauge> timing_gauges GDP_GUARDED_BY(mu);
  std::map<std::string, Histogram> histograms GDP_GUARDED_BY(mu);
  std::map<std::string, Histogram> timing_histograms GDP_GUARDED_BY(mu);
  std::map<std::string, SpanAgg> spans GDP_GUARDED_BY(mu);
};

Registry& Registry::global() {
  // Leaked singleton: metric references handed to static-duration callers
  // must outlive every destructor.
  static Registry* const instance = new Registry();
  return *instance;
}

Registry::Impl& Registry::impl() const {
  // Every registry access path funnels through here, so this is where the
  // GDP_OBS_PROGRESS heartbeat sampler latches on: any process that touches
  // gdp::obs streams progress without bench cooperation. One acquire load
  // after the first call.
  timeline::detail::ensure_progress_sampler();
  static Impl* const impl = new Impl();
  return *impl;
}

Counter& Registry::counter(const std::string& name, Plane plane) {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  auto& table = plane == Plane::kDeterministic ? im.det_counters : im.timing_counters;
  return table.try_emplace(name).first->second;
}

Gauge& Registry::gauge(const std::string& name, Plane plane) {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  auto& table = plane == Plane::kDeterministic ? im.gauges : im.timing_gauges;
  return table.try_emplace(name).first->second;
}

Histogram& Registry::histogram(const std::string& name, Plane plane) {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  auto& table = plane == Plane::kDeterministic ? im.histograms : im.timing_histograms;
  return table.try_emplace(name).first->second;
}

void Registry::record_span(const std::string& name, std::uint64_t elapsed_ns) {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  SpanAgg& agg = im.spans.try_emplace(name).first->second;
  agg.count += 1;
  agg.total_ns += elapsed_ns;
  if (agg.count == 1) {
    agg.min_ns = elapsed_ns;
    agg.max_ns = elapsed_ns;
  } else {
    if (elapsed_ns < agg.min_ns) agg.min_ns = elapsed_ns;
    if (elapsed_ns > agg.max_ns) agg.max_ns = elapsed_ns;
  }
}

Snapshot Registry::snapshot() const {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  Snapshot snap;
  const auto copy_histograms = [](const std::map<std::string, Histogram>& from,
                                  std::vector<HistogramValue>& to) {
    for (const auto& [name, h] : from) {
      HistogramValue hv;
      hv.name = name;
      hv.count = h.count();
      hv.sum = h.sum();
      for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
        if (const std::uint64_t n = h.bucket(b); n != 0) hv.buckets.emplace_back(b, n);
      }
      to.push_back(std::move(hv));
    }
  };
  snap.counters.reserve(im.det_counters.size());
  for (const auto& [name, c] : im.det_counters) snap.counters.push_back({name, c.value()});
  snap.gauges.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) snap.gauges.push_back({name, g.value()});
  copy_histograms(im.histograms, snap.histograms);
  snap.timing_counters.reserve(im.timing_counters.size());
  for (const auto& [name, c] : im.timing_counters) {
    snap.timing_counters.push_back({name, c.value()});
  }
  snap.timing_gauges.reserve(im.timing_gauges.size());
  for (const auto& [name, g] : im.timing_gauges) snap.timing_gauges.push_back({name, g.value()});
  copy_histograms(im.timing_histograms, snap.timing_histograms);
  snap.spans.reserve(im.spans.size());
  for (const auto& [name, agg] : im.spans) {
    snap.spans.push_back({name, agg.count, agg.total_ns, agg.min_ns, agg.max_ns});
  }
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  common::MutexLock lock(im.mu);
  // Zero in place: entries are never erased, so Counter&/Gauge& references
  // cached by instrumentation sites stay valid across resets.
  for (auto& [name, c] : im.det_counters) c.reset();
  for (auto& [name, c] : im.timing_counters) c.reset();
  for (auto& [name, g] : im.gauges) g.reset();
  for (auto& [name, g] : im.timing_gauges) g.reset();
  for (auto& [name, h] : im.histograms) h.reset();
  for (auto& [name, h] : im.timing_histograms) h.reset();
  for (auto& [name, agg] : im.spans) agg = SpanAgg{};
}

// ---------------------------------------------------------------------------
// JSON report

namespace {

void append_metric_map(std::string& out, const std::vector<MetricValue>& metrics) {
  out += '{';
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, m.name);
    out += ": ";
    out += std::to_string(m.value);
  }
  out += '}';
}

void append_histogram_map(std::string& out, const std::vector<HistogramValue>& histograms) {
  out += '{';
  bool first = true;
  for (const HistogramValue& h : histograms) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, h.name);
    out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"pow2_buckets\": {";
    bool bfirst = true;
    for (const auto& [bits, n] : h.buckets) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += '"' + std::to_string(bits) + "\": " + std::to_string(n);
    }
    out += "}}";
  }
  out += '}';
}

}  // namespace

std::string report_json(const Snapshot& snapshot, const std::string& name,
                        const std::vector<std::pair<std::string, std::string>>& meta) {
  std::string out;
  out.reserve(1024);
  out += "{\n  \"gdp_obs_schema\": ";
  out += std::to_string(kReportSchema);
  out += ",\n  \"name\": ";
  append_json_string(out, name);
  out += ",\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, k);
    out += ": ";
    append_json_string(out, v);
  }
  out += "},\n  \"deterministic\": {\n    \"counters\": ";
  append_metric_map(out, snapshot.counters);
  out += ",\n    \"gauges\": ";
  append_metric_map(out, snapshot.gauges);
  out += ",\n    \"histograms\": ";
  append_histogram_map(out, snapshot.histograms);
  out += "\n  },\n  \"timing\": {\n    \"counters\": ";
  append_metric_map(out, snapshot.timing_counters);
  out += ",\n    \"gauges\": ";
  append_metric_map(out, snapshot.timing_gauges);
  out += ",\n    \"histograms\": ";
  append_histogram_map(out, snapshot.timing_histograms);
  out += ",\n    \"spans\": {";
  first = true;
  for (const SpanValue& s : snapshot.spans) {
    if (!first) out += ", ";
    first = false;
    append_json_string(out, s.name);
    out += ": {\"count\": " + std::to_string(s.count) +
           ", \"total_ns\": " + std::to_string(s.total_ns);
    // min/max are undefined on an empty aggregate (a reset span): omit them
    // so the schema has no sentinel values.
    if (s.count > 0) {
      out += ", \"min_ns\": " + std::to_string(s.min_ns) +
             ", \"max_ns\": " + std::to_string(s.max_ns);
    }
    out += "}";
  }
  out += "}\n  }\n}\n";
  return out;
}

bool write_report(const std::string& path, const std::string& name,
                  const std::vector<std::pair<std::string, std::string>>& meta) {
  const std::string json = report_json(Registry::global().snapshot(), name, meta);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

std::uint64_t deterministic_fingerprint(const Snapshot& snapshot) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  auto mix_byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;  // FNV prime
  };
  auto mix_str = [&](const std::string& s) {
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0);
  };
  auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  for (const MetricValue& m : snapshot.counters) {
    mix_str(m.name);
    mix_u64(m.value);
  }
  for (const MetricValue& m : snapshot.gauges) {
    mix_str(m.name);
    mix_u64(m.value);
  }
  for (const HistogramValue& hv : snapshot.histograms) {
    mix_str(hv.name);
    mix_u64(hv.count);
    mix_u64(hv.sum);
    for (const auto& [bits, n] : hv.buckets) {
      mix_u64(bits);
      mix_u64(n);
    }
  }
  return h;
}

}  // namespace gdp::obs
