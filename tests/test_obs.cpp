// gdp::obs — the two-plane observability registry.
//
// The load-bearing suite is the bit-identity matrix: on ring /
// ring-with-chord / parallel-arcs under lr2 and gdp2, at threads {1, 2, hw},
// a full explore → verdict → quant pipeline must leave the deterministic
// plane (counters, gauges, histograms — and their fingerprint) IDENTICAL at
// every thread count, and turning obs on must not perturb the model or the
// verdicts. The timing plane (spans, steal counts) is explicitly excluded
// from that contract.
//
// The parallel hammer test exists for the TSan job: every registry surface
// (lookup, add, set_max, record, record_span, snapshot) exercised
// concurrently.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gdp/algos/algorithm.hpp"
#include "gdp/common/pool.hpp"
#include "gdp/graph/builders.hpp"
#include "gdp/mdp/fair_progress.hpp"
#include "gdp/mdp/model.hpp"
#include "gdp/mdp/quant/quant.hpp"
#include "gdp/mdp/store/store.hpp"
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

namespace gdp::obs {
namespace {

/// Every test runs with obs on and a zeroed registry; the registry is
/// process-global, so tests must not assume absent keys, only values.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Registry::global().reset();
    set_enabled(false);
  }
};

std::uint64_t metric(const std::vector<MetricValue>& values, const std::string& name) {
  for (const auto& m : values) {
    if (m.name == name) return m.value;
  }
  return 0;
}

bool has_metric(const std::vector<MetricValue>& values, const std::string& name) {
  for (const auto& m : values) {
    if (m.name == name) return true;
  }
  return false;
}

std::vector<int> thread_counts() {
  std::vector<int> counts = {1, 2};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 2) counts.push_back(hw);
  return counts;
}

// --- Primitives. -----------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter& c = Registry::global().counter("test.counter");
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterIsNoopWhenDisabled) {
  Counter& c = Registry::global().counter("test.disabled_counter");
  set_enabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  set_enabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, CounterStripesSumAcrossThreads) {
  Counter& c = Registry::global().counter("test.striped_counter");
  constexpr std::size_t kTasks = 1'000;
  common::parallel_for(kTasks, /*threads=*/4, [&](std::uint32_t) { c.add(3); });
  EXPECT_EQ(c.value(), 3u * kTasks);
}

TEST_F(ObsTest, GaugeSetMaxIsARunningMax) {
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set_max(10);
  g.set_max(4);
  EXPECT_EQ(g.value(), 10u);
  common::parallel_for(100, /*threads=*/4, [&](std::uint32_t id) { g.set_max(id); });
  EXPECT_EQ(g.value(), 99u);
}

TEST_F(ObsTest, HistogramBucketsByBitWidth) {
  Histogram& h = Registry::global().histogram("test.hist");
  h.record(0);  // bucket 0
  h.record(1);  // bit_width 1
  h.record(5);  // bit_width 3
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST_F(ObsTest, RegistryReferencesAreStableAcrossReset) {
  Counter& before = Registry::global().counter("test.stable");
  before.add(5);
  Registry::global().reset();
  EXPECT_EQ(before.value(), 0u);  // zeroed in place, not replaced
  before.add(2);
  Counter& after = Registry::global().counter("test.stable");
  EXPECT_EQ(&before, &after);
  EXPECT_EQ(after.value(), 2u);
}

// --- Plane separation. ------------------------------------------------------

TEST_F(ObsTest, TimingCountersLiveInTheTimingPlane) {
  Registry::global().counter("test.det_plane").add(1);
  Registry::global().counter("test.timing_plane", Plane::kTiming).add(1);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_TRUE(has_metric(snap.counters, "test.det_plane"));
  EXPECT_FALSE(has_metric(snap.counters, "test.timing_plane"));
  EXPECT_TRUE(has_metric(snap.timing_counters, "test.timing_plane"));
  EXPECT_FALSE(has_metric(snap.timing_counters, "test.det_plane"));
}

TEST_F(ObsTest, FingerprintIgnoresTheTimingPlane) {
  Registry::global().counter("test.det_plane").add(123);
  const std::uint64_t base = deterministic_fingerprint(Registry::global().snapshot());

  Registry::global().counter("test.timing_plane", Plane::kTiming).add(99);
  Registry::global().record_span("test.span", 1'234'567);
  EXPECT_EQ(deterministic_fingerprint(Registry::global().snapshot()), base);

  Registry::global().counter("test.det_plane").add(1);
  EXPECT_NE(deterministic_fingerprint(Registry::global().snapshot()), base);
}

TEST_F(ObsTest, SpanRecordsOnce) {
  {
    Span span("test.span_once");
    span.stop();
    span.stop();  // idempotent — no second record, none at destruction
  }
  const Snapshot snap = Registry::global().snapshot();
  bool found = false;
  for (const auto& s : snap.spans) {
    if (s.name != "test.span_once") continue;
    found = true;
    EXPECT_EQ(s.count, 1u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SpanMinMaxTrackExtrema) {
  Registry::global().record_span("test.span_extrema", 42);
  Registry::global().record_span("test.span_extrema", 5);
  Registry::global().record_span("test.span_extrema", 17);
  const Snapshot snap = Registry::global().snapshot();
  bool found = false;
  for (const auto& s : snap.spans) {
    if (s.name != "test.span_extrema") continue;
    found = true;
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.total_ns, 64u);
    EXPECT_EQ(s.min_ns, 5u);
    EXPECT_EQ(s.max_ns, 42u);
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SpanReadsNoClockWhenDisabled) {
  set_enabled(false);
  { Span span("test.span_disabled"); }
  set_enabled(true);
  const Snapshot snap = Registry::global().snapshot();
  for (const auto& s : snap.spans) EXPECT_NE(s.name, "test.span_disabled");
}

// --- The JSON report. -------------------------------------------------------

TEST_F(ObsTest, ReportJsonCarriesSchemaVersionAndPlanes) {
  Registry::global().counter("test.report_counter").add(7);
  Registry::global().gauge("test.report_gauge").set(11);
  Registry::global().histogram("test.report_hist").record(5);
  Registry::global().counter("test.report_steals", Plane::kTiming).add(3);
  Registry::global().gauge("test.report_tgauge", Plane::kTiming).set(5);
  Registry::global().histogram("test.report_thist", Plane::kTiming).record(9);
  Registry::global().record_span("test.report_span", 42);

  const std::string json = report_json(Registry::global().snapshot(), "unit",
                                       {{"key", "value"}});
  EXPECT_NE(json.find("\"gdp_obs_schema\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"value\""), std::string::npos);
  EXPECT_NE(json.find("\"test.report_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.report_gauge\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"test.report_steals\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.report_tgauge\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.report_thist\""), std::string::npos);
  EXPECT_NE(json.find("\"test.report_span\""), std::string::npos);
  // Schema 2: a recorded span carries its extrema.
  EXPECT_NE(json.find("\"min_ns\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"max_ns\": 42"), std::string::npos);
  // The two planes are separate objects, deterministic first.
  const auto det = json.find("\"deterministic\"");
  const auto timing = json.find("\"timing\"");
  ASSERT_NE(det, std::string::npos);
  ASSERT_NE(timing, std::string::npos);
  EXPECT_LT(det, timing);
  EXPECT_LT(json.find("\"test.report_counter\""), timing);
  EXPECT_GT(json.find("\"test.report_steals\""), timing);
  EXPECT_GT(json.find("\"test.report_tgauge\""), timing);
}

TEST_F(ObsTest, ReportJsonOmitsExtremaOnEmptySpans) {
  // reset() zeroes aggregates in place, so the key survives with count 0 —
  // an empty aggregate must not invent sentinel extrema.
  Registry::global().record_span("test.empty_span", 7);
  Registry::global().reset();
  const std::string json = report_json(Registry::global().snapshot(), "unit", {});
  EXPECT_NE(json.find("\"test.empty_span\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
  EXPECT_EQ(json.find("\"min_ns\""), std::string::npos);
  EXPECT_EQ(json.find("\"max_ns\""), std::string::npos);
}

TEST_F(ObsTest, ReportJsonEscapesMetaStrings) {
  const std::string json =
      report_json(Snapshot{}, "esc", {{"path", "a\\b"}, {"quote", "x\"y"}, {"nl", "p\nq"}});
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
  EXPECT_NE(json.find("x\\\"y"), std::string::npos);
  EXPECT_NE(json.find("p\\nq"), std::string::npos);
}

TEST_F(ObsTest, WriteReportRoundTrips) {
  Registry::global().counter("test.roundtrip").add(17);
  const std::string path = std::filesystem::path(::testing::TempDir()) /
                           ("gdp_obs_report_" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(write_report(path, "roundtrip", {{"k", "v"}}));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), report_json(Registry::global().snapshot(), "roundtrip", {{"k", "v"}}));
  std::filesystem::remove(path);
}

TEST_F(ObsTest, WriteReportFailsCleanlyOnBadPath) {
  EXPECT_FALSE(write_report("/nonexistent_dir_gdp_obs/report.json", "nope"));
}

// --- Exact pins on hand-built work. ----------------------------------------

/// 3-state model, 3 philosophers: P0 drives s0 -> s1 -> s2 (eating); P1 and
/// P2 busy-wait everywhere. Small enough that every store counter is
/// computable by hand.
mdp::Model three_state_model() {
  std::vector<std::uint64_t> offsets{0};
  std::vector<mdp::Outcome> outcomes;
  auto row = [&](std::initializer_list<mdp::Outcome> os) {
    for (const mdp::Outcome& o : os) outcomes.push_back(o);
    offsets.push_back(outcomes.size());
  };
  for (mdp::StateId s = 0; s < 3; ++s) {
    row({{1.0f, std::min<mdp::StateId>(s + 1, 2)}});  // P0: advance (s2 absorbs)
    row({{1.0f, s}});                                 // P1: busy-wait
    row({{1.0f, s}});                                 // P2: busy-wait
  }
  return mdp::Model::build(3, std::move(offsets), std::move(outcomes), {0, 0, 0b001},
                           {false, false, false}, false);
}

TEST_F(ObsTest, StoreCountersPinnedOnThreeStateModel) {
  const mdp::Model model = three_state_model();
  // from_model needs a codec whose shape matches the model's philosopher
  // count; any real 3-phil codec will do — the keys only ride along.
  const auto key_algo = algos::make_algorithm("lr1");
  const auto key_topo = graph::classic_ring(3);
  const mdp::KeyCodec codec(*key_algo, key_topo);
  std::vector<std::uint64_t> keys(3 * codec.key_words());
  for (std::size_t s = 0; s < 3; ++s) {
    codec.encode(key_algo->initial_state(key_topo), keys.data() + s * codec.key_words());
  }
  mdp::store::StoreOptions options;
  options.chunk_states = 2;  // 3 states -> chunks of 2 + 1
  auto chunked = mdp::store::ChunkedModel::from_model(model, codec, keys, options);
  Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "store.chunks_written"), 2u);
  EXPECT_EQ(metric(snap.counters, "store.chunks_spilled"), 0u);
  EXPECT_EQ(metric(snap.counters, "store.materializations"), 0u);
  const std::uint64_t payload_bytes = metric(snap.counters, "store.chunk_bytes");
  EXPECT_GT(payload_bytes, 0u);

  // A full spill writes exactly the chunk payloads once; a second spill()
  // is a no-op (already spilled chunks are skipped, not re-counted).
  const std::string dir = std::filesystem::path(::testing::TempDir()) /
                          ("gdp_obs_spill_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  mdp::store::StoreOptions spill_options = options;
  spill_options.spill = true;
  spill_options.dir = dir;
  auto spilled = mdp::store::ChunkedModel::from_model(model, codec, keys, spill_options);
  snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "store.chunks_written"), 4u);
  EXPECT_EQ(metric(snap.counters, "store.chunks_spilled"), 2u);
  EXPECT_EQ(metric(snap.counters, "store.spill_bytes"), payload_bytes);
  spilled.spill();  // idempotent
  snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "store.chunks_spilled"), 2u);

  (void)spilled.materialize();
  snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "store.materializations"), 1u);
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, QuantCountersMatchAnalyzeStats) {
  const mdp::Model model = three_state_model();
  const mdp::quant::QuantResult r = mdp::quant::analyze(model);
  const auto& s = r.stats;
  EXPECT_EQ(s.p_max_sweeps + s.p_min_sweeps + s.e_min_sweeps + s.e_max_sweeps + s.p_trap_sweeps,
            r.sweeps);
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "quant.analyses"), 1u);
  EXPECT_EQ(metric(snap.counters, "quant.sweeps"), r.sweeps);
  EXPECT_EQ(metric(snap.counters, "quant.stalled_phases"), s.stalled_phases);
}

TEST_F(ObsTest, ExploreCountersMatchTheModel) {
  const auto algo = algos::make_algorithm("lr2");
  const auto t = graph::classic_ring(3);
  const mdp::Model model = mdp::explore(*algo, t);
  std::size_t edges = 0;
  for (mdp::StateId s = 0; s < model.num_states(); ++s) {
    for (int p = 0; p < model.num_phils(); ++p) {
      const auto [b, e] = model.row(s, p);
      edges += static_cast<std::size_t>(e - b);
    }
  }
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "explore.states"), model.num_states());
  EXPECT_EQ(metric(snap.counters, "explore.edges"), edges);
  EXPECT_EQ(metric(snap.counters, "explore.truncations"), 0u);
  bool found = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "explore.level_states") continue;
    found = true;
    EXPECT_EQ(h.sum, model.num_states());
    EXPECT_EQ(h.count, metric(snap.counters, "explore.levels"));
  }
  EXPECT_TRUE(found);
}

// The one MEC kernel records a "mec.decompose" span per call at every
// thread count; spans are timing plane, so the fingerprint stays put.
TEST_F(ObsTest, MecDecomposeSpanCountsEveryMecCall) {
  const auto algo = algos::make_algorithm("lr1");
  const auto t = graph::ring_with_pendant(3);
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::uint64_t reference = 0;
  for (const int threads : {1, hw}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Registry::global().reset();
    const mdp::Model model = mdp::explore(*algo, t, {.threads = threads});
    (void)mdp::check_fair_progress(model);
    std::uint64_t mec_calls = 1;
    for (PhilId v = 0; v < t.num_phils(); ++v) {
      (void)mdp::check_lockout_freedom(model, v);
      ++mec_calls;
    }
    const Snapshot snap = Registry::global().snapshot();
    std::uint64_t spans = 0;
    for (const auto& s : snap.spans) {
      if (s.name == "mec.decompose") spans = s.count;
    }
    EXPECT_EQ(spans, mec_calls);
    const std::uint64_t fp = deterministic_fingerprint(snap);
    if (threads == 1) reference = fp;
    EXPECT_EQ(fp, reference);
  }
}

// --- The load-bearing matrix: bit-identity at every thread count. -----------

struct MatrixCase {
  const char* algo;
  graph::Topology t;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const char* algo : {"lr2", "gdp2"}) {
    cases.push_back({algo, graph::classic_ring(3)});
    cases.push_back({algo, graph::ring_with_chord(3)});
    cases.push_back({algo, graph::parallel_arcs(3)});
  }
  return cases;
}

TEST_F(ObsTest, DeterministicPlaneBitIdenticalAcrossThreadCounts) {
  for (const MatrixCase& c : matrix_cases()) {
    SCOPED_TRACE(std::string(c.algo) + "/" + c.t.name());
    const auto algo = algos::make_algorithm(c.algo);
    std::uint64_t reference = 0;
    bool have_reference = false;
    for (const int threads : thread_counts()) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Registry::global().reset();
      mdp::CheckOptions opts;
      opts.threads = threads;
      const auto model = mdp::explore(*algo, c.t, opts);
      (void)mdp::check_fair_progress(model, ~std::uint64_t{0});
      mdp::quant::QuantOptions qopts;
      qopts.threads = threads;
      (void)mdp::quant::analyze(model, ~std::uint64_t{0}, qopts);
      const std::uint64_t fp = deterministic_fingerprint(Registry::global().snapshot());
      if (!have_reference) {
        reference = fp;
        have_reference = true;
      } else {
        EXPECT_EQ(fp, reference);
      }
    }
  }
}

TEST_F(ObsTest, ObsDoesNotPerturbModelsOrVerdicts) {
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  auto run = [&]() {
    const auto chunked = mdp::store::explore(*algo, t);
    const auto model = chunked.materialize();
    const auto verdict = mdp::check_fair_progress(model);
    const auto q = mdp::quant::analyze(model);
    return std::tuple(chunked.fingerprint(), verdict.verdict, q.sweeps, q.p_min.lower,
                      q.p_min.upper);
  };
  const auto with_obs = run();
  set_enabled(false);
  const auto without_obs = run();
  set_enabled(true);
  EXPECT_EQ(with_obs, without_obs);
}

// --- The timeline plane (gdp/obs/timeline.hpp). -----------------------------

/// Timeline tests run with BOTH planes on and zeroed rings; the rings are
/// process-global like the registry, so tests assert deltas from a reset,
/// never absolute track counts.
class TimelineTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    timeline::reset();
    timeline::set_enabled(true);
  }
  void TearDown() override {
    timeline::set_enabled(false);
    timeline::reset();
    ObsTest::TearDown();
  }
};

TEST_F(TimelineTest, OffMeansZeroEvents) {
  timeline::set_enabled(false);
  timeline::begin_slice("test.off");
  timeline::end_slice("test.off");
  timeline::instant("test.off_instant");
  timeline::counter_sample("test.off_counter", 1.0);
  { Span span("test.off_scoped"); }
  const timeline::Stats stats = timeline::stats();
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(stats.dropped_events, 0u);
}

// One span, two independent gates: every combination of obs::enabled() and
// timeline::enabled() records exactly the planes that were on at
// construction. Each plane is armed once, there: a gate switched on
// mid-scope records nothing for this span (no end without a begin), and
// the registry aggregate still records if obs is switched off mid-scope.
// (Switching the timeline off drops every later event, slice ends
// included — timeline.hpp says to flip it around runs, not during them.)
TEST_F(TimelineTest, SpanFeedsEachPlaneUnderItsOwnGate) {
  struct Gates {
    const char* name;
    bool registry;
    bool timeline;
  };
  const Gates cases[] = {{"test.gates_off", false, false},
                         {"test.gates_registry", true, false},
                         {"test.gates_timeline", false, true},
                         {"test.gates_both", true, true}};
  for (const Gates& g : cases) {
    SCOPED_TRACE(g.name);
    timeline::reset();
    set_enabled(g.registry);
    timeline::set_enabled(g.timeline);
    {
      Span span(g.name);
      set_enabled(!g.registry);
      timeline::set_enabled(true);
    }
    set_enabled(true);
    timeline::set_enabled(true);
    std::uint64_t recorded = 0;
    for (const auto& s : Registry::global().snapshot().spans) {
      if (s.name == g.name) recorded = s.count;
    }
    EXPECT_EQ(recorded, g.registry ? 1u : 0u);
    const timeline::Stats stats = timeline::stats();
    EXPECT_EQ(stats.begins, g.timeline ? 1u : 0u);
    EXPECT_EQ(stats.ends, stats.begins);
    EXPECT_EQ(stats.events, stats.begins + stats.ends);
  }
}

TEST_F(TimelineTest, BalancedBeginsEndsAndMonotoneTimestampsPerTrack) {
  common::parallel_for(64, /*threads=*/4, [&](std::uint32_t id) {
    Span outer("test.outer");
    {
      Span inner("test.inner");
      timeline::instant("test.tick");
    }
    timeline::counter_sample("test.progress", static_cast<double>(id));
  });
  // The pool's own instrumentation (pool.worker slices, pool.tasks_run
  // samples) shares the rings, so tally this test's events by name.
  std::uint64_t outer_begins = 0, outer_ends = 0, inner_begins = 0, inner_ends = 0;
  std::uint64_t ticks = 0, samples = 0;
  for (const timeline::TrackEvents& track : timeline::snapshot_tracks()) {
    EXPECT_EQ(track.dropped_events, 0u);
    for (const timeline::Event& e : track.events) {
      const std::string name = e.name;
      if (name == "test.outer") (e.kind == timeline::EventKind::kBegin ? outer_begins
                                                                       : outer_ends)++;
      if (name == "test.inner") (e.kind == timeline::EventKind::kBegin ? inner_begins
                                                                       : inner_ends)++;
      if (name == "test.tick") ++ticks;
      if (name == "test.progress") ++samples;
    }
  }
  EXPECT_EQ(outer_begins, 64u);
  EXPECT_EQ(outer_ends, 64u);
  EXPECT_EQ(inner_begins, 64u);
  EXPECT_EQ(inner_ends, 64u);
  EXPECT_EQ(ticks, 64u);
  EXPECT_EQ(samples, 64u);

  for (const timeline::TrackEvents& track : timeline::snapshot_tracks()) {
    std::uint64_t last_ts = 0;
    std::int64_t depth = 0;
    for (const timeline::Event& e : track.events) {
      EXPECT_GE(e.ts_ns, last_ts);  // one writer, one monotone clock
      last_ts = e.ts_ns;
      if (e.kind == timeline::EventKind::kBegin) ++depth;
      if (e.kind == timeline::EventKind::kEnd) --depth;
      EXPECT_GE(depth, 0);  // an end never precedes its begin
    }
    EXPECT_EQ(depth, 0);  // every slice closed on its own track
  }
}

TEST_F(TimelineTest, TraceJsonIsWellFormedAndRoundTripsThroughWriteTrace) {
  {
    Span span("test.trace_slice");
    timeline::instant("test.trace_instant");
    timeline::counter_sample("test.trace_counter", 3.5);
  }
  const std::string json = timeline::trace_json("unit \"quoted\"");
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": \"0\""), std::string::npos);
  EXPECT_NE(json.find("\"unit \\\"quoted\\\"\""), std::string::npos);  // escaped meta
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);           // thread-scoped instant
  EXPECT_NE(json.find("\"args\": {\"value\": 3.5}"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 4), "]\n}\n");

  const std::string path = std::filesystem::path(::testing::TempDir()) /
                           ("gdp_obs_trace_" + std::to_string(::getpid()) + ".json");
  ASSERT_TRUE(timeline::write_trace(path, "unit \"quoted\""));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), json);  // no events in between — identical drain
  std::filesystem::remove(path);
}

TEST_F(TimelineTest, OverflowDropsNewEventsAndKeepsOldOnesIntact) {
  // One thread past capacity: the ring must keep its first kRingCapacity
  // events untouched and count the overflow — never overwrite, never grow.
  constexpr std::uint64_t kOverflow = 500;
  for (std::uint64_t i = 0; i < timeline::kRingCapacity + kOverflow; ++i) {
    timeline::instant("test.flood");
  }
  const timeline::Stats stats = timeline::stats();
  EXPECT_EQ(stats.events, timeline::kRingCapacity);
  EXPECT_EQ(stats.dropped_events, kOverflow);

  bool found = false;
  for (const timeline::TrackEvents& track : timeline::snapshot_tracks()) {
    if (track.events.empty()) continue;
    found = true;
    EXPECT_EQ(track.events.size(), std::size_t{timeline::kRingCapacity});
    EXPECT_EQ(track.dropped_events, kOverflow);
    EXPECT_STREQ(track.events.front().name, "test.flood");
    EXPECT_STREQ(track.events.back().name, "test.flood");
    EXPECT_EQ(track.events.front().kind, timeline::EventKind::kInstant);
  }
  EXPECT_TRUE(found);
}

TEST_F(TimelineTest, TimelineDoesNotPerturbResultsAtAnyThreadCount) {
  const auto algo = algos::make_algorithm("gdp2");
  const auto t = graph::parallel_arcs(3);
  for (const int threads : thread_counts()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto run = [&]() {
      Registry::global().reset();
      mdp::CheckOptions opts;
      opts.threads = threads;
      const auto chunked = mdp::store::explore(*algo, t, {}, opts);
      const auto model = chunked.materialize();
      const auto verdict = mdp::check_fair_progress(model, ~std::uint64_t{0});
      mdp::quant::QuantOptions qopts;
      qopts.threads = threads;
      const auto q = mdp::quant::analyze(model, ~std::uint64_t{0}, qopts);
      return std::tuple(chunked.fingerprint(), model.num_states(), model.num_rows(),
                        verdict.verdict, q.sweeps, q.p_min.lower, q.p_min.upper,
                        deterministic_fingerprint(Registry::global().snapshot()));
    };
    timeline::set_enabled(true);
    const auto with_timeline = run();
    timeline::set_enabled(false);
    const auto without_timeline = run();
    timeline::set_enabled(true);
    EXPECT_EQ(with_timeline, without_timeline);
  }
}

// --- Concurrency hammer (the TSan target). ----------------------------------

TEST_F(ObsTest, RegistryHammeredFromManyThreads) {
  constexpr std::size_t kTasks = 2'000;
  common::parallel_for(kTasks, /*threads=*/8, [&](std::uint32_t id) {
    // Lookups race with lookups of the same and other names, increments
    // race with snapshots — every surface the engine touches concurrently.
    Registry::global().counter("hammer.counter").increment();
    Registry::global().counter("hammer.counter_" + std::to_string(id % 7)).add(id);
    Registry::global().counter("hammer.timing", Plane::kTiming).increment();
    Registry::global().gauge("hammer.gauge").set_max(id);
    Registry::global().histogram("hammer.hist").record(id);
    Registry::global().record_span("hammer.span", id);
    if (id % 64 == 0) (void)Registry::global().snapshot();
  });
  const Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(metric(snap.counters, "hammer.counter"), kTasks);
  EXPECT_EQ(metric(snap.timing_counters, "hammer.timing"), kTasks);
  std::uint64_t striped = 0;
  for (int k = 0; k < 7; ++k) {
    striped += metric(snap.counters, "hammer.counter_" + std::to_string(k));
  }
  EXPECT_EQ(striped, kTasks * (kTasks - 1) / 2);
  bool found = false;
  for (const auto& s : snap.spans) {
    if (s.name != "hammer.span") continue;
    found = true;
    EXPECT_EQ(s.count, kTasks);
  }
  EXPECT_TRUE(found);
}

TEST_F(TimelineTest, TimelineHammeredByWritersUnderALiveReader) {
  // Seven writers flood their rings while worker 0 concurrently drains
  // them the way the heartbeat sampler and write_trace do — the rings'
  // release/acquire publication is the surface TSan checks here.
  constexpr unsigned kWriters = 7;
  constexpr int kRounds = 500;
  std::atomic<unsigned> writers_done{0};
  common::run_workers(kWriters + 1, [&](unsigned worker) {
    if (worker == 0) {
      while (writers_done.load(std::memory_order_acquire) < kWriters) {
        (void)timeline::trace_json("hammer");
        (void)timeline::stats();
        (void)timeline::snapshot_tracks();
      }
      return;
    }
    for (int i = 0; i < kRounds; ++i) {
      Span span("hammer.slice");
      timeline::instant("hammer.instant");
      timeline::counter_sample("hammer.progress", static_cast<double>(i));
    }
    writers_done.fetch_add(1, std::memory_order_release);
  });
  const timeline::Stats stats = timeline::stats();
  const std::uint64_t expected = static_cast<std::uint64_t>(kWriters) * kRounds;
  EXPECT_GE(stats.begins + stats.dropped_events, expected);
  EXPECT_EQ(stats.begins, stats.ends);  // 2k events/writer fit a 32k ring — no drops

  EXPECT_EQ(stats.instants + stats.counters + stats.begins + stats.ends, stats.events);
}

}  // namespace
}  // namespace gdp::obs
