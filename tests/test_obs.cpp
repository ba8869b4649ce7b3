// Observability-layer lockdown: metric correctness (counters, gauges,
// quantile-sketch histogram statistics and quantiles), registry get-or-create
// stability, exactness of lock-striped counters under the thread pool,
// well-formedness of both JSON exports (metrics report and Chrome trace),
// and the disabled-mode no-op contract for tracing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/obs/obs.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

using test::JsonValidator;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

/// Restore the tracing switch (tests flip it on and off).
class TraceGuard {
 public:
  TraceGuard() : saved_(obs::trace_enabled()) {}
  ~TraceGuard() { obs::set_trace_enabled(saved_); }

 private:
  bool saved_;
};

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\n"], "b": null})").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": })").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonValidator(R"([1, 2)").valid());
  EXPECT_FALSE(JsonValidator("{} extra").valid());
  EXPECT_FALSE(JsonValidator(R"("unterminated)").valid());
}

// ------------------------------------------------------------- counters

TEST(ObsCounter, IncrementAndReset) {
  obs::Counter& c = obs::counter("test.counter.basic");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ExactUnderConcurrentIncrements) {
  ThreadGuard guard;
  util::set_num_threads(4);
  obs::Counter& c = obs::counter("test.counter.concurrent");
  c.reset();
  constexpr std::int64_t kN = 20000;
  util::parallel_for(0, kN, 64, [&](std::int64_t) { c.inc(); });
  // Lock striping must lose nothing: the sum over stripes is exact at
  // quiescence regardless of which worker incremented which stripe.
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kN));
}

TEST(ObsGauge, SetAddValue) {
  obs::Gauge& g = obs::gauge("test.gauge.basic");
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(2.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  g.add(-3.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ----------------------------------------------------------- histograms
//
// The registry's one histogram type is the log-bucketed quantile sketch
// (SketchMetric, sketch.hpp): exact count/sum/min/max, alpha-relative
// quantiles clamped to the observed envelope, and a shard merge that is
// identical at any thread count.

TEST(ObsHistogram, SnapshotStatisticsExact) {
  obs::SketchMetric& h = obs::sketch("test.hist.stats");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const obs::QuantileSketch s = h.merged();
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  const double p50 = s.quantile(0.50);
  const double p95 = s.quantile(0.95);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, s.min());
  EXPECT_LE(p99, s.max());
  // Relative-error guarantee (2 * alpha for the rank discretization).
  EXPECT_NEAR(p50, 50.0, 0.02 * 50.0);
  EXPECT_NEAR(p99, 99.0, 0.02 * 99.0);
}

TEST(ObsHistogram, PercentileClampedToObservedRange) {
  obs::SketchMetric& h = obs::sketch("test.hist.clamp");
  h.reset();
  // All mass in one bucket: the bucket midpoint must still never escape
  // [min, max].
  for (int i = 0; i < 50; ++i) h.observe(3.3);
  const obs::QuantileSketch s = h.merged();
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 3.3);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 3.3);
}

TEST(ObsHistogram, CountExactUnderConcurrentObserves) {
  ThreadGuard guard;
  constexpr std::int64_t kN = 10000;
  // Same multiset of values observed from 1 and from 4 threads: the count
  // is exact and the merged quantiles are identical, bit for bit.
  auto run = [&](int threads, const std::string& name) {
    util::set_num_threads(threads);
    obs::SketchMetric& h = obs::sketch(name);
    h.reset();
    util::parallel_for(0, kN, 64, [&](std::int64_t i) {
      h.observe(static_cast<double>(i % 7) + 0.5);
    });
    return h.merged();
  };
  const obs::QuantileSketch one = run(1, "test.hist.concurrent1");
  const obs::QuantileSketch four = run(4, "test.hist.concurrent4");
  EXPECT_EQ(four.count(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(four.count(), one.count());
  EXPECT_EQ(four.bucket_count(), one.bucket_count());
  EXPECT_DOUBLE_EQ(four.min(), 0.5);
  EXPECT_DOUBLE_EQ(four.max(), 6.5);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(four.quantile(q), one.quantile(q)) << "q=" << q;
}

// ------------------------------------------------------------- registry

TEST(ObsRegistry, GetOrCreateReturnsStableAddresses) {
  obs::Counter& a = obs::counter("test.registry.stable");
  obs::Counter& b = obs::counter("test.registry.stable");
  EXPECT_EQ(&a, &b);
  a.inc(7);
  obs::Registry::instance().reset_values();
  // reset_values zeroes in place: cached references stay valid and read 0.
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(&obs::counter("test.registry.stable"), &a);
}

TEST(ObsRegistry, NonFiniteGaugeExportsAsNull) {
  obs::Gauge& g = obs::gauge("test.export.nan_gauge");
  g.set(std::nan(""));
  const std::string json = obs::Registry::instance().to_json();
  const std::string prom = obs::Registry::instance().to_prometheus();
  g.set(0.0);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"test.export.nan_gauge\": null"), std::string::npos)
      << json;
  // The exposition format has its own spelling for a non-finite sample.
  EXPECT_NE(prom.find("orev_test_export_nan_gauge NaN\n"), std::string::npos)
      << prom;
}

TEST(ObsRegistry, JsonExportIsWellFormed) {
  obs::counter("test.export.counter").inc(3);
  obs::gauge("test.export.gauge").set(-1.25);
  obs::sketch("test.export.hist").observe(2.0);
  const std::string json = obs::Registry::instance().to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("orev-metrics-v1"), std::string::npos);
  EXPECT_NE(json.find("test.export.counter"), std::string::npos);
  EXPECT_NE(json.find("test.export.hist"), std::string::npos);
}

TEST(ObsRegistry, PrometheusExportSanitizesNames) {
  obs::counter("test.export.counter").inc();
  const std::string text = obs::Registry::instance().to_prometheus();
  // Dots become underscores, the orev_ prefix is applied, and each metric
  // carries a TYPE line.
  EXPECT_NE(text.find("orev_test_export_counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_EQ(text.find("test.export.counter"), std::string::npos);
}

// -------------------------------------------------------------- tracing

TEST(ObsTrace, DisabledModeRecordsNothing) {
  TraceGuard guard;
  obs::set_trace_enabled(false);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN("should.not.record");
    OREV_TRACE_SPAN_CAT("nor.this", "test");
  }
  EXPECT_TRUE(obs::trace_snapshot().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, RecordsNestedSpansWithNames) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN_CAT("outer", "test");
    { OREV_TRACE_SPAN_CAT("inner", "test"); }
  }
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner completes first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  // The inner interval nests within the outer one.
  EXPECT_GE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[0].ts_ns + events[0].dur_ns,
            events[1].ts_ns + events[1].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(ObsTrace, SpanToggleIsCapturedAtConstruction) {
  TraceGuard guard;
  obs::set_trace_enabled(false);
  obs::trace_clear();
  obs::set_trace_enabled(true);
  {
    OREV_TRACE_SPAN("flipped");
    // Disabling mid-span must not lose the already-active span...
    obs::set_trace_enabled(false);
  }
  // ...and spans constructed while disabled stay silent.
  { OREV_TRACE_SPAN("silent"); }
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "flipped");
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  TraceGuard guard;
  obs::set_trace_enabled(true);
  obs::trace_clear();
  {
    OREV_TRACE_SPAN_CAT("alpha", "test");
    { OREV_TRACE_SPAN_CAT("beta \"quoted\"\\slash", "test"); }
  }
  const std::string json = obs::trace_to_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
}

TEST(ObsTrace, ConcurrentSpansAllRecorded) {
  ThreadGuard tguard;
  TraceGuard guard;
  util::set_num_threads(4);
  obs::set_trace_enabled(true);
  obs::trace_clear();
  constexpr std::int64_t kN = 500;
  util::parallel_for(0, kN, 8,
                     [&](std::int64_t) { OREV_TRACE_SPAN("worker.span"); });
  const std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  // The pool's own instrumentation may add pool.* spans on top of ours.
  std::int64_t ours = 0;
  std::set<std::uint32_t> tids;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "worker.span") ++ours;
    tids.insert(e.tid);
  }
  EXPECT_EQ(ours, kN);
  EXPECT_GE(tids.size(), 1u);
}

// --------------------------------------------------------------- timers

TEST(ObsTimer, MonotoneAndLaps) {
  obs::WallTimer t;
  const std::uint64_t a = t.elapsed_ns();
  const std::uint64_t lap1 = t.lap_ns();
  const std::uint64_t b = t.elapsed_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(lap1, a);
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LE(t.elapsed_ns(), b + 1000000000ull);  // sanity: reset re-anchors
}

TEST(ObsTimer, ScopedTimerObservesIntoHistogram) {
  obs::SketchMetric& h = obs::sketch("test.scoped.timer");
  h.reset();
  { const obs::ScopedTimerMs t(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.merged().min(), 0.0);
}

}  // namespace
}  // namespace orev
