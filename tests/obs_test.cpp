// teco::obs — registry, spans, snapshots, exports, bench reports.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/gantt.hpp"
#include "core/report.hpp"
#include "core/trace_export.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"

namespace {

using namespace teco;

// TECO_OBS=OFF compiles Counter::add / Gauge::set / Hist::observe to
// no-ops, so every test that records a value and reads it back must skip;
// registration, lookup and structural behavior stay covered by the rest.
#ifdef TECO_OBS_DISABLED
#define TECO_SKIP_WITHOUT_OBS() \
  GTEST_SKIP() << "telemetry recording compiled out (TECO_OBS=OFF)"
#else
#define TECO_SKIP_WITHOUT_OBS() (void)0
#endif


TEST(MetricsRegistry, RegistrationIsIdempotent) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("cxl.up.flits");
  obs::Counter& b = reg.counter("cxl.up.flits");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(reg.value("cxl.up.flits"), 3.0);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", 0.0, 1.0, 4), std::logic_error);
  EXPECT_EQ(reg.find_gauge("x"), nullptr);
  EXPECT_NE(reg.find_counter("x"), nullptr);
}

TEST(MetricsRegistry, LookupWithoutRegistration) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_DOUBLE_EQ(reg.value("absent"), 0.0);
  EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, ResetKeepsHandles) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("tier.evictions");
  obs::Gauge& g = reg.gauge("tier.occupancy");
  c.add(7.0);
  g.set(42.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  // The old handles still record into the registry after reset.
  c.add(1.0);
  EXPECT_DOUBLE_EQ(reg.value("tier.evictions"), 1.0);
}

TEST(MetricsRegistry, SamplesSortedAndHistogramExpanded) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(2.0);
  obs::Hist& h = reg.histogram("a.lat", 0.0, 10.0, 10);
  h.observe(1.0);
  h.observe(9.0);
  const auto samples = reg.samples();
  ASSERT_GE(samples.size(), 3u);
  // Sorted by name: the a.lat.* expansion precedes b.count.
  EXPECT_EQ(samples.front().name, "a.lat.count");
  bool saw_p95 = false;
  for (const auto& s : samples) {
    if (s.name == "a.lat.p95") saw_p95 = true;
    if (s.name == "a.lat.count") {
      EXPECT_TRUE(s.monotone);
      EXPECT_DOUBLE_EQ(s.value, 2.0);
    }
    if (s.name == "a.lat.mean") {
      EXPECT_FALSE(s.monotone);
    }
  }
  EXPECT_TRUE(saw_p95);
}

TEST(Span, RaiiClosesOnClockAndClampsNegative) {
  obs::TraceBuffer buf;
  sim::Time clock = 1.0;
  {
    obs::Span s(&buf, "step", "step 0", clock, &clock);
    clock = 3.0;
  }
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_DOUBLE_EQ(buf.events()[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(buf.events()[0].end, 3.0);
  // end < begin is clamped to an instant, never a negative interval.
  buf.emit("x", "backwards", 5.0, 2.0);
  EXPECT_DOUBLE_EQ(buf.events()[1].end, 5.0);
  // Null buffer: every operation is a no-op.
  obs::Span none(nullptr, "x", "y", 0.0);
  none.close(1.0);
}

TEST(StepPublisher, DeltasAreMonotoneDifferences) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("cxl.up.bytes");
  obs::Gauge& g = reg.gauge("queue.depth");
  c.add(100.0);
  g.set(4.0);

  obs::StepPublisher pub;
  const auto s0 = pub.publish(reg, 0, 0.0, 1.0);
  ASSERT_EQ(s0.deltas.size(), 1u);  // Gauges are not monotone.
  EXPECT_EQ(s0.deltas[0].name, "cxl.up.bytes");
  EXPECT_DOUBLE_EQ(s0.deltas[0].value, 100.0);

  c.add(50.0);
  const auto s1 = pub.publish(reg, 1, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(s1.deltas[0].value, 50.0);
  EXPECT_DOUBLE_EQ(s1.totals[0].value, 150.0);

  pub.rebase();
  const auto s2 = pub.publish(reg, 2, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(s2.deltas[0].value, 150.0);  // Baseline forgotten.
}

TEST(StepPublisher, SinksReceiveEverySnapshot) {
  struct CountingSink final : obs::StepSink {
    int calls = 0;
    std::size_t last_step = 0;
    void on_step(const obs::StepSnapshot& snap) override {
      ++calls;
      last_step = snap.step;
    }
  };
  CountingSink sink;
  obs::MetricsRegistry reg;
  reg.counter("x").add();
  obs::StepPublisher pub;
  EXPECT_FALSE(pub.has_sinks());
  pub.add_sink(&sink);
  EXPECT_TRUE(pub.has_sinks());
  pub.publish(reg, 7, 0.0, 1.0);
  EXPECT_EQ(sink.calls, 1);
  EXPECT_EQ(sink.last_step, 7u);
  pub.remove_sink(&sink);
  pub.publish(reg, 8, 1.0, 2.0);
  EXPECT_EQ(sink.calls, 1);
}

TEST(JsonlWriter, GoldenLine) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  reg.counter("cxl.up.bytes").add(4096.0);
  reg.counter("idle.counter");  // Zero: elided from deltas, kept in totals.
  obs::StepPublisher pub;
  std::ostringstream os;
  obs::JsonlWriter writer(os);
  pub.add_sink(&writer);
  pub.publish(reg, 3, 0.0, 2e-6);
  EXPECT_EQ(os.str(),
            "{\"step\":3,\"t_begin_us\":0,\"t_end_us\":2,"
            "\"deltas\":{\"cxl.up.bytes\":4096},"
            "\"totals\":{\"cxl.up.bytes\":4096,\"idle.counter\":0}}\n");
}

TEST(PrometheusText, GoldenOutput) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  reg.counter("cxl.up.bytes").add(64.0);
  reg.gauge("tier.hbm_occupancy").set(0.5);
  const std::string text = obs::to_prometheus_text(reg);
  EXPECT_EQ(text,
            "# TYPE teco_cxl_up_bytes counter\n"
            "teco_cxl_up_bytes 64\n"
            "# TYPE teco_tier_hbm_occupancy gauge\n"
            "teco_tier_hbm_occupancy 0.5\n");
}

TEST(SnapshotRows, SkipsAllZeroRows) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  reg.counter("a").add(2.0);
  reg.counter("zero");
  obs::StepPublisher pub;
  const auto snap = pub.publish(reg, 0, 0.0, 1.0);
  const auto rows = obs::snapshot_rows(snap);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[0][1], "2");
  EXPECT_EQ(rows[0][2], "2");
  // And the TextTable wrapper renders a header plus that row.
  const std::string table = core::step_snapshot_table(snap);
  EXPECT_NE(table.find("metric"), std::string::npos);
  EXPECT_NE(table.find("| a"), std::string::npos);
}

TEST(ChromeTraceComposer, UnifiedTraceContainsAllThreeSources) {
  core::GanttChart g;
  g.add("GPU", '=', 0.0, 1e-6);
  obs::TraceBuffer spans;
  spans.emit("step", "step 0", 0.0, 2e-6);
  std::vector<core::CounterSeries> counters = {
      {"HBM bytes", {{0.0, 100}, {1e-6, 200}}}};

  core::ChromeTraceComposer c;
  c.add_gantt(g, "gantt", 1);
  c.add_counters(counters, 1);
  c.add_spans(spans, "telemetry", 2);
  const std::string json = c.json();

  EXPECT_NE(json.find(R"("name":"process_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"gantt"})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"telemetry"})"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"step 0")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"bytes":200})"), std::string::npos);
  // The legacy single-chart wrapper still produces the same gantt events.
  const std::string legacy = core::to_chrome_trace_json(g, "gantt", counters);
  EXPECT_NE(legacy.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(legacy.find(R"("ph":"C")"), std::string::npos);
}

TEST(ChromeTraceComposer, LaneTidsAreStablePerProcess) {
  core::GanttChart g;
  g.add("laneA", 'a', 0.0, 1.0);
  g.add("laneB", 'b', 0.0, 1.0);
  g.add("laneA", 'c', 1.0, 2.0);
  core::ChromeTraceComposer c;
  c.add_gantt(g, "p", 1);
  // 1 process_name + 2 lanes x 2 metadata + 3 X events.
  EXPECT_EQ(c.events(), 8u);
}

TEST(BenchReport, JsonSchemaAndOverride) {
  TECO_SKIP_WITHOUT_OBS();
  obs::MetricsRegistry reg;
  reg.counter("cxl.up.flits").add(12.0);
  obs::BenchReport r("unit_test");
  r.set_config("model", "gpt2");
  r.set_config("batch", 8.0);
  r.set_config("batch", 16.0);  // Upsert, not duplicate.
  r.set_headline("speedup_x", 1.5);
  r.attach_registry(&reg);
  const std::string json = r.json();
  EXPECT_NE(json.find("\"schema\": \"teco-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\": 16"), std::string::npos);
  EXPECT_EQ(json.find("\"batch\": 8,"), std::string::npos);
  EXPECT_NE(json.find("\"speedup_x\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"cxl.up.flits\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"wall_clock_s\":"), std::string::npos);
}

TEST(BenchReport, WallClockSpansWorkBeforeConstruction) {
  // Benches build their report after the sweep; the sweep must still count.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const obs::BenchReport r("unit_test");
  const std::string json = r.json();
  const std::size_t at = json.find("\"wall_clock_s\": ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stod(json.substr(at + 16)), 0.02);
}

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_number(2.0), "2");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
  // Nonfinite values must not produce invalid JSON.
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

}  // namespace
