// Tests for the pipeline telemetry layer (src/telemetry) and the shared JSON
// emission layer (src/support/json.h) it exports through.
//
// Telemetry state is process-global, so every fixture enables collection in
// SetUp and fully disables + clears it in TearDown — tests must stay clean
// under any gtest execution order.
#include <atomic>
#include <string>

#include <gtest/gtest.h>

#include "batch/thread_pool.h"
#include "support/json.h"
#include "telemetry/telemetry.h"

namespace specsyn {
namespace {

namespace tm = specsyn::telemetry;

uint64_t counter_value(const tm::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second.value;
}

// ---------------------------------------------------------------------------
// support/json.h

TEST(JsonWriter, CompactObjectWithNesting) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object()
      .kv("name", "x")
      .kv("n", 3)
      .key("list")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .key("empty")
      .begin_object()
      .end_object()
      .end_object();
  EXPECT_EQ(out, R"({"name":"x","n":3,"list":[1,2],"empty":{}})");
}

TEST(JsonWriter, PrettyPrintingIndentsPerLevel) {
  std::string out;
  JsonWriter w(&out, 2);
  w.begin_object().kv("a", 1).key("b").begin_array().value(true).end_array()
      .end_object();
  EXPECT_EQ(out, "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
}

TEST(JsonWriter, ValueTypesRenderCanonically) {
  std::string out;
  JsonWriter w(&out);
  w.begin_array()
      .value(false)
      .value(static_cast<uint64_t>(1) << 40)
      .value(-7)
      .value(2.5, 1)
      .value("quote \" here")
      .end_array();
  EXPECT_EQ(out, R"([false,1099511627776,-7,2.5,"quote \" here"])");
}

TEST(JsonEscape, ControlCharactersEscape) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\tend\r"), "l1\\nl2\\tend\\r");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("plain text"), "plain text");
}

// ---------------------------------------------------------------------------
// telemetry registry

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tm::enable(true, true);
    tm::reset();
  }
  void TearDown() override {
    tm::enable(false, false);
    tm::reset();
  }
};

TEST_F(TelemetryTest, DisabledCollectionRecordsNothing) {
  tm::enable(false, false);
  tm::reset();
  EXPECT_FALSE(tm::enabled());
  SPECSYN_TM_COUNT("t.counter", tm::Stability::Stable, 5);
  { tm::Span span("t.span", tm::Stability::Stable); }
  const tm::Snapshot snap = tm::snapshot();
  EXPECT_EQ(snap.counters.count("t.counter"), 0u);
  EXPECT_EQ(snap.spans.count("t.span"), 0u);
}

TEST_F(TelemetryTest, CountersAccumulateWithStability) {
  tm::count("t.a", tm::Stability::Stable, 2);
  tm::count("t.a", tm::Stability::Stable, 3);
  tm::count("t.b", tm::Stability::Sched, 1);
  const tm::Snapshot snap = tm::snapshot();
  EXPECT_EQ(counter_value(snap, "t.a"), 5u);
  EXPECT_EQ(snap.counters.at("t.a").stability, tm::Stability::Stable);
  EXPECT_EQ(snap.counters.at("t.b").stability, tm::Stability::Sched);
}

TEST_F(TelemetryTest, SpansAggregateAndEmitTraceEvents) {
  { tm::Span span("t.phase", tm::Stability::Stable, "first"); }
  { tm::Span span("t.phase", tm::Stability::Stable); }
  const tm::Snapshot snap = tm::snapshot();
  const tm::SpanAggregate& agg = snap.spans.at("t.phase");
  EXPECT_EQ(agg.count, 2u);
  EXPECT_EQ(agg.total_ns, agg.min_ns + agg.max_ns);  // exactly two samples
  EXPECT_LE(agg.min_ns, agg.max_ns);

  size_t events = 0;
  bool saw_detail = false;
  for (const tm::Lane& lane : snap.lanes) {
    for (const tm::SpanEvent& e : lane.events) {
      if (std::string(e.name) == "t.phase") {
        ++events;
        saw_detail |= e.detail == "first";
      }
    }
  }
  EXPECT_EQ(events, 2u);
  EXPECT_TRUE(saw_detail);
}

TEST_F(TelemetryTest, StatsJsonIsSchemaShapedAndTableRenders) {
  tm::count("t.stable", tm::Stability::Stable, 1);
  tm::count("t.timey", tm::Stability::Time, 9);
  { tm::Span span("t.phase", tm::Stability::Stable); }
  const tm::Snapshot snap = tm::snapshot();

  const std::string json = tm::stats_to_json(snap, "test");
  EXPECT_NE(json.find("\"schema\": \"specsyn-stats-v2\""), std::string::npos);
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"command\": \"test\""), std::string::npos);
  EXPECT_NE(json.find("\"t.stable\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"t.timey\": 9"), std::string::npos);

  const std::string table = tm::render_stats_table(snap);
  EXPECT_NE(table.find("t.stable"), std::string::npos);
  EXPECT_NE(table.find("t.phase"), std::string::npos);

  const std::string trace = tm::trace_to_chrome_json(snap);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"t.phase\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Thread-pool counters under a parallel batch

TEST_F(TelemetryTest, PoolCountersSumAcrossEightWorkers) {
  constexpr size_t kJobs = 64;
  constexpr size_t kWorkers = 8;
  std::atomic<uint64_t> side{0};
  {
    batch::ThreadPool pool(kWorkers);
    batch::run_batch<int>(pool, kJobs,
                          [&](size_t job, batch::WorkerContext&) {
                            tm::Span span("t.job", tm::Stability::Stable);
                            side.fetch_add(job, std::memory_order_relaxed);
                            return static_cast<int>(job);
                          });
  }
  EXPECT_EQ(side.load(), kJobs * (kJobs - 1) / 2);

  const tm::Snapshot snap = tm::snapshot();
  EXPECT_EQ(counter_value(snap, "pool.jobs"), kJobs);
  uint64_t per_worker = 0;
  size_t workers_seen = 0;
  for (size_t w = 0; w < kWorkers; ++w) {
    const std::string name = "pool.worker." + std::to_string(w) + ".jobs";
    const auto it = snap.counters.find(name);
    if (it == snap.counters.end()) continue;
    ++workers_seen;
    per_worker += it->second.value;
    EXPECT_EQ(it->second.stability, tm::Stability::Sched);
  }
  // Per-worker attribution covers every job exactly once, however the
  // scheduler spread them.
  EXPECT_EQ(per_worker, kJobs);
  EXPECT_GE(workers_seen, 1u);
  EXPECT_EQ(snap.spans.at("t.job").count, kJobs);

  // Every worker that executed a job shows up as a trace lane (each job
  // recorded a span event on its worker's shard).
  size_t worker_lanes = 0;
  for (const tm::Lane& lane : snap.lanes) {
    if (lane.name.rfind("worker ", 0) == 0) ++worker_lanes;
  }
  EXPECT_GE(worker_lanes, workers_seen);
}

}  // namespace
}  // namespace specsyn
