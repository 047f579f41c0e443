// Observability tests: BusTracer transaction decoding and contention
// accounting on the refined medical models, MetricsReport rendering, and
// TraceExporter's Chrome trace-event JSON.
//
// The headline assertion is the paper's: on the same partition, Model1's
// single arbitrated bus shows strictly more contention than Model3's
// dedicated per-pair buses (which, having one master each, show none).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "refine/refiner.h"
#include "sim/simulator.h"
#include "spec/builder.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

using namespace build;

Specification refined_medical(ImplModel model) {
  static const Specification spec = make_medical_system();
  static const AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = model;
  return refine(d.partition, graph, cfg).refined;
}

struct TracedRun {
  BusTracer tracer;
  SimResult result;

  explicit TracedRun(const Specification& spec) : tracer(spec) {
    Simulator sim(spec, SimConfig{});
    sim.add_slot_observer(&tracer);
    result = sim.run();
  }
};

uint64_t total_contention(const BusTracer& t) {
  uint64_t total = 0;
  for (const BusTracer::Bus& b : t.buses()) total += b.contention_cycles();
  return total;
}

TEST(BusTracer, DiscoversArbitratedSharedBus) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  BusTracer t(m1);
  ASSERT_EQ(t.buses().size(), 1u);
  const BusTracer::Bus& gbus = t.buses()[0];
  EXPECT_EQ(gbus.name, "gbus");
  // Two components contend for the one shared bus.
  ASSERT_EQ(gbus.masters.size(), 2u);
  std::vector<std::string> names{gbus.masters[0].name, gbus.masters[1].name};
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0], "ASIC");
  EXPECT_EQ(names[1], "PROC");
}

TEST(BusTracer, DiscoversDedicatedBusesUnarbitrated) {
  const Specification m3 = refined_medical(ImplModel::Model3);
  BusTracer t(m3);
  EXPECT_GT(t.buses().size(), 1u);
  for (const BusTracer::Bus& b : t.buses()) {
    EXPECT_TRUE(b.masters.empty()) << b.name << " should have no arbiter";
  }
}

TEST(BusTracer, CountsTrafficOnModel1) {
  TracedRun run(refined_medical(ImplModel::Model1));
  ASSERT_EQ(run.result.status, SimResult::Status::Quiescent);
  const BusTracer::Bus& gbus = run.tracer.buses()[0];

  EXPECT_GT(gbus.transfers, 0u);
  EXPECT_EQ(gbus.reads + gbus.writes, gbus.transfers);
  EXPECT_GT(gbus.reads, 0u);
  EXPECT_GT(gbus.writes, 0u);

  EXPECT_GT(gbus.busy_cycles, 0u);
  EXPECT_LT(gbus.busy_cycles, run.tracer.end_time());
  const double util = gbus.utilization_pct(run.tracer.end_time());
  EXPECT_GT(util, 0.0);
  EXPECT_LT(util, 100.0);

  // Every master got the bus at least once; grant counts explain the
  // arbitrated transactions one-to-one.
  uint64_t grants = 0;
  for (const BusTracer::Master& m : gbus.masters) {
    EXPECT_GT(m.grants, 0u) << m.name;
    grants += m.grants;
  }
  EXPECT_EQ(grants, run.tracer.transactions().size());

  // The handshake-latency histogram covers every transfer.
  uint64_t hist = 0;
  for (const uint64_t c : gbus.latency_hist) hist += c;
  EXPECT_EQ(hist, gbus.transfers);
}

TEST(BusTracer, Model1StrictlyMoreContentionThanModel3) {
  TracedRun m1(refined_medical(ImplModel::Model1));
  TracedRun m3(refined_medical(ImplModel::Model3));
  ASSERT_EQ(m1.result.status, SimResult::Status::Quiescent);
  ASSERT_EQ(m3.result.status, SimResult::Status::Quiescent);

  // Dedicated single-master buses never wait; the shared arbitrated bus
  // always does (the arbiter's service latency alone guarantees it).
  EXPECT_EQ(total_contention(m3.tracer), 0u);
  EXPECT_GT(total_contention(m1.tracer), 0u);
  EXPECT_GT(total_contention(m1.tracer), total_contention(m3.tracer));
}

TEST(BusTracer, TransactionsAreWellFormed) {
  TracedRun run(refined_medical(ImplModel::Model1));
  ASSERT_FALSE(run.tracer.transactions().empty());
  for (const BusTransaction& tx : run.tracer.transactions()) {
    EXPECT_TRUE(tx.complete);
    EXPECT_LT(tx.bus, run.tracer.buses().size());
    EXPECT_GE(tx.master, 0);  // arbitrated bus: every tenure has a master
    EXPECT_GE(tx.beats, 1u);
    EXPECT_LE(tx.request_time, tx.grant_time);
    EXPECT_LE(tx.grant_time, tx.end_time);
    // The arbiter takes at least one cycle to answer.
    EXPECT_GT(tx.grant_latency(), 0u);
    EXPECT_GT(tx.transfer_cycles, 0u);
    EXPECT_TRUE(tx.has_addr);
  }
}

TEST(BusTracer, UnarbitratedTransactionsHaveNoMaster) {
  TracedRun run(refined_medical(ImplModel::Model3));
  ASSERT_FALSE(run.tracer.transactions().empty());
  for (const BusTransaction& tx : run.tracer.transactions()) {
    EXPECT_EQ(tx.master, -1);
    EXPECT_EQ(tx.grant_latency(), 0u);  // no arbiter to wait for
    EXPECT_EQ(tx.beats, 1u);            // one handshake per transaction
    EXPECT_TRUE(tx.complete);
  }
}

TEST(BusTracer, RecoversAddressMapFromSlaveGuards) {
  TracedRun run(refined_medical(ImplModel::Model1));
  // Every transaction on the medical models targets a mapped variable.
  size_t mapped = 0;
  for (const BusTransaction& tx : run.tracer.transactions()) {
    if (!run.tracer.var_at(tx.addr).empty()) ++mapped;
  }
  EXPECT_EQ(mapped, run.tracer.transactions().size());
}

TEST(BusTracer, AttributesTransactionsToBehaviors) {
  TracedRun run(refined_medical(ImplModel::Model1));
  size_t attributed = 0;
  for (const BusTransaction& tx : run.tracer.transactions()) {
    if (!run.tracer.behavior_name(tx.master_behavior).empty()) ++attributed;
  }
  EXPECT_GT(attributed, 0u);
}

TEST(BusTracer, DoesNotPerturbSimulation) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  Simulator plain(m1, SimConfig{});
  const SimResult expect = plain.run();
  TracedRun run(m1);
  EXPECT_EQ(run.result.end_time, expect.end_time);
  EXPECT_EQ(run.result.steps, expect.steps);
  EXPECT_EQ(run.result.final_vars, expect.final_vars);
}

TEST(Metrics, ReportMatchesTracer) {
  TracedRun run(refined_medical(ImplModel::Model1));
  const MetricsReport m = MetricsReport::from(run.tracer);
  EXPECT_EQ(m.end_time, run.tracer.end_time());
  EXPECT_EQ(m.transactions, run.tracer.transactions().size());
  EXPECT_EQ(m.incomplete_transactions, 0u);
  const MetricsReport::BusRow* gbus = m.find("gbus");
  ASSERT_NE(gbus, nullptr);
  EXPECT_EQ(gbus->transfers, run.tracer.buses()[0].transfers);
  EXPECT_EQ(gbus->contention_cycles, run.tracer.buses()[0].contention_cycles());
  ASSERT_EQ(gbus->masters.size(), 2u);
  for (const MetricsReport::MasterRow& mr : gbus->masters) {
    EXPECT_GT(mr.grant_latency_avg, 0.0);
    EXPECT_GE(mr.grant_latency_max,
              static_cast<uint64_t>(mr.grant_latency_avg));
  }
}

// The observed paths: a tracer attached under the bytecode or tree tier must
// see the identical commit/schedule stream as the lowered tier (same slots,
// same interned behavior ids), so metrics and exported traces match
// byte-for-byte.
TEST(BusTracer, BytecodeTierMatchesLowered) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  auto run_tier = [&](ExecTier tier) {
    SimConfig cfg;
    cfg.exec_tier = tier;
    BusTracer tracer(m1);
    TraceExporter exporter(100e6);
    Simulator sim(m1, cfg);
    sim.add_slot_observer(&tracer);
    sim.add_slot_observer(&exporter);
    sim.run();
    return std::pair<std::string, std::string>(
        MetricsReport::from(tracer).to_json(),
        exporter.to_chrome_json(&tracer));
  };
  const auto lowered = run_tier(ExecTier::Lowered);
  const auto bytecode = run_tier(ExecTier::Bytecode);
  const auto tree = run_tier(ExecTier::Tree);
  EXPECT_EQ(lowered.first, bytecode.first);
  EXPECT_EQ(lowered.second, bytecode.second);
  EXPECT_EQ(tree.first, bytecode.first);
  EXPECT_EQ(tree.second, bytecode.second);
}

TEST(Metrics, TableAndJsonRender) {
  TracedRun run(refined_medical(ImplModel::Model1));
  const MetricsReport m = MetricsReport::from(run.tracer);
  const std::string table = m.table();
  EXPECT_NE(table.find("gbus"), std::string::npos);
  EXPECT_NE(table.find("contention"), std::string::npos);
  EXPECT_NE(table.find("grants="), std::string::npos);

  const std::string json = m.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"gbus\""), std::string::npos);
  EXPECT_NE(json.find("\"contention_cycles\":"), std::string::npos);
  EXPECT_NE(json.find("\"latency_hist\":["), std::string::npos);
}

size_t count_occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

TEST(TraceExporter, EmitsBalancedChromeEvents) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  BusTracer tracer(m1);
  TraceExporter exporter(100e6);
  Simulator sim(m1, SimConfig{});
  sim.add_slot_observer(&tracer);
  sim.add_slot_observer(&exporter);
  sim.run();

  ASSERT_FALSE(exporter.spans().size() == 0);
  for (const TraceExporter::Span& s : exporter.spans()) {
    EXPECT_LE(s.begin, s.end);
    EXPECT_LE(s.end, exporter.end_time());
  }

  const std::string json = exporter.to_chrome_json(&tracer);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Duration events balance, async begin/end pair up one-to-one.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""),
            tracer.transactions().size());
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"b\""),
            count_occurrences(json, "\"ph\":\"e\""));
  // Track metadata for both pids, counter samples for the bus.
  EXPECT_NE(json.find("\"name\":\"behaviors\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"buses\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"gbus\""), std::string::npos);
  EXPECT_GT(count_occurrences(json, "\"ph\":\"C\""), 0u);
}

TEST(TraceExporter, ScalesTimestampsByClock) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  TraceExporter fast(200e6);
  TraceExporter slow(100e6);
  {
    Simulator sim(m1, SimConfig{});
    sim.add_slot_observer(&fast);
    sim.run();
  }
  {
    Simulator sim(m1, SimConfig{});
    sim.add_slot_observer(&slow);
    sim.run();
  }
  EXPECT_EQ(fast.end_time(), slow.end_time());  // cycles are clock-agnostic
  EXPECT_THROW(TraceExporter(-1.0), SpecError);
}

TEST(TraceExporter, BehaviorTracksOnlyWithoutTracer) {
  const Specification m1 = refined_medical(ImplModel::Model1);
  TraceExporter exporter;
  Simulator sim(m1, SimConfig{});
  sim.add_slot_observer(&exporter);
  sim.run();
  const std::string json = exporter.to_chrome_json(nullptr);
  EXPECT_NE(json.find("\"name\":\"behaviors\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"buses\""), std::string::npos);
}

// A hand-built unarbitrated bus: one master handshaking a write and a read
// against a slave server — exact transaction decoding without the refiner in
// the loop. `master_guard` appends a master-side branch on `b_addr == 9`
// that assigns `x` (never taken: the address lines read 3 by then).
Specification hand_built_bus(bool master_guard) {
  Specification s;
  s.name = "T";
  s.vars = {var("m", Type::u32()), var("x", Type::u32())};
  s.signals = {signal("b_start"), signal("b_done"),  signal("b_rd"),
               signal("b_wr"),    signal("b_addr", Type::u8()),
               signal("b_data", Type::u32())};
  auto master = leaf(
      "Master",
      block(  // write 7 to addr 3
          sassign("b_wr", lit(1)), sassign("b_addr", lit(3)),
          sassign("b_data", lit(7)), sassign("b_start", lit(1)),
          wait_eq("b_done", 1), sassign("b_wr", lit(0)),
          sassign("b_start", lit(0)), wait_eq("b_done", 0),
          // read it back
          sassign("b_rd", lit(1)), sassign("b_addr", lit(3)),
          sassign("b_start", lit(1)), wait_eq("b_done", 1),
          sassign("b_rd", lit(0)), sassign("b_start", lit(0)),
          wait_eq("b_done", 0)));
  if (master_guard) {
    master->body.push_back(
        if_(eq(ref("b_addr"), lit(9)), block(assign("x", lit(1)))));
  }
  auto slave = leaf(
      "Slave",
      block(loop(block(
          wait_eq("b_start", 1),
          if_(eq(ref("b_rd"), lit(1)),
              block(if_(eq(ref("b_addr"), lit(3)),
                        block(sassign("b_data", ref("m")))))),
          if_(eq(ref("b_wr"), lit(1)),
              block(if_(eq(ref("b_addr"), lit(3)),
                        block(assign("m", ref("b_data")))))),
          set("b_done", 1), wait_eq("b_start", 0), set("b_done", 0)))));
  s.top = conc("Top", behaviors(std::move(master), std::move(slave)));
  return s;
}

TEST(BusTracer, DecodesHandBuiltHandshakes) {
  TracedRun run(hand_built_bus(false));
  ASSERT_EQ(run.tracer.buses().size(), 1u);
  EXPECT_EQ(run.tracer.buses()[0].name, "b");
  EXPECT_EQ(run.tracer.var_at(3), "m");

  const BusTracer::Bus& b = run.tracer.buses()[0];
  EXPECT_EQ(b.transfers, 2u);
  EXPECT_EQ(b.writes, 1u);
  EXPECT_EQ(b.reads, 1u);
  ASSERT_EQ(run.tracer.transactions().size(), 2u);
  const BusTransaction& wr = run.tracer.transactions()[0];
  const BusTransaction& rd = run.tracer.transactions()[1];
  EXPECT_FALSE(wr.is_read);
  EXPECT_TRUE(rd.is_read);
  EXPECT_EQ(wr.addr, 3u);
  EXPECT_EQ(rd.addr, 3u);
  EXPECT_LT(wr.end_time, rd.request_time);
  EXPECT_EQ(run.result.final_vars.at("m"), 7u);
}

// The address map is the slaves' serve-loop decode: a master branching on
// its own address lines serves nothing, so address 9 maps to no variable.
TEST(BusTracer, MasterSideAddressGuardMapsNothing) {
  TracedRun run(hand_built_bus(true));
  EXPECT_EQ(run.tracer.var_at(9), "");
  EXPECT_EQ(run.tracer.var_at(3), "m");
  EXPECT_EQ(run.tracer.transactions().size(), 2u);
  EXPECT_EQ(run.result.final_vars.at("x"), 0u);
}

}  // namespace
}  // namespace specsyn
