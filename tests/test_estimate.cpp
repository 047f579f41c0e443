// Tests for profiling, transfer-rate estimation and the cost model.
#include <gtest/gtest.h>

#include "estimate/cost.h"
#include "estimate/profile.h"
#include "estimate/rates.h"
#include "refine/refiner.h"
#include "spec/builder.h"
#include "workloads/medical.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Profile, AccessCountsAndLifetimes) {
  Specification s;
  s.name = "P";
  s.vars = {var("x"), var("y")};
  s.top = seq("Top", behaviors(
      leaf("A", block(assign("x", lit(1)), assign("x", add(ref("x"), lit(1))))),
      leaf("B", block(assign("y", ref("x"))))));
  ProfileResult p = profile_spec(s);
  const AccessCounts& ax = p.accesses.at({"A", "x"});
  EXPECT_EQ(ax.writes, 2u);
  EXPECT_EQ(ax.reads, 1u);
  const AccessCounts& bx = p.accesses.at({"B", "x"});
  EXPECT_EQ(bx.reads, 1u);
  EXPECT_EQ(p.accesses.at({"B", "y"}).writes, 1u);
  // Lifetimes: B starts after A.
  EXPECT_GE(p.behaviors.at("B").first_start, p.behaviors.at("A").last_end);
  EXPECT_EQ(p.behaviors.at("A").activations, 1u);
  EXPECT_GT(p.behaviors.at("Top").lifetime(),
            p.behaviors.at("A").lifetime());
}

TEST(Profile, RepeatedActivationAccumulates) {
  Specification s;
  s.name = "R";
  s.vars = {var("n", Type::u8())};
  auto inc = leaf("Inc", block(assign("n", add(ref("n"), lit(1)))));
  s.top = seq("Top", behaviors(std::move(inc)),
              arcs(on("Inc", lt(ref("n"), lit(5)), "Inc"), done("Inc")));
  ProfileResult p = profile_spec(s);
  EXPECT_EQ(p.behaviors.at("Inc").activations, 5u);
  EXPECT_EQ(p.accesses.at({"Inc", "n"}).writes, 5u);
  // Guard reads attribute to the composite.
  EXPECT_EQ(p.accesses.at({"Top", "n"}).reads, 5u);
}

TEST(Rates, ChannelAndBusAggregation) {
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("L2", 1);
  part.assign_behavior("L3", 1);
  part.assign_behavior("L4", 1);
  part.assign_behavior("L5", 1);
  part.auto_assign_vars(g);
  ProfileResult prof = profile_spec(s);

  BusPlan plan1 = BusPlan::build(part, g, ImplModel::Model1);
  BusRateReport r1 = bus_rates(prof, part, plan1, 100e6);
  // Everything on one bus: its rate equals the sum of all channel rates.
  double sum = 0;
  for (const ChannelRate& c : r1.channels) sum += c.mbits_per_s;
  EXPECT_GT(sum, 0.0);
  EXPECT_NEAR(r1.rate_of("gbus"), sum, 1e-9);
  EXPECT_NEAR(r1.max_rate(), sum, 1e-9);

  BusPlan plan2 = BusPlan::build(part, g, ImplModel::Model2);
  BusRateReport r2 = bus_rates(prof, part, plan2, 100e6);
  // Model2 splits local traffic off the shared bus: the global bus carries
  // strictly less than Model1's single bus.
  EXPECT_LT(r2.rate_of("gbus"), r1.rate_of("gbus"));
  EXPECT_GT(r2.rate_of("lbus_PROC"), 0.0);
  // No traffic lost: totals match (every channel mapped to exactly one bus
  // in Models 1-3).
  EXPECT_NEAR(r2.total_rate(), r1.total_rate(), 1e-9);

  BusPlan plan3 = BusPlan::build(part, g, ImplModel::Model3);
  BusRateReport r3 = bus_rates(prof, part, plan3, 100e6);
  // Distributing global traffic can only lower the peak.
  EXPECT_LE(r3.max_rate(), r2.max_rate() + 1e-9);

  BusPlan plan4 = BusPlan::build(part, g, ImplModel::Model4);
  BusRateReport r4 = bus_rates(prof, part, plan4, 100e6);
  // Remote channels traverse three buses -> total exceeds Model1's.
  EXPECT_GT(r4.total_rate(), r1.total_rate() - 1e-9);
  // Request/inter legs carry exactly the cross traffic, hence equal rates
  // (the paper's b2=b3=b4 column).
  double inter = r4.rate_of("interbus");
  double req_total = 0;
  for (const auto& [bus, rate] : r4.bus_mbps) {
    if (bus.rfind("reqbus_", 0) == 0) req_total += rate;
  }
  EXPECT_NEAR(inter, req_total, 1e-9);
}

TEST(Rates, ScaleWithClock) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  ProfileResult prof = profile_spec(s);
  BusPlan plan = BusPlan::build(part, g, ImplModel::Model1);
  BusRateReport slow = bus_rates(prof, part, plan, 50e6);
  BusRateReport fast = bus_rates(prof, part, plan, 100e6);
  EXPECT_NEAR(fast.max_rate(), 2 * slow.max_rate(), 1e-9);
}

TEST(Cost, ModelOrderingOnMedical) {
  Specification s = make_medical_system();
  AccessGraph g = build_access_graph(s);
  auto d = make_medical_design(s, g, 1);
  ProfileResult prof = profile_spec(s);

  std::map<ImplModel, CostReport> costs;
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    RefineConfig cfg;
    cfg.model = m;
    RefineResult r = refine(d.partition, g, cfg);
    BusRateReport rates = bus_rates(prof, d.partition, r.plan, 100e6);
    costs[m] = estimate_cost(r, rates);
  }
  // Structural expectations from the paper's discussion.
  EXPECT_EQ(costs[ImplModel::Model1].buses, 1u);
  EXPECT_GT(costs[ImplModel::Model3].buses, costs[ImplModel::Model2].buses);
  EXPECT_EQ(costs[ImplModel::Model1].memories, 2u);
  EXPECT_EQ(costs[ImplModel::Model4].memories, 2u);
  EXPECT_GE(costs[ImplModel::Model2].memories, 3u);
  EXPECT_GT(costs[ImplModel::Model4].interfaces, 0u);
  EXPECT_EQ(costs[ImplModel::Model1].interfaces, 0u);
  // Model1 concentrates all traffic on one bus: highest peak pressure.
  EXPECT_GE(costs[ImplModel::Model1].peak_bus_mbps,
            costs[ImplModel::Model3].peak_bus_mbps);
  for (const auto& [m, c] : costs) EXPECT_GT(c.total, 0.0);
}

TEST(Cost, WeightsAreRespected) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  RefineConfig cfg;
  cfg.model = ImplModel::Model1;
  RefineResult r = refine(part, g, cfg);
  ProfileResult prof = profile_spec(s);
  BusRateReport rates = bus_rates(prof, part, r.plan, 100e6);
  const CostReport c = estimate_cost(r, rates);
  // Model1 on two components: one shared bus and no bus interface.
  EXPECT_EQ(c.buses, 1u);
  EXPECT_EQ(c.interfaces, 0u);
  EXPECT_GT(c.bus_wires, 0u);
  EXPECT_GT(c.memory_bits, 0u);
  using namespace cost_weights;
  const double want =
      kPerBus * static_cast<double>(c.buses) +
      kPerBusWire * static_cast<double>(c.bus_wires) +
      kPerMemory * static_cast<double>(c.memories) +
      kPerMemoryPort * static_cast<double>(c.memory_ports) +
      kPerMemoryBit * static_cast<double>(c.memory_bits) +
      kPerArbiter * static_cast<double>(c.arbiters) +
      kPerInterface * static_cast<double>(c.interfaces) +
      kPerMbpsPeak * c.peak_bus_mbps;
  EXPECT_NEAR(c.total, want, 1e-9);
}

}  // namespace
}  // namespace specsyn
