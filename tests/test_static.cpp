// Tests for the static (simulation-free) profile estimator.
#include <gtest/gtest.h>

#include "estimate/rates.h"
#include "estimate/static_profile.h"
#include "spec/builder.h"
#include "workloads/medical.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(StaticProfile, StraightLineCountsAreExact) {
  Specification s;
  s.name = "S";
  s.vars = {var("x"), var("y")};
  s.top = leaf("T", block(assign("x", lit(1)),
                          assign("y", add(ref("x"), ref("x"))),
                          assign("x", add(ref("x"), ref("y")))));
  ProfileResult p = static_profile(s);
  EXPECT_EQ(p.accesses.at({"T", "x"}).writes, 2u);
  EXPECT_EQ(p.accesses.at({"T", "x"}).reads, 3u);
  EXPECT_EQ(p.accesses.at({"T", "y"}).writes, 1u);
  EXPECT_EQ(p.accesses.at({"T", "y"}).reads, 1u);
}

TEST(StaticProfile, LiteralBoundedLoopRecognized) {
  Specification s;
  s.name = "L";
  s.vars = {var("i"), var("acc")};
  s.top = leaf("T", block(while_(lt(ref("i"), lit(6)),
                                 block(assign("acc", add(ref("acc"),
                                                         ref("i"))),
                                       assign("i", add(ref("i"), lit(2)))))));
  ProfileResult p = static_profile(s);
  // ceil(6/2) = 3 iterations: acc written 3x.
  EXPECT_EQ(p.accesses.at({"T", "acc"}).writes, 3u);
  EXPECT_EQ(p.accesses.at({"T", "i"}).writes, 3u);
  // matches the dynamic count exactly for this recognizable pattern
  ProfileResult d = profile_spec(s);
  EXPECT_EQ(p.accesses.at({"T", "acc"}).writes,
            d.accesses.at({"T", "acc"}).writes);
}

TEST(StaticProfile, UnboundedLoopUsesHeuristic) {
  Specification s;
  s.name = "U";
  s.vars = {var("x"), var("cond")};
  s.top = leaf("T", block(while_(lt(ref("x"), ref("cond")),
                                 block(assign("x", add(ref("x"), lit(1)))))));
  ProfileResult p = static_profile(s);
  EXPECT_EQ(p.accesses.at({"T", "x"}).writes, kStaticLoopIters);
}

TEST(StaticProfile, BranchesWeighted) {
  Specification s;
  s.name = "B";
  s.vars = {var("c"), var("a"), var("b")};
  s.top = leaf("T", block(if_(gt(ref("c"), lit(0)),
                              block(assign("a", lit(1)), assign("a", lit(2))),
                              block(assign("b", lit(1))))));
  ASSERT_EQ(kStaticBranchProbability, 0.5);
  ProfileResult p = static_profile(s);
  // then: 2 writes * 0.5 = 1; else: 1 * 0.5 rounds to >= 1.
  EXPECT_EQ(p.accesses.at({"T", "a"}).writes, 1u);
  EXPECT_EQ(p.accesses.at({"T", "b"}).writes, 1u);
}

TEST(StaticProfile, SeqBackArcsIterate) {
  Specification s;
  s.name = "R";
  s.vars = {var("n")};
  auto inc = leaf("Inc", block(assign("n", add(ref("n"), lit(1)))));
  s.top = seq("Top", behaviors(std::move(inc)),
              arcs(on("Inc", lt(ref("n"), lit(4)), "Inc"), done("Inc")));
  ProfileResult p = static_profile(s);
  EXPECT_EQ(p.accesses.at({"Inc", "n"}).writes, kStaticLoopIters);
  EXPECT_EQ(p.behaviors.at("Inc").activations, kStaticLoopIters);
  // Guard reads attributed to the composite.
  EXPECT_GE(p.accesses.at({"Top", "n"}).reads, kStaticLoopIters);
}

TEST(StaticProfile, ConcurrentDurationIsMax) {
  Specification s;
  s.name = "C";
  s.vars = {var("a"), var("b")};
  auto fast = leaf("Fast", block(assign("a", lit(1))));
  auto slow = leaf("Slow", block(delay(40), assign("b", lit(1))));
  s.top = conc("Top", behaviors(std::move(fast), std::move(slow)));
  ProfileResult p = static_profile(s);
  // Total estimated duration dominated by the slow branch, not the sum.
  EXPECT_GE(p.sim.end_time, 40u);
  EXPECT_LT(p.sim.end_time, 60u);
}

// SignalAssign, Loop, Wait, Call with an out-parameter and Break, against
// counts worked out by hand from the estimator's rules (loops run
// kStaticLoopIters = 4 times, a wait costs kStaticWaitLatency = 2 cycles).
TEST(StaticProfile, EveryStatementKindCountedByHand) {
  Specification s;
  s.name = "K";
  s.vars = {var("x"), var("y"), var("r")};
  s.signals = {signal("go")};
  Procedure inc;
  inc.name = "Inc";
  inc.params = {{"a", Type::u32(), false}, {"d", Type::u32(), true}};
  inc.body = block(assign("d", add(ref("a"), lit(1))));
  s.procedures.push_back(std::move(inc));
  s.top = leaf(
      "T", block(sassign("go", ref("x")),
                 loop(block(assign("y", add(ref("y"), lit(1))), break_())),
                 wait(land(eq(ref("go"), lit(1)), gt(ref("x"), lit(0)))),
                 call("Inc", args(ref("y"), ref("r")))));
  DiagnosticSink diags;
  ASSERT_TRUE(validate(s, diags)) << diags.str();
  ASSERT_EQ(kStaticLoopIters, 4u);
  ASSERT_EQ(kStaticWaitLatency, 2u);
  const ProfileResult p = static_profile(s);
  ASSERT_EQ(p.accesses.size(), 3u);
  // x: read by the signal drive and by the wait condition.
  EXPECT_EQ(p.accesses.at({"T", "x"}).reads, 2u);
  EXPECT_EQ(p.accesses.at({"T", "x"}).writes, 0u);
  // y: read and written once per loop iteration, read once as an in-argument.
  EXPECT_EQ(p.accesses.at({"T", "y"}).reads, 5u);
  EXPECT_EQ(p.accesses.at({"T", "y"}).writes, 4u);
  // r: written once as the out-argument.
  EXPECT_EQ(p.accesses.at({"T", "r"}).reads, 0u);
  EXPECT_EQ(p.accesses.at({"T", "r"}).writes, 1u);
  // 1 (drive) + 4 * (1 + 1) + 4 (loop) + 2 (wait) + 1 + 1 (call and Inc's
  // body) + 2 (enter/complete) = 19 cycles.
  EXPECT_EQ(p.sim.end_time, 19u);
  EXPECT_EQ(p.behaviors.at("T").last_end, 19u);
}

TEST(StaticProfile, MedicalMatchesChannelCountExactly) {
  Specification spec = make_medical_system();
  ProfileResult stat = static_profile(spec);
  ProfileResult dyn = profile_spec(spec);
  EXPECT_EQ(stat.channel_count(), dyn.channel_count());
  // Every dynamically exercised channel is present statically.
  for (const auto& [key, counts] : dyn.accesses) {
    EXPECT_EQ(stat.accesses.count(key), 1u)
        << key.first << " -> " << key.second;
    (void)counts;
  }
}

// The dynamic profile is tier-independent: the tree tier attributes every
// access to the same (behavior, variable) channel as the bytecode tier.
TEST(StaticProfile, DynamicProfileTreeMatchesBytecode) {
  const Specification spec = make_medical_system();
  SimConfig tree_cfg;
  tree_cfg.exec_tier = ExecTier::Tree;
  SimConfig bytecode_cfg;
  bytecode_cfg.exec_tier = ExecTier::Bytecode;
  const ProfileResult tree = profile_spec(spec, tree_cfg);
  const ProfileResult bytecode = profile_spec(spec, bytecode_cfg);
  ASSERT_GT(bytecode.channel_count(), 0u);
  ASSERT_EQ(tree.behaviors.size(), bytecode.behaviors.size());
  for (const auto& [name, prof] : bytecode.behaviors) {
    const auto it = tree.behaviors.find(name);
    ASSERT_NE(it, tree.behaviors.end()) << name;
    EXPECT_EQ(it->second.activations, prof.activations) << name;
    EXPECT_EQ(it->second.first_start, prof.first_start) << name;
    EXPECT_EQ(it->second.last_end, prof.last_end) << name;
  }
  ASSERT_EQ(tree.accesses.size(), bytecode.accesses.size());
  for (const auto& [key, counts] : bytecode.accesses) {
    const auto it = tree.accesses.find(key);
    ASSERT_NE(it, tree.accesses.end()) << key.first << " -> " << key.second;
    EXPECT_EQ(it->second.reads, counts.reads);
    EXPECT_EQ(it->second.writes, counts.writes);
  }
}

TEST(StaticProfile, PlugsIntoBusRates) {
  Specification spec = testing::medical_like_spec();
  AccessGraph g = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.assign_behavior("L2", 1);
  part.assign_behavior("L3", 1);
  part.auto_assign_vars(g);
  ProfileResult stat = static_profile(spec);
  BusPlan plan = BusPlan::build(part, g, ImplModel::Model2);
  BusRateReport r = bus_rates(stat, part, plan, 100e6);
  EXPECT_GT(r.max_rate(), 0.0);
  EXPECT_GT(r.bus_mbps.size(), 1u);
}

}  // namespace
}  // namespace specsyn
