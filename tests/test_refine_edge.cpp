// Refinement edge cases: degenerate partitions, extreme variable
// classifications, wide variables under byte-serial, determinism, and the
// master-granularity guard rails.
#include <gtest/gtest.h>

#include "parser/parser.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

RefineConfig model(ImplModel m) {
  RefineConfig cfg;
  cfg.model = m;
  return cfg;
}

TEST(RefineEdge, NothingCutStillRefinesDataAccesses) {
  // All behaviors stay on component 0: no control refinement, but every
  // variable still moves into a memory and accesses become protocol
  // transfers (the paper's Model1 maps *all* variables to global memory).
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.auto_assign_vars(g);
  RefineResult r = refine(part, g, model(ImplModel::Model1));
  EXPECT_EQ(r.stats.moved_behaviors, 0u);
  EXPECT_EQ(r.stats.control_signals, 0u);
  EXPECT_GT(r.stats.inlined_sites, 0u);
  EquivalenceReport rep = check_equivalence(s, r.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, EverythingMovedToAsic) {
  // The whole top behavior pinned to component 1: the main flow lives on
  // the ASIC, the PROC hosts nothing.
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("Main", 1);
  part.auto_assign_vars(g);
  RefineResult r = refine(part, g, model(ImplModel::Model2));
  const Behavior* asic_top = r.refined.find_behavior("ASIC_top");
  ASSERT_NE(asic_top, nullptr);
  EXPECT_EQ(r.refined.find_behavior("PROC_top"), nullptr);
  EquivalenceReport rep = check_equivalence(s, r.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, UnaccessedVariableStillGetsAMemoryHome) {
  Specification s;
  s.name = "U";
  s.vars = {var("used", Type::u8(), 0, true), var("dead", Type::u8(), 42)};
  s.top = seq("Top", behaviors(leaf("A", block(assign("used", lit(1)))),
                               leaf("B", block(nop()))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2,
                      ImplModel::Model4}) {
    RefineResult r = refine(part, g, model(m));
    ASSERT_NE(r.plan.module_of("dead"), nullptr) << to_string(m);
    EquivalenceReport rep = check_equivalence(s, r.refined);
    EXPECT_TRUE(rep.equivalent) << to_string(m) << ": " << rep.summary();
    // The unaccessed variable keeps its initial value in the memory.
    EXPECT_EQ(rep.refined_result.final_vars.at("dead"), 42u);
  }
}

TEST(RefineEdge, AllVariablesGlobal) {
  // Every variable accessed from both sides: Models 2/3 generate no local
  // memories at all.
  Specification s;
  s.name = "AG";
  s.vars = {var("p", Type::u16(), 0, true), var("q", Type::u16(), 0, true)};
  s.top = seq("Top",
              behaviors(leaf("A", block(assign("p", lit(1)),
                                        assign("q", lit(2)))),
                        leaf("B", block(assign("p", add(ref("p"), ref("q"))),
                                        assign("q", add(ref("q"), lit(1)))))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  RefineResult r2 = refine(part, g, model(ImplModel::Model2));
  for (const MemoryModule& m : r2.plan.memories()) EXPECT_TRUE(m.global);
  for (const BusDecl& b : r2.plan.buses()) {
    EXPECT_NE(b.role, BusRole::Local);
  }
  EquivalenceReport rep = check_equivalence(s, r2.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, SixtyFourBitByteSerial) {
  // 64-bit variable: 8 beats per access, address space strides by 8.
  Specification s;
  s.name = "Wide";
  s.vars = {var("w", Type::u64(), 0, true), var("n", Type::u8(), 0, true)};
  s.top = seq(
      "Top",
      behaviors(leaf("A", block(assign("w", lit(0x1122334455667788ULL,
                                                Type::u64())))),
                leaf("B", block(assign("w", add(ref("w"), lit(1))),
                                assign("n", band(ref("w"), lit(0xFF)))))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  RefineConfig cfg = model(ImplModel::Model1);
  cfg.protocol = ProtocolStyle::ByteSerial;
  RefineResult r = refine(part, g, cfg);
  EXPECT_EQ(r.addresses.beats_of("w"), 8u);
  EquivalenceOptions eo;
  eo.compare_write_traces = false;
  EquivalenceReport rep = check_equivalence(s, r.refined, eo);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
  EXPECT_EQ(rep.refined_result.final_vars.at("w"), 0x1122334455667789ULL);
  EXPECT_EQ(rep.refined_result.final_vars.at("n"), 0x89u);
}

TEST(RefineEdge, DeterministicOutput) {
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("L3", 1);
  part.assign_behavior("L4", 1);
  part.auto_assign_vars(g);
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    RefineResult a = refine(part, g, model(m));
    RefineResult b = refine(part, g, model(m));
    EXPECT_EQ(print(a.refined), print(b.refined)) << to_string(m);
  }
}

TEST(RefineEdge, ComponentGranularityRejectedUnderConcurrency) {
  Specification s;
  s.name = "C";
  s.vars = {var("a"), var("b")};
  s.top = conc("Top", behaviors(leaf("A", block(assign("a", lit(1)))),
                                leaf("B", block(assign("b", lit(2))))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  RefineConfig cfg = model(ImplModel::Model1);
  cfg.master_granularity = MasterGranularity::Component;
  EXPECT_THROW(refine(part, g, cfg), SpecError);
  cfg.master_granularity = MasterGranularity::Auto;  // resolves to Thread
  RefineResult r = refine(part, g, cfg);
  EquivalenceReport rep = check_equivalence(s, r.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, ConcurrentBranchesContendOnSharedBus) {
  // Two truly concurrent branches on the same component, both hammering
  // variables mapped to the single Model1 bus: thread-granular arbitration
  // must serialize them without losing updates (disjoint variables, so the
  // final state is schedule-independent).
  Specification s;
  s.name = "Contend";
  s.vars = {var("x", Type::u16(), 0, true), var("y", Type::u16(), 0, true)};
  auto w1 = leaf("W1", block(while_(lt(ref("x"), lit(5)),
                                    block(assign("x", add(ref("x"),
                                                          lit(1)))))));
  auto w2 = leaf("W2", block(while_(lt(ref("y"), lit(7)),
                                    block(assign("y", add(ref("y"),
                                                          lit(1)))))));
  s.top = conc("Top", behaviors(std::move(w1), std::move(w2)));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("W2", 1);
  part.assign_var("x", 0);
  part.assign_var("y", 0);
  RefineResult r = refine(part, g, model(ImplModel::Model1));
  EXPECT_GE(r.bus_masters.at("gbus").size(), 2u);
  EXPECT_EQ(r.stats.arbiters, 1u);
  EquivalenceReport rep = check_equivalence(s, r.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, DelayAndSignalsInsideMovedBehavior) {
  // A cut behavior containing delays and signal handshakes of its own.
  Specification s;
  s.name = "DS";
  s.vars = {var("x", Type::u16(), 0, true)};
  auto worker = leaf("Worker", block(delay(5), assign("x", add(ref("x"),
                                                               lit(3))),
                                     delay(2)));
  s.top = seq("Top", behaviors(leaf("Pre", block(assign("x", lit(1)))),
                               std::move(worker),
                               leaf("Post", block(assign("x",
                                                         mul(ref("x"),
                                                             lit(2)))))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("Worker", 1);
  part.auto_assign_vars(g);
  for (ImplModel m : {ImplModel::Model2, ImplModel::Model4}) {
    RefineResult r = refine(part, g, model(m));
    EquivalenceReport rep = check_equivalence(s, r.refined);
    EXPECT_TRUE(rep.equivalent) << to_string(m) << ": " << rep.summary();
    EXPECT_EQ(rep.refined_result.final_vars.at("x"), 8u);
  }
}

TEST(RefineEdge, SingleComponentAllocationModel1) {
  // Degenerate single-chip allocation: still legal — all variables to one
  // global memory behind one bus, no control refinement possible.
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::asics(1));
  part.auto_assign_vars(g);
  RefineResult r = refine(part, g, model(ImplModel::Model1));
  EXPECT_EQ(r.stats.buses, 1u);
  EXPECT_EQ(r.stats.memories, 1u);
  EquivalenceReport rep = check_equivalence(s, r.refined);
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(RefineEdge, ModelDeeperThanTheParserAcceptsIsRejected) {
  // `gen_deep_spec.py seq N`: Model1 adds SYS and PROC_top above the chain,
  // so N = 996 refines to exactly kMaxNestingDepth and N = 997 to one more.
  for (const size_t depth : {996, 997}) {
    Specification s;
    s.name = "Deep";
    s.vars.push_back(var("x", Type::u32(), 0, /*observable=*/true));
    BehaviorPtr b = leaf("Leaf", block(assign("x", lit(1))));
    for (size_t i = depth; i-- > 0;) {
      b = seq("S" + std::to_string(i), behaviors(std::move(b)));
    }
    s.top = std::move(b);
    AccessGraph g = build_access_graph(s);
    Partition part(s, Allocation::proc_plus_asic());
    part.auto_assign_vars(g);
    if (depth == 996) {
      const RefineResult r = refine(part, g, model(ImplModel::Model1));
      EXPECT_EQ(nesting_depth(r.refined), kMaxNestingDepth);
      DiagnosticSink diags;
      EXPECT_TRUE(parse_spec(print(r.refined), diags).has_value())
          << diags.str();
      continue;
    }
    try {
      (void)refine(part, g, model(ImplModel::Model1));
      ADD_FAILURE() << "a model the parser rejects was refined";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("[SP002]"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace specsyn
