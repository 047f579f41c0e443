// Simulator edge cases beyond test_sim.cpp: nested concurrency, signal
// width wrapping, wait semantics under multiple waiters, transition corner
// cases, and scheduling determinism details.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;
using testing::run;

TEST(SimEdge, ConcInsideSeqInsideConc) {
  // Top conc { branch1: seq [A, par{B,C}, D], branch2: E }
  Specification s;
  s.name = "N";
  s.vars = {var("a"), var("b"), var("c"), var("d"), var("e")};
  auto inner_par = conc("Par", behaviors(leaf("B", block(assign("b", lit(1)))),
                                         leaf("C", block(assign("c", lit(1))))));
  auto branch1 = seq("Branch1",
                     behaviors(leaf("A", block(assign("a", lit(1)))),
                               std::move(inner_par),
                               leaf("D", block(assign("d",
                                                      add(ref("b"),
                                                          ref("c")))))));
  auto branch2 = leaf("E", block(delay(30), assign("e", lit(1))));
  s.top = conc("Top", behaviors(std::move(branch1), std::move(branch2)));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("d"), 2u);  // join before D
  EXPECT_EQ(r.final_vars.at("e"), 1u);
}

TEST(SimEdge, ConcJoinReenteredInLoop) {
  // A concurrent composite re-forked on every iteration of its sequential
  // parent: fork/join bookkeeping must reset.
  Specification s;
  s.name = "RJ";
  s.vars = {var("n"), var("hits")};
  auto par = conc("Par",
                  behaviors(leaf("W1", block(assign("hits", add(ref("hits"),
                                                                lit(1))))),
                            leaf("W2", block(delay(3)))));
  auto step = leaf("Step", block(assign("n", add(ref("n"), lit(1)))));
  s.top = seq("Top", behaviors(std::move(par), std::move(step)),
              arcs(on("Step", lt(ref("n"), lit(3)), "Par"), done("Step")));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("n"), 3u);
  EXPECT_EQ(r.final_vars.at("hits"), 3u);
  EXPECT_EQ(r.behavior_completions.at("Par"), 3u);
  EXPECT_EQ(r.behavior_completions.at("W2"), 3u);
}

TEST(SimEdge, SignalCommitWrapsToWidth) {
  auto body = block(sassign("s4", lit(0x1F)), delay(2),
                    assign("seen", ref("s4")));
  Specification s;
  s.name = "W";
  s.vars = {var("seen")};
  s.signals = {signal("s4", Type::of_width(4))};
  s.top = leaf("T", std::move(body));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("seen"), 0xFu);
}

TEST(SimEdge, RedundantSignalCommitDoesNotWake) {
  // Writing the same value is not an event: a waiter on change-to-1 that
  // already missed it stays blocked when 1 is re-committed... but here we
  // verify the subtler contract: committing an unchanged value produces no
  // signal-change notification.
  struct Counter : SlotObserver {
    int changes = 0;
    void on_signal_commit(uint32_t, uint64_t, uint64_t) override { ++changes; }
  };
  Specification s;
  s.name = "R";
  s.signals = {signal("sg")};
  s.top = leaf("T", block(set("sg", 1), delay(2), set("sg", 1), delay(2),
                          set("sg", 0)));
  for (ExecTier tier : {ExecTier::Tree, ExecTier::Lowered, ExecTier::Bytecode}) {
    SCOPED_TRACE(exec_tier_name(tier));
    SimConfig cfg;
    cfg.exec_tier = tier;
    Counter c;
    Simulator sim(s, cfg);
    sim.add_slot_observer(&c);
    (void)sim.run();
    EXPECT_EQ(c.changes, 2);  // 0->1, 1->0; the redundant set is silent
  }
}

TEST(SimEdge, MultipleWaitersAllWake) {
  Specification s;
  s.name = "MW";
  s.vars = {var("sum")};
  s.signals = {signal("go")};
  std::vector<BehaviorPtr> kids;
  for (int i = 0; i < 4; ++i) {
    kids.push_back(leaf("L" + std::to_string(i),
                        block(wait_eq("go", 1),
                              assign("sum", add(ref("sum"), lit(1))))));
  }
  kids.push_back(leaf("Raiser", block(delay(10), set("go", 1))));
  s.top = conc("Top", std::move(kids));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("sum"), 4u);
}

TEST(SimEdge, WaiterOnCompoundConditionWakesOnAnyReferencedSignal) {
  Specification s;
  s.name = "CC";
  s.vars = {var("ok")};
  s.signals = {signal("a"), signal("b")};
  auto waiter = leaf("Waiter", block(wait(lor(eq(ref("a"), lit(1)),
                                              eq(ref("b"), lit(1)))),
                                     assign("ok", lit(1))));
  auto raiser = leaf("Raiser", block(delay(5), set("b", 1)));
  s.top = conc("Top", behaviors(std::move(waiter), std::move(raiser)));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("ok"), 1u);
}

TEST(SimEdge, ReblockingOnPartialCondition) {
  // Waiter needs a AND b; a rises first (spurious wake), then b.
  Specification s;
  s.name = "AB";
  s.vars = {var("ok")};
  s.signals = {signal("a"), signal("b")};
  auto waiter = leaf("Waiter", block(wait(land(eq(ref("a"), lit(1)),
                                               eq(ref("b"), lit(1)))),
                                     assign("ok", lit(1))));
  auto ra = leaf("RA", block(delay(4), set("a", 1)));
  auto rb = leaf("RB", block(delay(9), set("b", 1)));
  s.top = conc("Top", behaviors(std::move(waiter), std::move(ra),
                                std::move(rb)));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("ok"), 1u);
  EXPECT_GE(r.end_time, 9u);
}

TEST(SimEdge, TransitionGuardOnSignal) {
  Specification s;
  s.name = "TG";
  s.vars = {var("r")};
  s.signals = {signal("mode", Type::u8(), 2)};
  auto a = leaf("A", block(nop()));
  auto b = leaf("B", block(assign("r", lit(10))));
  auto c = leaf("C", block(assign("r", lit(20))));
  s.top = seq("Top", behaviors(std::move(a), std::move(b), std::move(c)),
              arcs(on("A", eq(ref("mode"), lit(2)), "C"), done("B"),
                   done("C")));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("r"), 20u);
}

TEST(SimEdge, CompleteArcWithFalseGuardFallsThrough) {
  Specification s;
  s.name = "FA";
  s.vars = {var("r")};
  auto a = leaf("A", block(assign("r", lit(1))));
  auto b = leaf("B", block(assign("r", lit(2))));
  // A -> complete only when r > 5 (false) => falls through to B.
  s.top = seq("Top", behaviors(std::move(a), std::move(b)),
              arcs(done("A", gt(ref("r"), lit(5)))));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("r"), 2u);
}

TEST(SimEdge, ArcOrderDecidesAmongSimultaneouslyTrueGuards) {
  Specification s;
  s.name = "AO";
  s.vars = {var("r", Type::u8(), 7)};
  auto a = leaf("A", block(nop()));
  auto b = leaf("B", block(assign("r", lit(1))));
  auto c = leaf("C", block(assign("r", lit(2))));
  s.top = seq("Top", behaviors(std::move(a), std::move(b), std::move(c)),
              arcs(on("A", gt(ref("r"), lit(0)), "C"),   // first true arc wins
                   on("A", gt(ref("r"), lit(1)), "B"), done("B"), done("C")));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("r"), 2u);
}

TEST(SimEdge, LastWriterWinsOnSameCycleCommit) {
  // Two processes schedule the same signal in the same cycle; commits apply
  // in issue order (process id order), so the later process's value stands.
  Specification s;
  s.name = "LW";
  s.vars = {var("seen")};
  s.signals = {signal("sg", Type::u8())};
  auto w1 = leaf("W1", block(sassign("sg", lit(11))));
  auto w2 = leaf("W2", block(sassign("sg", lit(22))));
  auto rd = leaf("Rd", block(delay(5), assign("seen", ref("sg"))));
  s.top = conc("Top", behaviors(std::move(w1), std::move(w2), std::move(rd)));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("seen"), 22u);
}

TEST(SimEdge, EmptyLeafCompletesImmediately) {
  Specification s;
  s.name = "E";
  s.vars = {var("x")};
  s.top = seq("Top", behaviors(leaf("Empty", {}),
                               leaf("After", block(assign("x", lit(1))))));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 1u);
}

TEST(SimEdge, WhileFalseOnEntrySkipsBody) {
  auto s = [] {
    Specification sp;
    sp.name = "WF";
    sp.vars = {var("x", Type::u8(), 9), var("ran")};
    sp.top = leaf("T", block(while_(lt(ref("x"), lit(5)),
                                    block(assign("ran", lit(1))))));
    return sp;
  }();
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("ran"), 0u);
}

TEST(SimEdge, BreakInsideIfInsideLoop) {
  Specification s;
  s.name = "BI";
  s.vars = {var("i"), var("post")};
  s.top = leaf("T", block(loop(block(assign("i", add(ref("i"), lit(1))),
                                     if_(ge(ref("i"), lit(2)),
                                         block(break_())))),
                          assign("post", lit(7))));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("i"), 2u);
  EXPECT_EQ(r.final_vars.at("post"), 7u);
}

TEST(SimEdge, NestedProcedureCalls) {
  Specification s;
  s.name = "NP";
  s.vars = {var("r", Type::u16(), 0, true)};
  Procedure inner;
  inner.name = "Inner";
  inner.params.push_back(in_param("a", Type::u16()));
  inner.params.push_back(out_param("o", Type::u16()));
  inner.body = block(assign("o", add(ref("a"), lit(1))));
  Procedure outer;
  outer.name = "Outer";
  outer.params.push_back(in_param("a", Type::u16()));
  outer.params.push_back(out_param("o", Type::u16()));
  outer.locals.emplace_back("t", Type::u16());
  outer.body = block(call("Inner", args(ref("a"), ref("t"))),
                     call("Inner", args(ref("t"), ref("o"))));
  s.procedures.push_back(std::move(inner));
  s.procedures.push_back(std::move(outer));
  s.top = leaf("T", block(call("Outer", args(lit(5), ref("r")))));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("r"), 7u);
}

TEST(SimEdge, RecursionDepthViaSeqNesting) {
  // A deep chain of nested sequential composites exercises the frame stack.
  Specification s;
  s.name = "Deep";
  s.vars = {var("x")};
  BehaviorPtr b = leaf("L", block(assign("x", add(ref("x"), lit(1)))));
  for (int i = 0; i < 40; ++i) {
    b = seq("S" + std::to_string(i), behaviors(std::move(b)));
  }
  s.top = std::move(b);
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 1u);
  EXPECT_EQ(r.behavior_completions.size(), 41u);
}

TEST(SimEdge, BehaviorScopedObservableTraced) {
  Specification s;
  s.name = "BO";
  auto t = leaf("T", block(assign("local_obs", lit(5)),
                           assign("local_obs", lit(6))));
  t->vars.push_back(var("local_obs", Type::u8(), 0, /*observable=*/true));
  s.top = std::move(t);
  SimResult r = run(s);
  ASSERT_EQ(r.observable_writes.size(), 2u);
  EXPECT_EQ(r.observable_writes[1].value, 6u);
}

}  // namespace
}  // namespace specsyn
