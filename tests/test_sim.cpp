// Simulator semantics tests: statement execution, signal scheduling, waits,
// concurrency/join, sequential transitions, procedures, determinism.
#include <gtest/gtest.h>

#include "sim/equivalence.h"
#include "sim/simulator.h"
#include "sim/value.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;
using testing::run;

Specification single_leaf(StmtList body, std::vector<VarDecl> vars,
                          std::vector<SignalDecl> sigs = {}) {
  Specification s;
  s.name = "T";
  s.vars = std::move(vars);
  s.signals = std::move(sigs);
  s.top = leaf("Main", std::move(body));
  return s;
}

TEST(Value, BinopSemantics) {
  EXPECT_EQ(apply_binop(BinOp::Add, UINT64_MAX, 1), 0u);
  EXPECT_EQ(apply_binop(BinOp::Div, 7, 0), 0u);
  EXPECT_EQ(apply_binop(BinOp::Mod, 7, 0), 0u);
  EXPECT_EQ(apply_binop(BinOp::Shl, 1, 64), 1u);  // shift mod 64
  EXPECT_EQ(apply_binop(BinOp::Lt, 2, 3), 1u);
  EXPECT_EQ(apply_binop(BinOp::LogicalAnd, 5, 0), 0u);
  EXPECT_EQ(apply_binop(BinOp::LogicalOr, 0, 9), 1u);
  EXPECT_EQ(apply_unop(UnOp::Neg, 1), UINT64_MAX);
  EXPECT_EQ(apply_unop(UnOp::LogicalNot, 0), 1u);
}

TEST(Sim, StraightLineAssignments) {
  auto s = single_leaf(block(assign("x", lit(5)),
                             assign("y", add(ref("x"), lit(2)))),
                       {var("x"), var("y")});
  SimResult r = run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 5u);
  EXPECT_EQ(r.final_vars.at("y"), 7u);
}

TEST(Sim, WritesWrapToDeclaredWidth) {
  auto s = single_leaf(block(assign("x", lit(300))), {var("x", Type::u8())});
  EXPECT_EQ(run(s).final_vars.at("x"), 300u & 0xFF);
}

TEST(Sim, IfElse) {
  auto s = single_leaf(block(assign("x", lit(1)),
                             if_(gt(ref("x"), lit(0)), block(assign("y", lit(10))),
                                 block(assign("y", lit(20)))),
                             if_(gt(ref("x"), lit(5)), block(assign("z", lit(1))),
                                 block(assign("z", lit(2))))),
                       {var("x"), var("y"), var("z")});
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("y"), 10u);
  EXPECT_EQ(r.final_vars.at("z"), 2u);
}

TEST(Sim, WhileLoop) {
  auto s = single_leaf(
      block(while_(lt(ref("i"), lit(5)),
                   block(assign("acc", add(ref("acc"), ref("i"))),
                         assign("i", add(ref("i"), lit(1)))))),
      {var("i"), var("acc")});
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("i"), 5u);
  EXPECT_EQ(r.final_vars.at("acc"), 0u + 1 + 2 + 3 + 4);
}

TEST(Sim, LoopWithBreak) {
  auto s = single_leaf(
      block(loop(block(assign("i", add(ref("i"), lit(1))),
                       if_(ge(ref("i"), lit(3)), block(break_())))),
            assign("after", lit(1))),
      {var("i"), var("after")});
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("i"), 3u);
  EXPECT_EQ(r.final_vars.at("after"), 1u);
}

TEST(Sim, NestedLoopBreakOnlyExitsInnermost) {
  auto s = single_leaf(
      block(while_(lt(ref("o"), lit(3)),
                   block(loop(block(assign("i", add(ref("i"), lit(1))),
                                    break_())),
                         assign("o", add(ref("o"), lit(1)))))),
      {var("o"), var("i")});
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("o"), 3u);
  EXPECT_EQ(r.final_vars.at("i"), 3u);
}

TEST(Sim, SignalAssignNotVisibleWithinIssuingStatement) {
  // `sg <= sg + 1; sg <= sg + 1` — the second schedule still reads the value
  // committed before its own statement ran; updates are never visible to the
  // statement that issues them, but commits at time T precede process steps
  // at T, so the *next* statement (one cycle later) sees the new value.
  auto s = single_leaf(
      block(sassign("sg", add(ref("sg"), lit(1))),  // schedules 1
            assign("x", ref("sg")),                 // commits happened: 1
            assign("y", add(ref("sg"), lit(41)))),  // 42
      {var("x"), var("y")}, {signal("sg", Type::u8())});
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("x"), 1u);
  EXPECT_EQ(r.final_vars.at("y"), 42u);
}

TEST(Sim, WaitBlocksUntilSignal) {
  // Producer delays, then raises go; consumer waits on it.
  Specification s;
  s.name = "PC";
  s.vars = {var("t_consumer"), var("order")};
  s.signals = {signal("go")};
  auto producer = leaf("Producer", block(delay(10), set("go", 1)));
  auto consumer = leaf("Consumer", block(wait_eq("go", 1),
                                         assign("t_consumer", lit(1)),
                                         assign("order", lit(2))));
  s.top = conc("Top", behaviors(std::move(producer), std::move(consumer)));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("t_consumer"), 1u);
  // The consumer must have resumed after t=10.
  EXPECT_GT(r.end_time, 10u);
}

TEST(Sim, WaitAlreadyTruePassesImmediately) {
  auto s = single_leaf(block(wait_eq("go", 1), assign("x", lit(1))),
                       {var("x")}, {signal("go", Type::bit(), 1)});
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 1u);
}

TEST(Sim, WaitOnNeverRaisedSignalQuiesces) {
  auto s = single_leaf(block(wait_eq("go", 1), assign("x", lit(1))),
                       {var("x")}, {signal("go")});
  SimResult r = run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_FALSE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 0u);
}

TEST(Sim, FourPhaseHandshake) {
  // The control-refinement pattern of the paper (Fig. 4): a B_CTRL stub and
  // a B_NEW server wrapped in a loop, synchronized by B_start/B_done.
  Specification s;
  s.name = "HS";
  s.vars = {var("count"), var("done_flag")};
  s.signals = {signal("b_start"), signal("b_done")};
  auto ctrl = leaf("Ctrl", block(set("b_start", 1), wait_eq("b_done", 1),
                                 set("b_start", 0), wait_eq("b_done", 0),
                                 // second invocation
                                 set("b_start", 1), wait_eq("b_done", 1),
                                 set("b_start", 0), wait_eq("b_done", 0),
                                 assign("done_flag", lit(1))));
  auto server = leaf("Server",
                     block(loop(block(wait_eq("b_start", 1),
                                      assign("count", add(ref("count"), lit(1))),
                                      set("b_done", 1), wait_eq("b_start", 0),
                                      set("b_done", 0)))));
  s.top = conc("Top", behaviors(std::move(ctrl), std::move(server)));
  SimResult r = run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_EQ(r.final_vars.at("count"), 2u);
  EXPECT_EQ(r.final_vars.at("done_flag"), 1u);
}

TEST(Sim, ConcurrentJoinWaitsForAllChildren) {
  Specification s;
  s.name = "J";
  s.vars = {var("a"), var("b"), var("after")};
  auto fast = leaf("Fast", block(assign("a", lit(1))));
  auto slow = leaf("Slow", block(delay(50), assign("b", lit(1))));
  auto post = leaf("Post", block(assign("after", add(ref("a"), ref("b")))));
  std::vector<Transition> ts;
  ts.push_back(on("Par", "Post"));
  ts.push_back(done("Post"));
  s.top = seq("Top",
              behaviors(conc("Par", behaviors(std::move(fast), std::move(slow))),
                        std::move(post)),
              std::move(ts));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("after"), 2u);  // both children finished first
  EXPECT_GT(r.end_time, 50u);
}

TEST(Sim, SeqTransitionsFollowGuards) {
  SimResult r_b = run(testing::abc_spec(3));  // x=3 > 1 -> B
  EXPECT_EQ(r_b.final_vars.at("r"), 13u);
  SimResult r_c = run(testing::abc_spec(0));  // x=0 < 1 -> C
  EXPECT_EQ(r_c.final_vars.at("r"), 100u);
}

TEST(Sim, SeqFallsThroughWhenNoArcMatches) {
  // x == 1 matches neither guard; control falls through to next child (B).
  SimResult r = run(testing::abc_spec(1));
  EXPECT_EQ(r.final_vars.at("r"), 11u);
}

TEST(Sim, SeqLoopingTransitions) {
  // A sequential composite that iterates: Inc -> Inc while x < 3.
  Specification s;
  s.name = "L";
  s.vars = {var("x")};
  auto inc = leaf("Inc", block(assign("x", add(ref("x"), lit(1)))));
  std::vector<Transition> ts;
  ts.push_back(on("Inc", lt(ref("x"), lit(3)), "Inc"));
  ts.push_back(done("Inc"));
  s.top = seq("Top", behaviors(std::move(inc)), std::move(ts));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 3u);
  EXPECT_EQ(r.behavior_completions.at("Inc"), 3u);
}

TEST(Sim, ProcedureInOutParams) {
  Specification s;
  s.name = "P";
  s.vars = {var("x", Type::u16(), 7), var("res", Type::u16())};
  Procedure p;
  p.name = "AddFive";
  p.params.push_back(in_param("a", Type::u16()));
  p.params.push_back(out_param("r", Type::u16()));
  p.locals.emplace_back("t", Type::u16());
  p.body = block(assign("t", add(ref("a"), lit(5))), assign("r", ref("t")));
  s.procedures.push_back(std::move(p));
  s.top = leaf("Main", block(call("AddFive", args(ref("x"), ref("res")))));
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("res"), 12u);
  EXPECT_EQ(r.final_vars.at("x"), 7u);  // in-param is by value
}

TEST(Sim, ProcedureLocalsShadowGlobals) {
  Specification s;
  s.name = "Shadow";
  s.vars = {var("g", Type::u16(), 100), var("out_v", Type::u16())};
  Procedure p;
  p.name = "P";
  p.params.push_back(out_param("r", Type::u16()));
  p.locals.emplace_back("g2", Type::u16());
  p.body = block(assign("g2", lit(1)), assign("r", add(ref("g"), ref("g2"))));
  s.procedures.push_back(std::move(p));
  s.top = leaf("Main", block(call("P", args(ref("out_v")))));
  SimResult r = run(s);
  EXPECT_EQ(r.final_vars.at("out_v"), 101u);
  EXPECT_EQ(r.final_vars.at("g"), 100u);
}

TEST(Sim, ObservableWriteTrace) {
  auto s = single_leaf(block(assign("x", lit(1)), assign("x", lit(2)),
                             assign("hidden", lit(9)), assign("x", lit(3))),
                       {var("x", Type::u32(), 0, /*observable=*/true),
                        var("hidden")});
  SimResult r = run(s);
  ASSERT_EQ(r.observable_writes.size(), 3u);
  EXPECT_EQ(r.observable_writes[0].value, 1u);
  EXPECT_EQ(r.observable_writes[1].value, 2u);
  EXPECT_EQ(r.observable_writes[2].value, 3u);
  EXPECT_EQ(r.observable_writes[2].var, "x");
}

TEST(Sim, BehaviorCompletionCounts) {
  SimResult r = run(testing::abc_spec(3));
  EXPECT_EQ(r.behavior_completions.at("A"), 1u);
  EXPECT_EQ(r.behavior_completions.at("B"), 1u);
  EXPECT_EQ(r.behavior_completions.count("C"), 0u);
  EXPECT_EQ(r.behavior_completions.at("Main"), 1u);
}

TEST(Sim, DeterministicAcrossRuns) {
  for (int i = 0; i < 3; ++i) {
    Specification s;
    s.name = "Det";
    s.vars = {var("x", Type::u32(), 0, true)};
    auto w1 = leaf("W1", block(assign("x", add(ref("x"), lit(1))),
                               assign("x", mul(ref("x"), lit(3)))));
    auto w2 = leaf("W2", block(assign("x", add(ref("x"), lit(5)))));
    s.top = conc("Top", behaviors(std::move(w1), std::move(w2)));
    SimResult a = run(s);
    SimResult b = run(s);
    EXPECT_EQ(a.final_vars, b.final_vars);
    EXPECT_EQ(a.observable_writes, b.observable_writes);
    EXPECT_EQ(a.end_time, b.end_time);
  }
}

TEST(Sim, MaxCyclesStopsLivelock) {
  auto s = single_leaf(block(loop(block(assign("x", add(ref("x"), lit(1)))))),
                       {var("x")});
  SimConfig cfg;
  cfg.max_cycles = 1000;
  SimResult r = run(s, cfg);
  EXPECT_EQ(r.status, SimResult::Status::MaxCycles);
  EXPECT_FALSE(r.root_completed);
}

TEST(Sim, DelayZeroStillMakesProgress) {
  auto s = single_leaf(block(delay(0), assign("x", lit(1))), {var("x")});
  SimResult r = run(s);
  EXPECT_TRUE(r.root_completed);
  EXPECT_EQ(r.final_vars.at("x"), 1u);
}

TEST(Sim, RunTwiceThrows) {
  auto s = single_leaf(block(nop()), {});
  Simulator sim(s);
  (void)sim.run();
  EXPECT_THROW(sim.run(), SpecError);
}

TEST(Sim, ObserverSeesEvents) {
  struct Counter : SlotObserver {
    int reads = 0, writes = 0, starts = 0, ends = 0, sig_changes = 0;
    void on_var_read(uint32_t, uint32_t, uint64_t) override { ++reads; }
    void on_var_write(uint32_t, uint32_t, uint64_t, uint64_t) override {
      ++writes;
    }
    void on_behavior_start(uint32_t, uint64_t, uint64_t) override { ++starts; }
    void on_behavior_end(uint32_t, uint64_t, uint64_t) override { ++ends; }
    void on_signal_commit(uint32_t, uint64_t, uint64_t) override {
      ++sig_changes;
    }
  };
  auto s = single_leaf(block(assign("x", lit(1)),
                             assign("y", add(ref("x"), ref("x"))),
                             sassign("sg", lit(1))),
                       {var("x"), var("y")}, {signal("sg")});
  for (ExecTier tier : {ExecTier::Tree, ExecTier::Lowered, ExecTier::Bytecode}) {
    SCOPED_TRACE(exec_tier_name(tier));
    SimConfig cfg;
    cfg.exec_tier = tier;
    Counter c;
    Simulator sim(s, cfg);
    sim.add_slot_observer(&c);
    (void)sim.run();
    EXPECT_EQ(c.reads, 2);
    EXPECT_EQ(c.writes, 2);
    EXPECT_EQ(c.starts, 1);
    EXPECT_EQ(c.ends, 1);
    EXPECT_EQ(c.sig_changes, 1);
  }
}

TEST(Sim, AttributionReportsInnermostBehavior) {
  struct Attr : SlotObserver {
    const std::vector<std::string>* names = nullptr;
    std::vector<std::string> writers;
    void on_bind(const Binding& b) override { names = b.behavior_names; }
    void on_var_write(uint32_t, uint32_t behavior, uint64_t,
                      uint64_t) override {
      writers.push_back(names->at(behavior));
    }
  };
  Specification s = testing::abc_spec(3);
  for (ExecTier tier : {ExecTier::Tree, ExecTier::Lowered, ExecTier::Bytecode}) {
    SCOPED_TRACE(exec_tier_name(tier));
    SimConfig cfg;
    cfg.exec_tier = tier;
    Attr a;
    Simulator sim(s, cfg);
    sim.add_slot_observer(&a);
    (void)sim.run();
    ASSERT_EQ(a.writers.size(), 2u);  // A writes x, B writes r
    EXPECT_EQ(a.writers[0], "A");
    EXPECT_EQ(a.writers[1], "B");
  }
}

TEST(Equivalence, IdenticalSpecsAreEquivalent) {
  Specification s = testing::abc_spec(3);
  EquivalenceReport rep = check_equivalence(s, s.clone());
  EXPECT_TRUE(rep.equivalent) << rep.summary();
}

TEST(Equivalence, DetectsValueMismatch) {
  Specification a = testing::abc_spec(3);
  Specification b = testing::abc_spec(4);
  EquivalenceReport rep = check_equivalence(a, b);
  EXPECT_FALSE(rep.equivalent);
  EXPECT_FALSE(rep.summary().empty());
}

TEST(Equivalence, DetectsMissingVariable) {
  Specification a = testing::abc_spec(3);
  Specification b = a.clone();
  // Rename x in the refined spec: equivalence requires original names.
  b.vars[0].name = "x_renamed";
  b.find_behavior("A")->body[0]->target = "x_renamed";
  b.find_behavior("B")->body[0]->expr->args[0]->name = "x_renamed";
  b.find_behavior("C")->body[0]->expr->args[0]->name = "x_renamed";
  b.top->transitions[0].guard->args[0]->name = "x_renamed";
  b.top->transitions[1].guard->args[0]->name = "x_renamed";
  EquivalenceReport rep = check_equivalence(a, b);
  EXPECT_FALSE(rep.equivalent);
}

// One line per kind of difference, in the equivalence report's wording; the
// explorer relabels the two sides.
TEST(Equivalence, DescribesEachKindOfDifference) {
  const Specification spec = testing::abc_spec(3);
  Outcome base;
  base.root_completed = true;
  base.final_vars = {{"r", 13}, {"x", 3}};
  base.writes = {{"x", {1, 3}}};
  struct Case {
    const char* kind;
    void (*change)(Outcome&);
    const char* line;
  };
  const Case cases[] = {
      {"status", [](Outcome& o) { o.status = SimResult::Status::MaxCycles; },
       "refined simulation did not quiesce"},
      {"liveness", [](Outcome& o) { o.root_completed = false; },
       "refined spec never completed the original top behavior 'Main' "
       "(deadlock or starvation in inserted interfaces)"},
      {"missing variable", [](Outcome& o) { o.final_vars.erase("r"); },
       "variable 'r' missing from refined spec"},
      {"final value", [](Outcome& o) { o.final_vars["x"] = 4; },
       "variable 'x': original final value 3, refined 4"},
      {"write sequence", [](Outcome& o) { o.writes["x"] = {1, 2, 3}; },
       "observable 'x': write sequence differs (2 vs 3 writes; first "
       "divergence at index 1)"},
      {"writes on one side", [](Outcome& o) { o.writes["r"] = {13}; },
       "observable 'r' written only in refined spec"},
  };
  EXPECT_TRUE(describe_differences(spec, base, base).empty());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kind);
    Outcome other = base;
    c.change(other);
    EXPECT_FALSE(other == base);
    EXPECT_EQ(describe_differences(spec, base, other),
              std::vector<std::string>{c.line});
  }

  // The reverse of the one-sided kinds.
  Outcome incomplete = base;
  incomplete.root_completed = false;
  incomplete.final_vars.erase("r");
  EXPECT_EQ(describe_differences(spec, incomplete, base),
            (std::vector<std::string>{
                "original spec never completed the original top behavior "
                "'Main', the refined spec did",
                "variable 'r' missing from original spec"}));
  // Final values follow the spec's declaration order (x before r).
  Outcome both = base;
  both.final_vars = {{"r", 14}, {"x", 4}};
  EXPECT_EQ(describe_differences(spec, base, both),
            (std::vector<std::string>{
                "variable 'x': original final value 3, refined 4",
                "variable 'r': original final value 13, refined 14"}));
  Outcome witness = base;
  witness.status = SimResult::Status::MaxCycles;
  witness.final_vars["x"] = 4;
  EXPECT_EQ(describe_differences(spec, base, witness, "baseline", "witness"),
            (std::vector<std::string>{
                "witness simulation did not quiesce",
                "variable 'x': baseline final value 3, witness 4"}));
}

// Equivalence needs both runs to quiesce, even when their outcomes agree.
TEST(Equivalence, BothRunsMustQuiesce) {
  const Specification spec = testing::abc_spec(3);
  SimResult run = testing::run(spec);
  ASSERT_EQ(run.status, SimResult::Status::Quiescent);
  EXPECT_TRUE(compare_results(spec, outcome_of(run), run, true).equivalent);

  SimResult stuck = run;
  stuck.status = SimResult::Status::MaxCycles;
  EXPECT_EQ(compare_results(spec, outcome_of(run), stuck, true).mismatches,
            std::vector<std::string>{"refined simulation did not quiesce"});
  EXPECT_EQ(compare_results(spec, outcome_of(stuck), run, true).mismatches,
            std::vector<std::string>{"original simulation did not quiesce"});
  EXPECT_EQ(compare_results(spec, outcome_of(stuck), stuck, true).mismatches,
            (std::vector<std::string>{"original simulation did not quiesce",
                                      "refined simulation did not quiesce"}));
}

}  // namespace
}  // namespace specsyn
