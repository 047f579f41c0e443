// Unit tests for the bytecode execution tier (sim/bytecode.h):
// superinstruction fusion, register allocation for deep expressions, and the
// per-tier entries of the in-memory program cache.
#include <gtest/gtest.h>

#include "sim/bytecode.h"
#include "sim/plan.h"
#include "sim/program_cache.h"
#include "sim/simulator.h"
#include "spec/builder.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

std::shared_ptr<const BytecodeProgram> compile_spec(const Specification& spec) {
  const std::shared_ptr<const SimPlan> plan =
      SimPlan::build(spec, ExecTier::Bytecode);
  return {plan, plan->bytecode()};
}

bool has_op(const BytecodeProgram& p, BOp op) {
  for (const BInstr& i : p.code()) {
    if (i.op == op) return true;
  }
  return false;
}

/// Leaf counts (BInstr::b) of every WaitSigExpr, in code order.
std::vector<uint32_t> wait_expr_leaves(const BytecodeProgram& p) {
  std::vector<uint32_t> out;
  for (const BInstr& i : p.code()) {
    if (i.op == BOp::WaitSigExpr) out.push_back(i.b);
  }
  return out;
}

SimResult run_tier(const Specification& spec, ExecTier tier) {
  SimConfig cfg;
  cfg.exec_tier = tier;
  Simulator sim(spec, cfg);
  return sim.run();
}

void expect_same_result(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.root_completed, b.root_completed);
  EXPECT_EQ(a.final_vars, b.final_vars);
  EXPECT_EQ(a.observable_writes, b.observable_writes);
  EXPECT_EQ(a.behavior_completions, b.behavior_completions);
}

/// A spec whose body hits every fusable statement shape.
Specification fusion_spec() {
  using namespace build;
  Specification s;
  s.name = "fusion";
  s.vars.push_back(var("x", Type::u16()));
  s.vars.push_back(var("y", Type::u16()));
  s.signals.push_back(signal("req"));
  s.top = leaf("main", block(assign("x", lit(5)),       // AssignImmVar
                             assign("y", ref("x")),     // AssignLoad
                             set("req", 1),             // SigImm
                             sassign("req", ref("x")),  // SigLoad
                             wait_eq("req", 1),         // WaitSigExpr
                             wait(ref("req"))));        // WaitSigExpr
  return s;
}

TEST(BytecodeCompile, SuperinstructionFusion) {
  const Specification spec = fusion_spec();
  auto prog = compile_spec(spec);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(has_op(*prog, BOp::AssignImmVar));
  EXPECT_TRUE(has_op(*prog, BOp::AssignLoad));
  EXPECT_TRUE(has_op(*prog, BOp::SigImm));
  EXPECT_TRUE(has_op(*prog, BOp::SigLoad));
  // `wait req == 1` and `wait req` are one-leaf WaitSigExpr programs; the
  // bare signal compiles to the leaf `req != 0`.
  EXPECT_EQ(wait_expr_leaves(*prog), (std::vector<uint32_t>{1, 1}));
  ASSERT_EQ(prog->wait_ops().size(), 2u);
  EXPECT_EQ(prog->wait_ops()[0].op, static_cast<uint8_t>(BinOp::Eq));
  EXPECT_EQ(prog->wait_ops()[0].imm, 1u);
  EXPECT_EQ(prog->wait_ops()[1].op, static_cast<uint8_t>(BinOp::Ne));
  EXPECT_EQ(prog->wait_ops()[1].imm, 0u);
  // Every statement fused: no generic store or wait remains.
  EXPECT_FALSE(has_op(*prog, BOp::StVar));
  EXPECT_FALSE(has_op(*prog, BOp::WaitTrue));
  // Fusion must not change observable behaviour.
  expect_same_result(run_tier(spec, ExecTier::Bytecode),
                     run_tier(spec, ExecTier::Tree));
}

TEST(BytecodeCompile, MicroOpImmediateFusion) {
  using namespace build;
  Specification s;
  s.name = "micro_fuse";
  s.signals.push_back(signal("a"));
  s.signals.push_back(signal("b"));
  s.vars.push_back(var("x", Type::u16()));
  s.vars.push_back(var("y", Type::u16()));
  // Compound compare in an assignment: each `sig == k` collapses to one
  // SigBinImm micro-op; the literal rhs of x + 3 folds into BinApplyImm.
  // (Inside a wait the same shape fuses further, into WaitSigExpr.)
  s.top = leaf("main",
               block(set("a", 1), set("b", 2),
                     assign("y", land(eq(ref("a"), lit(1)),
                                      eq(ref("b"), lit(2)))),
                     assign("x", add(add(ref("x"), ref("x")), lit(3)))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(has_op(*prog, BOp::SigBinImm));
  EXPECT_TRUE(has_op(*prog, BOp::BinApplyImm));
  // Both signal reads fused away; no bare LoadSig/LoadLit feed remains.
  EXPECT_FALSE(has_op(*prog, BOp::LoadSig));
  expect_same_result(run_tier(s, ExecTier::Bytecode),
                     run_tier(s, ExecTier::Tree));
}

TEST(BytecodeCompile, WaitSigExprFusesSignalConditions) {
  using namespace build;
  Specification s;
  s.name = "wait_conj";
  s.signals.push_back(signal("ack"));
  s.signals.push_back(signal("busy"));
  s.signals.push_back(signal("err", Type::u16()));
  // An &&-tree of pure signal-vs-literal compares — including a swapped
  // `lit < sig` leaf — fuses into a single WaitSigExpr dispatch.
  s.top = leaf("main",
               block(set("ack", 1), set("busy", 0), set("err", 3),
                     wait(land(land(eq(ref("ack"), lit(1)),
                                    eq(ref("busy"), lit(0))),
                               lt(lit(2), ref("err"))))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(has_op(*prog, BOp::WaitSigExpr));
  EXPECT_FALSE(has_op(*prog, BOp::WaitTrue));
  EXPECT_EQ(prog->wait_ops().size(), 5u);  // 3 compare leaves + 2 combiners
  expect_same_result(run_tier(s, ExecTier::Bytecode),
                     run_tier(s, ExecTier::Tree));
}

TEST(BytecodeCompile, WaitSigExprFusesAddressDecodeOrFan) {
  using namespace build;
  Specification s;
  s.name = "wait_decode";
  s.signals.push_back(signal("start"));
  s.signals.push_back(signal("addr", Type::u16()));
  // The refined-slave decode shape: `start == 1 && (addr == a || ... )`.
  s.top = leaf("main",
               block(set("start", 1), set("addr", 2),
                     wait(land(eq(ref("start"), lit(1)),
                               lor(lor(eq(ref("addr"), lit(0)),
                                       eq(ref("addr"), lit(1))),
                                   eq(ref("addr"), lit(2)))))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  EXPECT_TRUE(has_op(*prog, BOp::WaitSigExpr));
  EXPECT_FALSE(has_op(*prog, BOp::WaitTrue));
  expect_same_result(run_tier(s, ExecTier::Bytecode),
                     run_tier(s, ExecTier::Tree));
}

TEST(BytecodeCompile, WaitVarCompareStaysGeneric) {
  using namespace build;
  Specification s;
  s.name = "wait_var";
  s.signals.push_back(signal("go"));
  s.vars.push_back(var("x", Type::u16()));
  // A variable leaf poisons the condition: no WaitSigExpr, generic path.
  s.top = leaf("main", block(set("go", 1), assign("x", lit(1)),
                             wait(land(eq(ref("go"), lit(1)),
                                       eq(ref("x"), lit(1))))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  EXPECT_FALSE(has_op(*prog, BOp::WaitSigExpr));
  EXPECT_TRUE(has_op(*prog, BOp::WaitTrue));
  expect_same_result(run_tier(s, ExecTier::Bytecode),
                     run_tier(s, ExecTier::Tree));
}

TEST(BytecodeCompile, WaitSigEqFusesBothOperandOrders) {
  using namespace build;
  Specification s;
  s.name = "wait_rev";
  s.signals.push_back(signal("go", Type::u16()));
  // `go == 3` and the mirrored `3 == go` compile to the same one leaf.
  s.top = leaf("main",
               block(set("go", 3), wait(eq(ref("go"), lit(3, Type::u16()))),
                     wait(eq(lit(3, Type::u16()), ref("go")))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  EXPECT_EQ(wait_expr_leaves(*prog), (std::vector<uint32_t>{1, 1}));
  EXPECT_FALSE(has_op(*prog, BOp::WaitTrue));
  ASSERT_EQ(prog->wait_ops().size(), 2u);
  for (const BWaitOp& w : prog->wait_ops()) {
    EXPECT_EQ(w.kind, BWaitOp::Kind::Cmp);
    EXPECT_EQ(w.op, static_cast<uint8_t>(BinOp::Eq));
    EXPECT_EQ(w.slot, prog->wait_ops()[0].slot);
    EXPECT_EQ(w.imm, 3u);
  }
  expect_same_result(run_tier(s, ExecTier::Bytecode),
                     run_tier(s, ExecTier::Tree));
}

TEST(BytecodeCompile, DeepExpressionUsesWideRegisterFile) {
  using namespace build;
  // Right-nested adds: postfix evaluation depth is the nesting count + 1,
  // and every level stays a register micro-op. 1000 levels is the deepest
  // nesting the parser admits.
  for (const int levels : {70, 1000}) {
    ExprPtr e = lit(1);
    for (int i = 0; i < levels; ++i) e = add(lit(1), std::move(e));
    Specification s;
    s.name = "deep";
    s.vars.push_back(var("x", Type::u32(), 0, /*observable=*/true));
    s.top = leaf("main", block(assign("x", std::move(e))));

    auto prog = compile_spec(s);
    ASSERT_NE(prog, nullptr);
    EXPECT_GE(prog->reg_count(), static_cast<uint32_t>(levels));
    EXPECT_TRUE(has_op(*prog, BOp::BinApply));

    const SimResult bc = run_tier(s, ExecTier::Bytecode);
    expect_same_result(bc, run_tier(s, ExecTier::Tree));
    ASSERT_EQ(bc.final_vars.count("x"), 1u);
    EXPECT_EQ(bc.final_vars.at("x"), static_cast<uint64_t>(levels) + 1);
  }
}

TEST(BytecodeCompile, ShallowExpressionsStayInRegisters) {
  using namespace build;
  Specification s;
  s.name = "shallow";
  s.vars.push_back(var("x", Type::u32()));
  s.vars.push_back(var("y", Type::u32()));
  s.top = leaf("main",
               block(assign("x", add(mul(ref("x"), ref("y")), lit(7)))));
  auto prog = compile_spec(s);
  ASSERT_NE(prog, nullptr);
  // x*y keeps the reg-reg form; the literal +7 folds into its consumer.
  EXPECT_TRUE(has_op(*prog, BOp::BinApply));
  EXPECT_TRUE(has_op(*prog, BOp::BinApplyImm));
  EXPECT_EQ(prog->reg_count(), 2u);
}

TEST(ProgramCacheTiers, TiersGetSeparateEntries) {
  const Specification spec = testing::abc_spec(2);
  ProgramCache cache;
  SimConfig lowered;
  lowered.exec_tier = ExecTier::Lowered;
  SimConfig bytecode;
  bytecode.exec_tier = ExecTier::Bytecode;

  auto a = cache.get(spec, lowered);
  auto b = cache.get(spec, bytecode);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_NE(a->program(), nullptr);
  EXPECT_EQ(a->bytecode(), nullptr);
  EXPECT_EQ(b->program(), nullptr);
  EXPECT_NE(b->bytecode(), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);

  auto a2 = cache.get(spec, lowered);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ProgramCacheTiers, CachedBytecodeRunsIdenticalToFresh) {
  const Specification spec = make_medical_system();
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  ProgramCache cache;
  const SimResult cached1 = Simulator(spec, cfg, &cache).run();
  const SimResult cached2 = Simulator(spec, cfg, &cache).run();  // L1 hit
  const SimResult fresh = Simulator(spec, cfg).run();
  EXPECT_EQ(cache.stats().hits, 1u);
  expect_same_result(cached1, fresh);
  expect_same_result(cached2, fresh);
}

}  // namespace
}  // namespace specsyn
