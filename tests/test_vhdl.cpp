// Tests for the VHDL-93 exporter: structural properties of the emitted text.
#include <gtest/gtest.h>

#include "printer/vhdl.h"
#include "refine/refiner.h"
#include "spec/builder.h"
#include "workloads/medical.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

size_t count_occurrences(const std::string& text, const std::string& needle) {
  size_t n = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

TEST(Vhdl, EntityAndArchitectureShell) {
  Specification s = testing::abc_spec(3);
  const std::string v = to_vhdl(s);
  EXPECT_NE(v.find("library ieee;"), std::string::npos);
  EXPECT_NE(v.find("use ieee.numeric_std.all;"), std::string::npos);
  EXPECT_NE(v.find("entity ABCExample is"), std::string::npos);
  EXPECT_NE(v.find("architecture refined of ABCExample is"),
            std::string::npos);
  EXPECT_NE(v.find("end architecture refined;"), std::string::npos);
  EXPECT_NE(v.find("constant CYCLE : time := 10 ns;"), std::string::npos);
}

TEST(Vhdl, SequentialSpecIsOneProcess) {
  Specification s = testing::abc_spec(3);
  const std::string v = to_vhdl(s);
  EXPECT_EQ(count_occurrences(v, " : process"), 1u);
  // Sequential composite becomes a state-machine loop.
  EXPECT_NE(v.find("Main_state := 0;"), std::string::npos);
  EXPECT_NE(v.find("while Main_state >= 0 loop"), std::string::npos);
  EXPECT_NE(v.find("case Main_state is"), std::string::npos);
  // Guarded transitions become next-state logic.
  EXPECT_NE(v.find("if f_gt(x, unsigned'("), std::string::npos);
  // A completed process waits forever.
  EXPECT_NE(v.find("wait;  -- process complete"), std::string::npos);
}

TEST(Vhdl, VariablesGetWidthMasks) {
  Specification s;
  s.name = "W";
  s.vars = {var("a", Type::u8()), var("b", Type::u64())};
  s.top = leaf("T", block(assign("a", add(ref("a"), lit(1))),
                          assign("b", add(ref("b"), lit(1)))));
  const std::string v = to_vhdl(s);
  EXPECT_NE(v.find("a := f_wrap(f_add(a, unsigned'("), std::string::npos);
  // 64-bit values need no mask.
  EXPECT_NE(v.find("b := f_add(b, unsigned'("), std::string::npos);
}

TEST(Vhdl, TopConcurrencyFlattensToProcesses) {
  Specification s;
  s.name = "C";
  s.vars = {var("x"), var("y")};
  s.top = conc("Top", behaviors(leaf("A", block(assign("x", lit(1)))),
                                leaf("B", block(assign("y", lit(2))))));
  const std::string v = to_vhdl(s);
  EXPECT_EQ(count_occurrences(v, " : process"), 2u);
  EXPECT_NE(v.find("P_A : process"), std::string::npos);
  EXPECT_NE(v.find("P_B : process"), std::string::npos);
  // Spec-level variables shared between processes.
  EXPECT_NE(v.find("shared variable x : u64"), std::string::npos);
}

TEST(Vhdl, NestedConcurrencyGetsForkJoinHandshake) {
  // conc under seq: the parent process forks and joins via go/done signals.
  Specification s;
  s.name = "FJ";
  s.vars = {var("x"), var("y"), var("z")};
  auto par = conc("Par", behaviors(leaf("W1", block(assign("x", lit(1)))),
                                   leaf("W2", block(assign("y", lit(2))))));
  s.top = seq("Top", behaviors(std::move(par),
                               leaf("After", block(assign("z", lit(3))))));
  const std::string v = to_vhdl(s);
  EXPECT_EQ(count_occurrences(v, " : process"), 3u);  // Top + W1 + W2
  EXPECT_NE(v.find("signal Par_go : u64"), std::string::npos);
  EXPECT_NE(v.find("signal W1_jdone : u64"), std::string::npos);
  EXPECT_NE(v.find("Par_go <= U64_ONE;"), std::string::npos);
  EXPECT_NE(v.find("wait until W1_jdone /= U64_ZERO and W2_jdone /= U64_ZERO;"),
            std::string::npos);
  // Forked children serve repeatedly.
  EXPECT_NE(v.find("wait until Par_go /= U64_ZERO;"), std::string::npos);
}

TEST(Vhdl, ProceduresAreInlined) {
  Specification s;
  s.name = "P";
  s.vars = {var("x", Type::u16())};
  Procedure p;
  p.name = "AddOne";
  p.params.push_back(out_param("r", Type::u16()));
  p.body = block(assign("r", add(ref("r"), lit(1))));
  s.procedures.push_back(std::move(p));
  s.top = leaf("T", block(call("AddOne", args(ref("x")))));
  const std::string v = to_vhdl(s);
  EXPECT_EQ(v.find("call"), std::string::npos);
  EXPECT_NE(v.find("x := f_wrap(f_add(x, unsigned'("), std::string::npos);
}

TEST(Vhdl, RefinedMedicalExports) {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = ImplModel::Model3;
  RefineResult r = refine(d.partition, graph, cfg);
  const std::string v = to_vhdl(r.refined);
  // Component tops, servers, memories each become processes; Model3's
  // multi-port memory ports are separate processes over shared variables.
  EXPECT_GE(count_occurrences(v, " : process"), 6u);
  // The stored variables live in the generated memories: shared variables
  // for multi-port modules, process variables for single-port ones.
  EXPECT_NE(v.find("variable volume : u64"), std::string::npos);
  EXPECT_NE(v.find(", observable"), std::string::npos);
  // Bus signals exported with their SpecLang width as a comment.
  EXPECT_NE(v.find("signal lbus_PROC_start : u64"), std::string::npos);
  // Handshake waits survive the translation.
  EXPECT_GT(count_occurrences(v, "wait until"), 50u);
  // Delay statements become timed waits.
  Specification dly;
  dly.name = "D";
  dly.top = leaf("T", block(delay(5)));
  EXPECT_NE(to_vhdl(dly).find("wait for 5 * CYCLE;"), std::string::npos);
}

TEST(Vhdl, DeterministicOutput) {
  Specification s = testing::medical_like_spec();
  EXPECT_EQ(to_vhdl(s), to_vhdl(s));
}

}  // namespace
}  // namespace specsyn
