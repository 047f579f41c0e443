// Unit tests for the SpecLang pretty-printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "batch/sweep.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "graph/access_graph.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "spec/builder.h"
#include "test_util.h"
#include "workloads/medical.h"
#include "workloads/synthetic.h"

namespace specsyn {
namespace {

using namespace build;

TEST(PrintExpr, Literals) {
  EXPECT_EQ(print(*lit(42)), "42");
  EXPECT_EQ(print(*lit(0, Type::bit())), "0");
}

TEST(PrintExpr, MinimalParens) {
  // a + b * c needs no parens; (a + b) * c does.
  EXPECT_EQ(print(*add(ref("a"), mul(ref("b"), ref("c")))), "a + b * c");
  EXPECT_EQ(print(*mul(add(ref("a"), ref("b")), ref("c"))), "(a + b) * c");
  // Left-assoc: a - b - c prints bare; a - (b - c) keeps parens.
  EXPECT_EQ(print(*sub(sub(ref("a"), ref("b")), ref("c"))), "a - b - c");
  EXPECT_EQ(print(*sub(ref("a"), sub(ref("b"), ref("c")))), "a - (b - c)");
}

TEST(PrintExpr, LogicalAndComparisons) {
  EXPECT_EQ(print(*land(eq(ref("s"), lit(1)), gt(ref("x"), lit(2)))),
            "s == 1 && x > 2");
  EXPECT_EQ(print(*lnot(ref("a"))), "!(a)");
  EXPECT_EQ(print(*bnot(ref("a"))), "~(a)");
  EXPECT_EQ(print(*neg(lit(5))), "-(5)");
}

TEST(PrintStmt, AllKinds) {
  EXPECT_EQ(print(*assign("x", lit(1))), "x := 1;\n");
  EXPECT_EQ(print(*sassign("s", lit(1))), "s <= 1;\n");
  EXPECT_EQ(print(*Stmt::delay_for(5)), "delay 5;\n");
  EXPECT_EQ(print(*break_()), "break;\n");
  EXPECT_EQ(print(*nop()), "nop;\n");
  EXPECT_EQ(print(*wait(eq(ref("s"), lit(1)))), "wait s == 1;\n");
  EXPECT_EQ(print(*call("P", args(lit(1), ref("x")))), "call P(1, x);\n");
}

TEST(PrintStmt, NestedBlocks) {
  StmtPtr s = if_(gt(ref("x"), lit(0)),
                  block(assign("y", lit(1))),
                  block(while_(lt(ref("y"), lit(3)),
                               block(assign("y", add(ref("y"), lit(1)))))));
  const std::string expect =
      "if x > 0 {\n"
      "  y := 1;\n"
      "} else {\n"
      "  while y < 3 {\n"
      "    y := y + 1;\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(print(*s), expect);
}

TEST(PrintSpec, FullSpecShape) {
  Specification s = testing::abc_spec(3);
  const std::string text = print(s);
  EXPECT_NE(text.find("spec ABCExample;"), std::string::npos);
  EXPECT_NE(text.find("observable var x : int16;"), std::string::npos);
  EXPECT_NE(text.find("behavior Main : seq {"), std::string::npos);
  EXPECT_NE(text.find("A -> B when x > 1;"), std::string::npos);
  EXPECT_NE(text.find("B -> complete;"), std::string::npos);
}

TEST(PrintSpec, InitialValuesPrintedWhenNonZero) {
  Specification s;
  s.name = "I";
  s.vars.push_back(var("a", Type::u8(), 7));
  s.signals.push_back(signal("sg", Type::bit(), 1));
  s.top = leaf("T", block(nop()));
  const std::string text = print(s);
  EXPECT_NE(text.find("var a : int8 := 7;"), std::string::npos);
  EXPECT_NE(text.find("signal sg : bit := 1;"), std::string::npos);
}

TEST(PrintSpec, ProceduresPrintWithParamsAndLocals) {
  Specification s;
  s.name = "P";
  Procedure p;
  p.name = "MST_receive";
  p.params.push_back(in_param("addr", Type::u8()));
  p.params.push_back(out_param("d", Type::u16()));
  p.locals.emplace_back("tmp", Type::u16());
  p.body = block(assign("d", ref("tmp")));
  s.procedures.push_back(std::move(p));
  s.top = leaf("T", block(nop()));
  const std::string text = print(s);
  EXPECT_NE(text.find("proc MST_receive(addr : int8, out d : int16) {"),
            std::string::npos);
  EXPECT_NE(text.find("var tmp : int16;"), std::string::npos);
}

TEST(CountLines, IgnoresBlanksAndCountsLastLine) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("\n\n  \n"), 0u);
  EXPECT_EQ(count_lines("a\nb\n"), 2u);
  EXPECT_EQ(count_lines("a\n\nb"), 2u);
  EXPECT_EQ(count_lines("  x := 1;"), 1u);
}

TEST(CountLines, MatchesPrintedSpec) {
  Specification s = testing::abc_spec(3);
  const std::string text = print(s);
  // Stable small spec: exact count documents the printing format.
  EXPECT_EQ(count_lines(text), 20u) << text;
}

// The Figure 10 metric counts lines without printing; it must equal the
// line count of the printed text on every shape of spec the tools feed it.
void expect_count_matches_text(const Specification& spec) {
  EXPECT_EQ(count_lines(spec), count_lines(print(spec))) << spec.name;
}

TEST(Printer, CountLinesWithoutTextMatchesPrintedText) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(SPECSYN_SOURCE_DIR) + "/examples/specs")) {
    if (entry.path().extension() == ".spec") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 4u);
  for (const auto& file : files) {
    std::ifstream in(file);
    std::stringstream text;
    text << in.rdbuf();
    expect_count_matches_text(testing::parse_or_die(text.str()));
  }

  const Specification medical = make_medical_system();
  const AccessGraph medical_graph = build_access_graph(medical);
  for (int design = 1; design <= 3; ++design) {
    const PartitionerResult d =
        make_medical_design(medical, medical_graph, design);
    for (const batch::SweepPoint& point : batch::full_matrix()) {
      expect_count_matches_text(
          refine(d.partition, medical_graph, point.config).refined);
    }
  }

  // Fuzz seeds under their sampled configs; leaves are dealt round-robin
  // over the sampled components.
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz::GenOptions gen;
    gen.seed = seed;
    const Specification spec = fuzz::generate_spec(gen);
    expect_count_matches_text(spec);
    const fuzz::OracleConfig cfg = fuzz::sample_config(seed);
    const AccessGraph graph = build_access_graph(spec);
    Partition part(spec, cfg.components == 2
                             ? Allocation::proc_plus_asic()
                             : Allocation::asics(cfg.components));
    size_t next = cfg.partition_salt;
    spec.top->for_each([&](const Behavior& b) {
      if (b.is_leaf()) part.assign_behavior(b.name, next++ % cfg.components);
    });
    part.auto_assign_vars(graph);
    RefineConfig rc;
    rc.model = cfg.model;
    rc.protocol = cfg.protocol;
    rc.leaf_scheme = cfg.scheme;
    rc.inline_protocols = cfg.inline_protocols;
    expect_count_matches_text(refine(part, graph, rc).refined);
  }

  SyntheticOptions large;
  large.leaf_behaviors = 256;
  large.max_depth = 6;
  expect_count_matches_text(make_synthetic_spec(large));
}

}  // namespace
}  // namespace specsyn
