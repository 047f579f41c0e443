// Unit tests for access-graph derivation.
#include <gtest/gtest.h>

#include <set>

#include "graph/access_graph.h"
#include "printer/dot.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(AccessGraph, LeafReadsAndWrites) {
  Specification s;
  s.name = "G";
  s.vars = {var("x"), var("y")};
  s.top = leaf("A", block(assign("y", add(ref("x"), lit(1))),
                          assign("y", add(ref("y"), ref("x")))));
  AccessGraph g = build_access_graph(s);
  EXPECT_TRUE(g.reads("A", "x"));
  EXPECT_TRUE(g.writes("A", "y"));
  EXPECT_TRUE(g.reads("A", "y"));
  EXPECT_FALSE(g.writes("A", "x"));
  // sites: x read twice, y written twice, y read once.
  for (const DataChannel& c : g.data_channels()) {
    if (c.var == "x" && c.dir == AccessDir::Read) {
      EXPECT_EQ(c.sites, 2u);
    }
    if (c.var == "y" && c.dir == AccessDir::Write) {
      EXPECT_EQ(c.sites, 2u);
    }
    if (c.var == "y" && c.dir == AccessDir::Read) {
      EXPECT_EQ(c.sites, 1u);
    }
  }
  EXPECT_EQ(g.data_channel_pairs(), 2u);  // (A,x), (A,y)
}

TEST(AccessGraph, GuardReadsAttributeToComposite) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  EXPECT_TRUE(g.reads("Main", "x"));   // transition guards
  EXPECT_TRUE(g.writes("A", "x"));
  EXPECT_TRUE(g.reads("B", "x"));
  EXPECT_TRUE(g.writes("B", "r"));
  // Pairs: (Main,x), (A,x), (B,x), (B,r), (C,x), (C,r)
  EXPECT_EQ(g.data_channel_pairs(), 6u);
}

TEST(AccessGraph, SignalAccessesAreNotDataChannels) {
  Specification s;
  s.name = "G";
  s.vars = {var("x")};
  s.signals = {signal("go")};
  s.top = leaf("A", block(sassign("go", ref("x")), wait_eq("go", 1)));
  AccessGraph g = build_access_graph(s);
  EXPECT_EQ(g.data_channel_pairs(), 1u);  // only (A,x)
  EXPECT_TRUE(g.reads("A", "x"));
}

TEST(AccessGraph, ConditionReadsCounted) {
  Specification s;
  s.name = "G";
  s.vars = {var("x"), var("y"), var("z")};
  s.top = leaf("A", block(if_(gt(ref("x"), lit(1)),
                              block(assign("y", lit(1))),
                              block(assign("z", lit(1)))),
                          while_(lt(ref("z"), lit(3)),
                                 block(assign("z", add(ref("z"), lit(1)))))));
  AccessGraph g = build_access_graph(s);
  EXPECT_TRUE(g.reads("A", "x"));
  EXPECT_TRUE(g.writes("A", "y"));
  EXPECT_TRUE(g.reads("A", "z"));
  EXPECT_TRUE(g.writes("A", "z"));
}

TEST(AccessGraph, CallArgumentsAttributed) {
  Specification s;
  s.name = "G";
  s.vars = {var("x"), var("res")};
  Procedure p;
  p.name = "P";
  p.params.push_back(in_param("a"));
  p.params.push_back(out_param("r"));
  p.body = block(assign("r", add(ref("a"), lit(1))));
  s.procedures.push_back(std::move(p));
  s.top = leaf("A", block(call("P", args(ref("x"), ref("res")))));
  AccessGraph g = build_access_graph(s);
  EXPECT_TRUE(g.reads("A", "x"));
  EXPECT_TRUE(g.writes("A", "res"));
}

TEST(AccessGraph, ControlChannels) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  // Explicit arcs A->B, A->C (guarded); B,C only have completion arcs.
  bool ab = false, ac = false;
  for (const ControlChannel& c : g.control_channels()) {
    if (c.from == "A" && c.to == "B") ab = c.guarded;
    if (c.from == "A" && c.to == "C") ac = c.guarded;
  }
  EXPECT_TRUE(ab);
  EXPECT_TRUE(ac);
}

TEST(AccessGraph, ImplicitFallThroughControl) {
  Specification s;
  s.name = "G";
  s.top = seq("T", behaviors(leaf("A", block(nop())), leaf("B", block(nop()))));
  AccessGraph g = build_access_graph(s);
  ASSERT_EQ(g.control_channels().size(), 1u);
  EXPECT_EQ(g.control_channels()[0].from, "A");
  EXPECT_EQ(g.control_channels()[0].to, "B");
  EXPECT_FALSE(g.control_channels()[0].guarded);
}

TEST(AccessGraph, AccessorSets) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  std::set<std::string> acc, vars;
  for (const DataChannel& c : g.data_channels()) {
    if (c.var == "x") acc.insert(c.behavior);
    if (c.behavior == "B") vars.insert(c.var);
  }
  EXPECT_EQ(acc.size(), 4u);  // Main, A, B, C
  EXPECT_EQ(vars.size(), 2u);  // x, r
}

TEST(Dot, ExportContainsNodesAndClusters) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  std::string plain = to_dot(g);
  EXPECT_NE(plain.find("digraph"), std::string::npos);
  EXPECT_NE(plain.find("\"A\" [shape=box]"), std::string::npos);
  EXPECT_NE(plain.find("\"x\""), std::string::npos);

  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  std::string clustered = to_dot(g, part);
  EXPECT_NE(clustered.find("cluster_0"), std::string::npos);
  EXPECT_NE(clustered.find("cluster_1"), std::string::npos);
  EXPECT_NE(clustered.find("label=\"PROC\""), std::string::npos);
}

}  // namespace
}  // namespace specsyn
