// Direct unit tests for BusPlan beyond the model-structure checks in
// test_refine.cpp: routing errors, degenerate partitions, interface plans,
// and support-layer odds and ends (diagnostics formatting).
#include <gtest/gtest.h>

#include <algorithm>

#include "partition/partitioner.h"
#include "refine/bus_plan.h"
#include "spec/builder.h"
#include "support/diagnostics.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

struct Rig {
  Specification spec;
  AccessGraph graph;
  Partition part;

  Rig()
      : spec(testing::medical_like_spec()),
        graph(build_access_graph(spec)),
        part(spec, Allocation::proc_plus_asic()) {
    part.assign_behavior("L2", 1);
    part.assign_behavior("L3", 1);
    part.assign_behavior("L4", 1);
    part.assign_behavior("L5", 1);
    part.auto_assign_vars(graph);
  }
};

TEST(BusPlanUnit, RouteUnknownVarThrows) {
  Rig r;
  BusPlan plan = BusPlan::build(r.part, r.graph, ImplModel::Model1);
  EXPECT_THROW(plan.route(0, "ghost"), SpecError);
  EXPECT_EQ(plan.module_of("ghost"), nullptr);
}

TEST(BusPlanUnit, FindBus) {
  Rig r;
  BusPlan plan = BusPlan::build(r.part, r.graph, ImplModel::Model2);
  const auto named = [&](const std::string& name) {
    return std::find_if(plan.buses().begin(), plan.buses().end(),
                        [&](const BusDecl& b) { return b.name == name; });
  };
  ASSERT_NE(named("gbus"), plan.buses().end());
  EXPECT_EQ(named("nope"), plan.buses().end());
  EXPECT_EQ(named("gbus")->role, BusRole::SharedGlobal);
}

TEST(BusPlanUnit, NoCrossTrafficMeansNoInterfaces) {
  // Everything on one component: Model4 degenerates to a local memory and
  // no interfaces / inter bus.
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());  // all on component 0
  part.auto_assign_vars(g);
  BusPlan plan = BusPlan::build(part, g, ImplModel::Model4);
  EXPECT_TRUE(plan.interfaces().empty());
  EXPECT_TRUE(plan.inter_bus().empty());
  EXPECT_EQ(plan.memories().size(), 1u);
  // And Model2/3 generate no global memories at all.
  EXPECT_EQ(BusPlan::build(part, g, ImplModel::Model2).memories().size(), 1u);
}

TEST(BusPlanUnit, InterfacePlanDirections) {
  // One-directional cross traffic: only PROC reaches into ASIC.
  Specification s;
  s.name = "OneWay";
  s.vars = {var("remote", Type::u16()), var("loc", Type::u16())};
  auto a = leaf("A", block(assign("remote", lit(1)), assign("loc", lit(2))));
  auto b = leaf("B", block(assign("remote", add(ref("remote"), lit(1)))));
  s.top = seq("Top", behaviors(std::move(a), std::move(b)));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.assign_var("remote", 1);
  part.auto_assign_vars(g);

  BusPlan plan = BusPlan::build(part, g, ImplModel::Model4);
  bool proc_out = false, asic_in = false, asic_out = false, proc_in = false;
  for (const InterfacePlan& ip : plan.interfaces()) {
    if (ip.component == 0) {
      proc_out = ip.has_outbound;
      proc_in = ip.has_inbound;
    } else {
      asic_out = ip.has_outbound;
      asic_in = ip.has_inbound;
    }
  }
  EXPECT_TRUE(proc_out);   // PROC reaches out to ASIC's memory
  EXPECT_TRUE(asic_in);    // ASIC serves inbound requests
  EXPECT_FALSE(asic_out);  // ASIC never reaches into PROC
  EXPECT_FALSE(proc_in);
  // Route from PROC to the remote variable crosses three buses.
  EXPECT_EQ(plan.route(0, "remote").size(), 3u);
  EXPECT_EQ(plan.route(1, "remote").size(), 1u);
}

TEST(BusPlanUnit, RolesToString) {
  EXPECT_STREQ(to_string(BusRole::SharedGlobal), "shared-global");
  EXPECT_STREQ(to_string(BusRole::Local), "local");
  EXPECT_STREQ(to_string(BusRole::Dedicated), "dedicated");
  EXPECT_STREQ(to_string(BusRole::Request), "request");
  EXPECT_STREQ(to_string(BusRole::Inter), "inter");
  EXPECT_STREQ(to_string(ImplModel::Model4), "Model4");
  EXPECT_STREQ(to_string(ProtocolStyle::ByteSerial), "byte-serial");
  EXPECT_STREQ(to_string(LeafScheme::WrapperSeq), "wrapper-seq");
  EXPECT_STREQ(to_string(MasterGranularity::Component), "component");
  EXPECT_STREQ(to_string(RatioGoal::MoreLocal), "local>global");
  EXPECT_STREQ(to_string(ComponentKind::Processor), "processor");
  EXPECT_STREQ(to_string(BehaviorKind::Sequential), "seq");
}

TEST(BusPlanUnit, VarOnLeafBehaviorMapped) {
  // Behavior-scoped variables are first-class for refinement: they get an
  // address and a memory module like any other.
  Specification s;
  s.name = "Scoped";
  auto a = leaf("A", block(assign("priv", lit(3))));
  a->vars.push_back(var("priv", Type::u8()));
  s.top = seq("Top", behaviors(std::move(a), leaf("B", block(nop()))));
  AccessGraph g = build_access_graph(s);
  Partition part(s, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(g);
  BusPlan plan = BusPlan::build(part, g, ImplModel::Model2);
  ASSERT_NE(plan.module_of("priv"), nullptr);
  EXPECT_FALSE(plan.module_of("priv")->global);
}

// --- support-layer coverage ---------------------------------------------------

TEST(Diagnostics, Formatting) {
  DiagnosticSink d;
  d.note("just so you know", {3, 7});
  d.warning("hmm");
  d.error("boom", {12, 1});
  EXPECT_TRUE(d.has_errors());
  EXPECT_EQ(d.error_count(), 1u);
  EXPECT_EQ(d.all().size(), 3u);
  const std::string s = d.str();
  EXPECT_NE(s.find("note at 3:7: just so you know"), std::string::npos);
  EXPECT_NE(s.find("warning: hmm"), std::string::npos);
  EXPECT_NE(s.find("error at 12:1: boom"), std::string::npos);
  d.clear();
  EXPECT_FALSE(d.has_errors());
  EXPECT_TRUE(d.all().empty());
}

TEST(Diagnostics, SourceLocStr) {
  EXPECT_EQ(SourceLoc{}.str(), "<no-loc>");
  EXPECT_EQ((SourceLoc{4, 9}).str(), "4:9");
  EXPECT_FALSE(SourceLoc{}.valid());
  EXPECT_TRUE((SourceLoc{1, 1}).valid());
}

}  // namespace
}  // namespace specsyn
