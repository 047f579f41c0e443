// Tests for the architecture report generator and the Section 5 model
// recommendation over a sweep.
#include <gtest/gtest.h>

#include "batch/sweep.h"
#include "estimate/profile.h"
#include "estimate/rates.h"
#include "estimate/static_profile.h"
#include "printer/report.h"
#include "refine/refiner.h"
#include "workloads/medical.h"
#include "test_util.h"

namespace specsyn {
namespace {

struct MedicalRig {
  Specification spec;
  AccessGraph graph;
  PartitionerResult design;

  MedicalRig()
      : spec(make_medical_system()),
        graph(build_access_graph(spec)),
        design(make_medical_design(spec, graph, 1)) {}
};

TEST(Report, ContainsAllArchitectureSections) {
  MedicalRig rig;
  RefineConfig cfg;
  cfg.model = ImplModel::Model4;
  RefineResult r = refine(rig.design.partition, rig.graph, cfg);
  ProfileResult prof = profile_spec(rig.spec);
  BusRateReport rates = bus_rates(prof, rig.design.partition, r.plan, 100e6);
  const std::string md = architecture_report(r, rig.design.partition, &rates);

  EXPECT_NE(md.find("# Architecture:"), std::string::npos);
  EXPECT_NE(md.find("Implementation model: **Model4**"), std::string::npos);
  EXPECT_NE(md.find("## Components"), std::string::npos);
  EXPECT_NE(md.find("**PROC** (processor, Intel8086"), std::string::npos);
  EXPECT_NE(md.find("## Buses"), std::string::npos);
  EXPECT_NE(md.find("| Mbit/s |"), std::string::npos);
  EXPECT_NE(md.find("interbus"), std::string::npos);
  EXPECT_NE(md.find("## Memory modules"), std::string::npos);
  EXPECT_NE(md.find("| variable | address | beats | type |"),
            std::string::npos);
  EXPECT_NE(md.find("## Bus interfaces (message passing)"), std::string::npos);
  EXPECT_NE(md.find("## Control handshakes"), std::string::npos);
  EXPECT_NE(md.find("## Statistics"), std::string::npos);
}

TEST(Report, WorksWithoutRates) {
  MedicalRig rig;
  RefineConfig cfg;
  cfg.model = ImplModel::Model1;
  RefineResult r = refine(rig.design.partition, rig.graph, cfg);
  const std::string md = architecture_report(r, rig.design.partition);
  EXPECT_EQ(md.find("Mbit/s"), std::string::npos);
  EXPECT_NE(md.find("GMEM_"), std::string::npos);
  // Every medical variable appears in some memory's address table.
  for (const VarDecl* v : rig.spec.all_vars()) {
    EXPECT_NE(md.find("| " + v->name + " | "), std::string::npos) << v->name;
  }
}

/// The Section 5 axis (Model1-4) swept over the rig's Design1 partition.
batch::SweepReport sweep_models(const MedicalRig& rig,
                                const ProfileResult& prof) {
  batch::ThreadPool pool(2);
  return batch::run_sweep(rig.spec, rig.design.partition, rig.graph, prof,
                          batch::model_axis(), {}, pool);
}

TEST(Selector, UnconstrainedPicksCheapest) {
  MedicalRig rig;
  const batch::SweepReport rep = sweep_models(rig, profile_spec(rig.spec));
  ASSERT_EQ(rep.rows.size(), 4u);
  const batch::SweepRow* rec = batch::recommend(rep, 0.0);
  ASSERT_NE(rec, nullptr);
  // Without a rate cap every refined model qualifies; the cheapest wins.
  for (const batch::SweepRow& r : rep.rows) {
    ASSERT_TRUE(r.refine_ok) << r.error;
    EXPECT_LE(rec->cost, r.cost);
  }
}

TEST(Selector, RateConstraintFiltersModels) {
  MedicalRig rig;
  const ProfileResult prof = profile_spec(rig.spec);
  const batch::SweepReport rep = sweep_models(rig, prof);
  // Model1's single shared bus carries everything; constrain just below it.
  const BusPlan m1 =
      BusPlan::build(rig.design.partition, rig.graph, ImplModel::Model1);
  const double m1_peak =
      bus_rates(prof, rig.design.partition, m1, 100e6).max_rate();
  const double cap = m1_peak - 1.0;
  const batch::SweepRow* rec = batch::recommend(rep, cap);
  ASSERT_NE(rec, nullptr);
  EXPECT_NE(rec->point.config.model, ImplModel::Model1);  // excluded by cap
  EXPECT_LE(rec->peak_mbps, cap);
  // The recommendation is the cheapest of the rows within the cap.
  for (const batch::SweepRow& r : rep.rows) {
    if (r.peak_mbps <= cap) {
      EXPECT_LE(rec->cost, r.cost);
    }
  }
}

TEST(Selector, ImpossibleConstraintYieldsNoRecommendation) {
  MedicalRig rig;
  const batch::SweepReport rep = sweep_models(rig, profile_spec(rig.spec));
  EXPECT_EQ(batch::recommend(rep, 0.001), nullptr);
}

TEST(Selector, EqualCostPrefersMatrixOrderAndSkipsFailures) {
  // Rows arrive ranked, not in matrix order: the tie-break must read
  // matrix_index, and a failed refinement never qualifies however cheap.
  batch::SweepReport rep;
  rep.rows.resize(3);
  rep.rows[0].matrix_index = 2;
  rep.rows[0].refine_ok = true;
  rep.rows[0].cost = 5.0;
  rep.rows[1].matrix_index = 1;
  rep.rows[1].refine_ok = true;
  rep.rows[1].cost = 5.0;
  rep.rows[2].matrix_index = 0;
  rep.rows[2].cost = 1.0;  // refine_ok stays false
  EXPECT_EQ(batch::recommend(rep, 0.0), &rep.rows[1]);
  EXPECT_EQ(batch::recommend(batch::SweepReport{}, 0.0), nullptr);
}

TEST(Selector, WorksWithStaticProfile) {
  // The recommendation is estimation-agnostic: a static profile prices the
  // same sweep without simulating the original.
  MedicalRig rig;
  const batch::SweepReport rep = sweep_models(rig, static_profile(rig.spec));
  const batch::SweepRow* rec = batch::recommend(rep, 0.0);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->peak_mbps, 0.0);
}

}  // namespace
}  // namespace specsyn
