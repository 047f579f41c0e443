// Differential tests for the compiled execution tiers: the lowered
// interpreter (sim/program.h + interp_lowered.cpp) and the bytecode
// interpreter (sim/bytecode.h + interp_bytecode.cpp) must both be
// observationally indistinguishable from the legacy tree-walking
// interpreter — identical SimResult, identical observer callback streams,
// identical profiles — on every workload the repo can produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "estimate/profile.h"
#include "parser/parser.h"
#include "refine/refiner.h"
#include "sim/simulator.h"
#include "spec/builder.h"
#include "test_util.h"
#include "workloads/answering.h"
#include "workloads/medical.h"
#include "workloads/synthetic.h"

namespace specsyn {
namespace {

using testing::RecordingObserver;

SimResult simulate(const Specification& spec, ExecTier tier,
                   SlotObserver* obs = nullptr) {
  SimConfig cfg;
  cfg.exec_tier = tier;
  Simulator sim(spec, cfg);
  if (obs != nullptr) sim.add_slot_observer(obs);
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

  ASSERT_EQ(a.blocked.size(), b.blocked.size());
  for (size_t i = 0; i < a.blocked.size(); ++i) {
    EXPECT_EQ(a.blocked[i].process_id, b.blocked[i].process_id);
    EXPECT_EQ(a.blocked[i].behavior, b.blocked[i].behavior);
    EXPECT_EQ(a.blocked[i].waiting_on, b.blocked[i].waiting_on);
  }
}

void expect_identical_results(const Specification& spec) {
  const SimResult legacy = simulate(spec, ExecTier::Tree);
  {
    SCOPED_TRACE("lowered vs tree");
    expect_same_result(simulate(spec, ExecTier::Lowered), legacy);
  }
  {
    SCOPED_TRACE("bytecode vs tree");
    expect_same_result(simulate(spec, ExecTier::Bytecode), legacy);
  }
}

TEST(LoweringDifferential, MedicalSystem) {
  expect_identical_results(make_medical_system());
}

TEST(LoweringDifferential, AnsweringMachine) {
  expect_identical_results(make_answering_machine());
}

// The paper's full implementation-model axis under both bus protocols: every
// refined medical spec must agree across all three execution tiers.
TEST(LoweringDifferential, RefinedMedicalAllModels) {
  const Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    for (ProtocolStyle p :
         {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
      RefineConfig cfg;
      cfg.model = m;
      cfg.protocol = p;
      RefineResult r = refine(d.partition, graph, cfg);
      SCOPED_TRACE(std::string(to_string(m)) +
                   (p == ProtocolStyle::FullHandshake ? "/hs" : "/bs"));
      expect_identical_results(r.refined);
    }
  }
}

TEST(LoweringDifferential, SyntheticSweep) {
  for (uint64_t seed : {1u, 7u, 11u, 23u}) {
    SyntheticOptions opts;
    opts.seed = seed;
    opts.leaf_behaviors = 12;
    opts.variables = 16;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical_results(make_synthetic_spec(opts));
  }
}

// The example .spec files exercise the parser front end; the compiled tiers
// must agree on specs that arrive as text, not just programmatic builders.
TEST(LoweringDifferential, ExampleSpecFiles) {
  for (const char* rel :
       {"/examples/specs/producer_consumer.spec",
        "/examples/specs/traffic_light.spec"}) {
    SCOPED_TRACE(rel);
    std::ifstream in(std::string(SPECSYN_SOURCE_DIR) + rel);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    DiagnosticSink diags;
    std::optional<Specification> spec = parse_spec(buf.str(), diags);
    ASSERT_TRUE(spec.has_value()) << diags.str();
    expect_identical_results(*spec);
  }
}

bool has_event(const std::vector<std::string>& events, const char* kind) {
  const std::string prefix = std::string(kind) + " ";
  return std::any_of(events.begin(), events.end(), [&](const std::string& e) {
    return e.rfind(prefix, 0) == 0;
  });
}

// Compares the three tiers' streams and returns the reference (tree) one.
std::vector<std::string> expect_identical_streams(const Specification& spec) {
  RecordingObserver lowered;
  RecordingObserver bytecode;
  RecordingObserver legacy;
  simulate(spec, ExecTier::Lowered, &lowered);
  simulate(spec, ExecTier::Bytecode, &bytecode);
  simulate(spec, ExecTier::Tree, &legacy);
  EXPECT_EQ(lowered.events, legacy.events);
  EXPECT_EQ(bytecode.events, legacy.events);
  return legacy.events;
}

TEST(LoweringDifferential, ObserverStreamsIdentical) {
  const std::vector<std::string> events =
      expect_identical_streams(make_medical_system());
  for (const char* kind : {"bind", "read", "write", "start", "end", "run_end"}) {
    EXPECT_TRUE(has_event(events, kind)) << kind;
  }
}

TEST(LoweringDifferential, ObserverStreamsIdenticalRefined) {
  const Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = ImplModel::Model2;
  RefineResult r = refine(d.partition, graph, cfg);
  const std::vector<std::string> events = expect_identical_streams(r.refined);
  // The refined model adds the signal traffic: every callback kind fires.
  for (const char* kind : {"bind", "read", "write", "commit", "schedule",
                           "start", "end", "run_end"}) {
    EXPECT_TRUE(has_event(events, kind)) << kind;
  }
}

TEST(LoweringDifferential, ProfilesIdentical) {
  const Specification spec = make_medical_system();
  SimConfig lowered_cfg;
  lowered_cfg.exec_tier = ExecTier::Lowered;
  SimConfig bytecode_cfg;
  bytecode_cfg.exec_tier = ExecTier::Bytecode;
  SimConfig legacy_cfg;
  legacy_cfg.exec_tier = ExecTier::Tree;
  const ProfileResult legacy = profile_spec(spec, legacy_cfg);
  for (const SimConfig& cfg : {lowered_cfg, bytecode_cfg}) {
    SCOPED_TRACE(exec_tier_name(cfg.exec_tier));
    const ProfileResult compiled = profile_spec(spec, cfg);

    ASSERT_EQ(compiled.behaviors.size(), legacy.behaviors.size());
    for (const auto& [name, prof] : compiled.behaviors) {
      auto it = legacy.behaviors.find(name);
      ASSERT_NE(it, legacy.behaviors.end()) << name;
      EXPECT_EQ(prof.activations, it->second.activations) << name;
      EXPECT_EQ(prof.first_start, it->second.first_start) << name;
      EXPECT_EQ(prof.last_end, it->second.last_end) << name;
    }
    ASSERT_EQ(compiled.accesses.size(), legacy.accesses.size());
    for (const auto& [channel, counts] : compiled.accesses) {
      auto it = legacy.accesses.find(channel);
      ASSERT_NE(it, legacy.accesses.end());
      EXPECT_EQ(counts.reads, it->second.reads);
      EXPECT_EQ(counts.writes, it->second.writes);
    }
    EXPECT_EQ(compiled.sim.steps, legacy.sim.steps);
    EXPECT_EQ(compiled.sim.end_time, legacy.sim.end_time);
  }
}

// Satellite check: a break outside any loop must be rejected by validation
// (the interpreters would otherwise hit defensive throws at compile or run
// time).
TEST(LoweringValidation, BreakOutsideLoopRejected) {
  using namespace build;
  Specification spec;
  spec.name = "break_misuse";
  spec.top = leaf("main", block(break_()));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(spec, diags));
  EXPECT_NE(diags.str().find("break outside of loop"), std::string::npos);
}

}  // namespace
}  // namespace specsyn
