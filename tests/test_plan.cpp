// SimPlan (sim/plan.h): one validated, laid-out and compiled plan per spec,
// shared by every tier and every explored schedule. Runs from a plan must be
// bit-identical to fresh Simulator(spec, cfg) runs, the Context/plan
// overloads of the analyses must equal their spec overloads, and the fuzz
// oracles must lower and compile each spec exactly once.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "graph/access_graph.h"
#include "refine/refiner.h"
#include "sim/plan.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

using analysis::Context;
using analysis::schedules::ExploreOptions;
using analysis::schedules::ExploreResult;
using analysis::schedules::InclusionResult;
using testing::RecordingObserver;

constexpr ExecTier kTiers[] = {ExecTier::Tree, ExecTier::Lowered,
                               ExecTier::Bytecode};

/// Every SimResult field.
void expect_same_run(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.root_completed, b.root_completed);
  ASSERT_EQ(a.blocked.size(), b.blocked.size());
  for (size_t i = 0; i < a.blocked.size(); ++i) {
    EXPECT_EQ(a.blocked[i].process_id, b.blocked[i].process_id);
    EXPECT_EQ(a.blocked[i].behavior, b.blocked[i].behavior);
    EXPECT_EQ(a.blocked[i].waiting_on, b.blocked[i].waiting_on);
  }
  EXPECT_EQ(a.final_vars, b.final_vars);
  EXPECT_EQ(a.observable_writes, b.observable_writes);
  EXPECT_EQ(a.behavior_completions, b.behavior_completions);
  EXPECT_EQ(a.sched_decisions, b.sched_decisions);
}

Specification refined_medical(
    ImplModel model, ProtocolStyle protocol = ProtocolStyle::FullHandshake) {
  const Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = model;
  cfg.protocol = protocol;
  return std::move(refine(d.partition, graph, cfg).refined);
}

/// examples/specs/<name>.spec.
Specification example(const char* name) {
  std::ifstream in(std::string(SPECSYN_SOURCE_DIR) + "/examples/specs/" +
                   name + ".spec");
  std::stringstream buf;
  buf << in.rdbuf();
  return testing::parse_or_die(buf.str());
}

/// examples/specs, a refined model (signal traffic, blocked servers) and 50
/// generated specs.
std::vector<Specification> corpus() {
  std::vector<Specification> specs;
  for (const char* name : {"medical", "producer_consumer", "race",
                           "traffic_light"}) {
    specs.push_back(example(name));
  }
  specs.push_back(refined_medical(ImplModel::Model2));
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    fuzz::GenOptions gen;
    gen.seed = seed;
    specs.push_back(fuzz::generate_spec(gen));
  }
  return specs;
}

SimResult run_observed(Simulator& sim, RecordingObserver& obs) {
  sim.add_slot_observer(&obs);
  return sim.run();
}

TEST(SimPlan, RunsAreBitIdenticalToFreshSimulatorsOnEveryTier) {
  for (const Specification& spec : corpus()) {
    SCOPED_TRACE(spec.name);
    const std::shared_ptr<const SimPlan> plan = SimPlan::build(spec);
    for (ExecTier tier : kTiers) {
      SCOPED_TRACE(exec_tier_name(tier));
      SimConfig cfg;
      cfg.exec_tier = tier;
      cfg.max_cycles = 200'000;
      Simulator fresh_sim(spec, cfg);
      RecordingObserver fresh_obs;
      const SimResult fresh = run_observed(fresh_sim, fresh_obs);

      // Two simulators share the plan; the second is built before the first
      // runs, so any run state leaking into the plan would show.
      Simulator first_sim(plan, cfg);
      Simulator second_sim(plan, cfg);
      RecordingObserver first_obs;
      RecordingObserver second_obs;
      expect_same_run(run_observed(first_sim, first_obs), fresh);
      expect_same_run(run_observed(second_sim, second_obs), fresh);
      EXPECT_EQ(first_obs.events, fresh_obs.events);
      EXPECT_EQ(second_obs.events, fresh_obs.events);
    }
  }
}

TEST(SimPlan, TreeTierSharedAcrossThreads) {
  // Tree-tier Simulators on 4 pool workers read one plan's resolution table
  // at once. Every run, recorded or not, equals a serial run of that plan.
  std::vector<Specification> specs;
  specs.push_back(example("race"));
  specs.push_back(refined_medical(ImplModel::Model2));
  specs.push_back(refined_medical(ImplModel::Model4));
  batch::ThreadPool pool(4);
  struct Run {
    SimResult result;
    std::vector<std::string> events;
  };
  for (const Specification& spec : specs) {
    const std::shared_ptr<const SimPlan> plan = SimPlan::build(spec);
    for (bool record : {false, true}) {
      SCOPED_TRACE(spec.name + (record ? " recorded" : " unrecorded"));
      SimConfig cfg;
      cfg.exec_tier = ExecTier::Tree;
      cfg.record_schedule = record;
      Simulator serial_sim(plan, cfg);
      RecordingObserver serial_obs;
      const SimResult serial = run_observed(serial_sim, serial_obs);
      EXPECT_EQ(serial.schedule_recorded, record);
      const std::vector<Run> runs = batch::run_batch<Run>(
          pool, 16, [&](size_t, batch::WorkerContext&) {
            Simulator sim(plan, cfg);
            RecordingObserver obs;
            Run run{run_observed(sim, obs), {}};
            run.events = std::move(obs.events);
            return run;
          });
      for (const Run& run : runs) {
        expect_same_run(run.result, serial);
        EXPECT_EQ(run.events, serial_obs.events);
      }
    }
  }
}

TEST(SimPlan, OneTierPlansHoldOnlyTheirTier) {
  const Specification spec = refined_medical(ImplModel::Model1);
  const auto all = SimPlan::build(spec);
  EXPECT_NE(all->tree(), nullptr);
  EXPECT_NE(all->program(), nullptr);
  EXPECT_NE(all->bytecode(), nullptr);

  // The single-Simulator rule: a bytecode plan keeps no lowered Program.
  const auto bytecode = SimPlan::build(spec, ExecTier::Bytecode);
  EXPECT_EQ(bytecode->tree(), nullptr);
  EXPECT_EQ(bytecode->program(), nullptr);
  EXPECT_NE(bytecode->bytecode(), nullptr);
  const auto lowered = SimPlan::build(spec, ExecTier::Lowered);
  EXPECT_EQ(lowered->tree(), nullptr);
  EXPECT_NE(lowered->program(), nullptr);
  EXPECT_EQ(lowered->bytecode(), nullptr);
  const auto tree = SimPlan::build(spec, ExecTier::Tree);
  EXPECT_NE(tree->tree(), nullptr);
  EXPECT_EQ(tree->program(), nullptr);
  EXPECT_EQ(tree->bytecode(), nullptr);

  SimConfig cfg;
  cfg.exec_tier = ExecTier::Lowered;
  EXPECT_THROW(Simulator(bytecode, cfg), SpecError);
  cfg.exec_tier = ExecTier::Bytecode;
  EXPECT_THROW(Simulator(tree, cfg), SpecError);
  // The tree tier runs off the plan's resolution table, which only a plan
  // built for it holds.
  cfg.exec_tier = ExecTier::Tree;
  EXPECT_THROW(Simulator(bytecode, cfg), SpecError);
  expect_same_run(Simulator(tree, cfg).run(), Simulator(all, cfg).run());
}

TEST(SimPlan, BytecodePlanNeverLowers) {
  // The bytecode compiles straight from the spec: a bytecode plan records
  // its compile and no lowering; only a plan for the lowered tier lowers.
  const Specification spec =
      refined_medical(ImplModel::Model4, ProtocolStyle::ByteSerial);
  const auto spans_of = [&](ExecTier tier) {
    telemetry::reset();
    telemetry::enable(/*stats=*/true, /*trace=*/false);
    const auto plan = SimPlan::build(spec, tier);
    telemetry::Snapshot snap = telemetry::snapshot();
    telemetry::enable(false, false);
    EXPECT_TRUE(plan->has_tier(tier));
    return snap.spans;
  };
  const auto bytecode = spans_of(ExecTier::Bytecode);
  EXPECT_EQ(bytecode.count("lower"), 0u);
  ASSERT_EQ(bytecode.count("bytecode_compile"), 1u);
  EXPECT_EQ(bytecode.at("bytecode_compile").count, 1u);
  const auto lowered = spans_of(ExecTier::Lowered);
  EXPECT_EQ(lowered.count("bytecode_compile"), 0u);
  ASSERT_EQ(lowered.count("lower"), 1u);
  EXPECT_EQ(lowered.at("lower").count, 1u);
}

TEST(SimPlan, InvalidSpecThrowsSpecError) {
  using namespace build;
  Specification bad;
  bad.name = "Bad";
  bad.top = leaf("L", block(assign("undeclared", lit(1))));
  EXPECT_THROW((void)SimPlan::build(bad), SpecError);
  for (ExecTier tier : kTiers) {
    EXPECT_THROW((void)SimPlan::build(bad, tier), SpecError)
        << exec_tier_name(tier);
  }
}

TEST(SimPlan, AnalyzeContextEqualsAnalyzeSpec) {
  std::vector<Specification> specs;
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    specs.push_back(refined_medical(m));
  }
  specs.push_back(testing::racy_spec());  // has SA020 findings
  for (const Specification& spec : specs) {
    SCOPED_TRACE(spec.name);
    const Context ctx(spec);
    EXPECT_EQ(analysis::analyze(ctx).json(spec.name),
              analysis::analyze(spec).json(spec.name));
  }
  EXPECT_FALSE(analysis::analyze(Context(specs.back())).clean());
}

void expect_same_exploration(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.divergence, b.divergence);
  EXPECT_EQ(a.explored, b.explored);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.divergent, b.divergent);
  EXPECT_EQ(a.complete, b.complete);
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (size_t i = 0; i < a.schedules.size(); ++i) {
    EXPECT_EQ(a.schedules[i].picks, b.schedules[i].picks) << i;
    EXPECT_EQ(a.schedules[i].outcome, b.schedules[i].outcome) << i;
    EXPECT_EQ(a.schedules[i].divergent, b.schedules[i].divergent) << i;
  }
}

TEST(SimPlan, InclusionOverloadsAgreeWitnessIncluded) {
  // The racy "refinement" escapes a single-writer original (test_sched's
  // Inclusion.RacyRefinementEscapesACleanOriginal), so the violation text
  // carries a witness.
  using namespace build;
  Specification original;
  original.name = "Racy";
  original.vars.push_back(var("winner", Type::u8(), 0, /*observable=*/true));
  original.top = leaf("WriterA", block(assign("winner", lit(1))));
  const Specification refined = testing::racy_spec();

  batch::ThreadPool pool(3);
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    ExploreOptions opts;
    opts.config.exec_tier = tier;
    const InclusionResult by_spec =
        analysis::schedules::check_inclusion(original, refined, opts);

    const Context octx(original);
    const Context rctx(refined);
    const auto oplan = SimPlan::build(original);
    const auto rplan = SimPlan::build(refined, tier);
    opts.pool = &pool;  // pooled waves all read the one refined plan
    // The original's baseline runs on the tree tier, as the fuzz oracle's
    // does: every tier records the same decisions.
    SimConfig tree = opts.config;
    tree.exec_tier = ExecTier::Tree;
    const SimResult rbase = testing::recorded_run(rplan, opts.config);
    const InclusionResult by_plan = analysis::schedules::check_inclusion(
        original,
        analysis::schedules::explore(octx, oplan, opts,
                                     testing::recorded_run(oplan, tree)),
        rctx, rplan, opts, rbase);

    EXPECT_FALSE(by_spec.holds);
    EXPECT_NE(by_spec.violation.find("picks:"), std::string::npos);
    EXPECT_EQ(by_plan.holds, by_spec.holds);
    EXPECT_EQ(by_plan.inconclusive, by_spec.inconclusive);
    EXPECT_EQ(by_plan.violation, by_spec.violation);
    EXPECT_EQ(by_plan.original_explored, by_spec.original_explored);
    EXPECT_EQ(by_plan.refined_explored, by_spec.refined_explored);

    expect_same_exploration(
        analysis::schedules::explore(refined, rctx, opts),
        analysis::schedules::explore(rctx, rplan, opts, rbase));
  }
}

TEST(SimPlan, ExploreFromACallersBaselineEqualsTheSpecOverload) {
  // race.spec diverges; refined medical Model4 has no racing pair, so its
  // exploration is the baseline alone.
  std::vector<Specification> specs;
  specs.push_back(example("race"));
  specs.push_back(refined_medical(ImplModel::Model4));
  for (const Specification& spec : specs) {
    const Context ctx(spec);
    for (ExecTier tier : kTiers) {
      SCOPED_TRACE(spec.name + " " + exec_tier_name(tier));
      ExploreOptions opts;
      opts.config.exec_tier = tier;
      const auto plan = SimPlan::build(spec, tier);
      expect_same_exploration(
          analysis::schedules::explore(spec, ctx, opts),
          analysis::schedules::explore(
              ctx, plan, opts, testing::recorded_run(plan, opts.config)));
    }
  }
}

TEST(SimPlan, RunOraclesLowersAndCompilesEachSpecOnce) {
  // A racy original explores several schedules per side; the plan built per
  // spec still lowers and compiles exactly once.
  const Specification spec = testing::racy_spec();
  fuzz::OracleOptions opts;
  opts.explore_schedules = 8;
  telemetry::reset();
  telemetry::enable(/*stats=*/true, /*trace=*/false);
  const fuzz::OracleOutcome out =
      fuzz::run_oracles(spec, fuzz::sample_config(0), opts);
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::enable(false, false);

  // Both specs were planned: the refiner passed and every oracle ran.
  ASSERT_EQ(snap.counters.count("fuzz.oracle.refiner.pass"), 1u)
      << out.issues.front().detail;
  ASSERT_EQ(snap.counters.count("fuzz.oracle.schedule-inclusion.pass") +
                snap.counters.count("fuzz.oracle.schedule-inclusion.fail"),
            1u);
  ASSERT_EQ(snap.counters.count("sched.explored"), 1u);
  EXPECT_GT(snap.counters.at("sched.explored").value, 2u);
  ASSERT_EQ(snap.spans.count("lower"), 1u);
  ASSERT_EQ(snap.spans.count("bytecode_compile"), 1u);
  EXPECT_EQ(snap.spans.at("lower").count, 2u);
  EXPECT_EQ(snap.spans.at("bytecode_compile").count, 2u);
  // interp-diff runs three tiers per spec, then the schedules on top; each
  // side's baseline schedule is its recorded tree-tier interp-diff run.
  EXPECT_EQ(snap.counters.at("sim.runs").value,
            6u + snap.counters.at("sched.explored").value - 2u);
}

}  // namespace
}  // namespace specsyn
