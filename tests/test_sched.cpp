// Schedule seam + bounded exploration tests: the SchedPolicy knob must not
// perturb the default run, replay must be bit-identical on every execution
// tier, and the explorer must find exactly the divergences the static race
// relation predicts (and nothing on clean specs).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "sim/sched.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace specsyn {
namespace {

using analysis::Context;
using analysis::schedules::ExploreOptions;
using analysis::schedules::ExploreResult;
using analysis::schedules::InclusionResult;
using analysis::schedules::Outcome;
using analysis::schedules::outcome_of;
using namespace specsyn::build;
using specsyn::testing::parse_or_die;
using specsyn::testing::racy_spec;

constexpr ExecTier kTiers[] = {ExecTier::Tree, ExecTier::Lowered,
                               ExecTier::Bytecode};

/// Two concurrent writers of *different* variables: concurrent but
/// independent, so no reordering can change the outcome and the explorer
/// must prune every branch.
Specification independent_spec() {
  Specification s;
  s.name = "Independent";
  s.vars.push_back(var("a", Type::u8(), 0, /*observable=*/true));
  s.vars.push_back(var("b", Type::u8(), 0, /*observable=*/true));
  auto wa = leaf("WriterA", block(assign("a", lit(1)), assign("a", lit(3))));
  auto wb = leaf("WriterB", block(assign("b", lit(2)), assign("b", lit(4))));
  s.top = conc("Par", behaviors(std::move(wa), std::move(wb)));
  return s;
}

/// Fields of a SimResult the schedule seam must not perturb.
void expect_same_result(const SimResult& x, const SimResult& y) {
  EXPECT_EQ(x.status, y.status);
  EXPECT_EQ(x.root_completed, y.root_completed);
  EXPECT_EQ(x.end_time, y.end_time);
  EXPECT_EQ(x.steps, y.steps);
  EXPECT_EQ(x.final_vars, y.final_vars);
  EXPECT_EQ(x.observable_writes, y.observable_writes);
}

// -- the SchedPolicy seam ----------------------------------------------------

TEST(SchedPolicy, ParseAndNameRoundTrip) {
  for (SchedPolicy p :
       {SchedPolicy::Fifo, SchedPolicy::Random, SchedPolicy::Replay}) {
    SchedPolicy back = SchedPolicy::Fifo;
    EXPECT_TRUE(parse_sched_policy(sched_policy_name(p), &back));
    EXPECT_EQ(back, p);
  }
  SchedPolicy out;
  EXPECT_FALSE(parse_sched_policy("robin", &out));
}

TEST(SchedPolicy, FifoWithRecordingMatchesDefaultRunOnEveryTier) {
  const Specification s = racy_spec();
  for (ExecTier tier : kTiers) {
    SimConfig plain;
    plain.exec_tier = tier;
    const SimResult base = testing::run(s, plain);

    SimConfig rec = plain;
    rec.record_schedule = true;  // forces the generic scheduling loop
    const SimResult recorded = testing::run(s, rec);
    expect_same_result(base, recorded);
    EXPECT_FALSE(recorded.sched_decisions.empty());

    SimConfig fifo = plain;
    fifo.sched_policy = SchedPolicy::Fifo;
    expect_same_result(base, testing::run(s, fifo));
  }
}

TEST(SchedPolicy, RandomIsDeterministicPerSeed) {
  const Specification s = racy_spec();
  SimConfig cfg;
  cfg.sched_policy = SchedPolicy::Random;
  cfg.sched_seed = 7;
  cfg.record_schedule = true;
  const SimResult a = testing::run(s, cfg);
  const SimResult b = testing::run(s, cfg);
  expect_same_result(a, b);
  EXPECT_EQ(a.sched_decisions, b.sched_decisions);
}

TEST(SchedPolicy, SomeSeedFlipsTheRacyOutcome) {
  const Specification s = racy_spec();
  const uint64_t base_winner = testing::run(s).final_vars.at("winner");
  bool flipped = false;
  for (uint64_t seed = 0; seed < 32 && !flipped; ++seed) {
    SimConfig cfg;
    cfg.sched_policy = SchedPolicy::Random;
    cfg.sched_seed = seed;
    flipped = testing::run(s, cfg).final_vars.at("winner") != base_winner;
  }
  EXPECT_TRUE(flipped) << "no seed in [0,32) reordered the racing writers";
}

TEST(SchedPolicy, ReplayReproducesARandomRunBitIdenticallyOnEveryTier) {
  const Specification s = racy_spec();
  SimConfig rand_cfg;
  rand_cfg.sched_policy = SchedPolicy::Random;
  rand_cfg.sched_seed = 3;
  rand_cfg.record_schedule = true;
  const SimResult recorded = testing::run(s, rand_cfg);

  SimConfig replay_cfg;
  replay_cfg.sched_policy = SchedPolicy::Replay;
  for (const SchedDecision& d : recorded.sched_decisions) {
    replay_cfg.sched_picks.push_back(d.pick);
  }
  replay_cfg.record_schedule = true;
  for (ExecTier tier : kTiers) {
    replay_cfg.exec_tier = tier;
    const SimResult replayed = testing::run(s, replay_cfg);
    expect_same_result(recorded, replayed);
    EXPECT_EQ(recorded.sched_decisions, replayed.sched_decisions);
  }
}

TEST(SchedPolicy, ReplayPickOutOfRangeThrows) {
  SimConfig cfg;
  cfg.sched_policy = SchedPolicy::Replay;
  cfg.sched_picks = {99};
  EXPECT_THROW(testing::run(racy_spec(), cfg), SpecError);
}

TEST(SchedPolicy, ExhaustedReplayTraceContinuesCanonically) {
  // An empty pick trace under Replay is exactly the canonical schedule.
  const Specification s = racy_spec();
  SimConfig cfg;
  cfg.sched_policy = SchedPolicy::Replay;
  expect_same_result(testing::run(s), testing::run(s, cfg));
}

// -- witness strings ---------------------------------------------------------

TEST(Witness, FormatAndApplyRoundTrip) {
  const std::vector<uint32_t> picks = {1, 0, 2};
  const std::string w = format_witness(picks);
  EXPECT_EQ(w, "picks:1,0,2");
  SimConfig cfg;
  ASSERT_TRUE(apply_witness(w, &cfg));
  EXPECT_EQ(cfg.sched_policy, SchedPolicy::Replay);
  EXPECT_EQ(cfg.sched_picks, picks);

  SimConfig seeded;
  ASSERT_TRUE(apply_witness("seed:42", &seeded));
  EXPECT_EQ(seeded.sched_policy, SchedPolicy::Random);
  EXPECT_EQ(seeded.sched_seed, 42u);

  // format_witness({}) == "picks:" is the (legal) empty trace: canonical
  // replay.
  SimConfig empty;
  ASSERT_TRUE(apply_witness(format_witness({}), &empty));
  EXPECT_EQ(empty.sched_policy, SchedPolicy::Replay);
  EXPECT_TRUE(empty.sched_picks.empty());
}

TEST(Witness, MalformedInputsAreRejectedAndLeaveConfigUntouched) {
  for (const char* bad : {"", "picks:1,,2", "picks:1,", "picks:x",
                          "seed:", "seed:12x", "frobnicate",
                          "picks:99999999999999999999999"}) {
    SimConfig cfg;
    EXPECT_FALSE(apply_witness(bad, &cfg)) << bad;
    EXPECT_EQ(cfg.sched_policy, SchedPolicy::Fifo) << bad;
    EXPECT_TRUE(cfg.sched_picks.empty()) << bad;
  }
}

// -- bounded exploration -----------------------------------------------------

TEST(Explore, FindsTheRaceAndTheWitnessReplaysOnEveryTier) {
  const Specification s = racy_spec();
  const Context ctx(s);
  ExploreOptions opts;
  const ExploreResult r = analysis::schedules::explore(s, ctx, opts);
  ASSERT_TRUE(r.diverged());
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.explored, 2u);
  EXPECT_FALSE(r.witness.empty());
  EXPECT_FALSE(r.divergence.empty());

  // The witness names a schedule whose recorded outcome differs from the
  // baseline; replaying it must reproduce that exact outcome on every tier.
  const auto divergent =
      std::find_if(r.schedules.begin(), r.schedules.end(),
                   [](const auto& sch) { return sch.divergent; });
  ASSERT_NE(divergent, r.schedules.end());
  EXPECT_EQ(r.witness, format_witness(divergent->picks));
  for (ExecTier tier : kTiers) {
    SimConfig cfg;
    cfg.exec_tier = tier;
    ASSERT_TRUE(apply_witness(r.witness, &cfg));
    const Outcome replayed = outcome_of(testing::run(s, cfg));
    EXPECT_EQ(replayed, divergent->outcome);
    EXPECT_FALSE(replayed == r.schedules.front().outcome);
  }
}

TEST(Explore, SequentialSpecExploresExactlyTheBaseline) {
  const Specification s = testing::abc_spec(2);
  const Context ctx(s);
  const ExploreResult r = analysis::schedules::explore(s, ctx, {});
  EXPECT_EQ(r.explored, 1u);
  EXPECT_EQ(r.pruned, 0u);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.diverged());
}

TEST(Explore, IndependentConcurrencyIsPrunedAwayButNotMissed) {
  const Specification s = independent_spec();
  const Context ctx(s);
  ExploreOptions pruned;
  const ExploreResult p = analysis::schedules::explore(s, ctx, pruned);
  EXPECT_EQ(p.explored, 1u);  // every branch statically independent
  EXPECT_GT(p.pruned, 0u);
  EXPECT_TRUE(p.complete);
  EXPECT_FALSE(p.diverged());

  // Exhaustive mode actually runs the reorderings the pruner skipped and
  // must agree that none of them diverges — the pruning rule is sound here.
  ExploreOptions exhaustive;
  exhaustive.prune = false;
  exhaustive.max_schedules = 64;
  const ExploreResult e = analysis::schedules::explore(s, ctx, exhaustive);
  EXPECT_GT(e.explored, 1u);
  EXPECT_FALSE(e.diverged());
}

TEST(Explore, BoundTruncatesAndReportsIncomplete) {
  const Specification s = racy_spec();
  const Context ctx(s);
  ExploreOptions opts;
  opts.max_schedules = 2;
  const ExploreResult r = analysis::schedules::explore(s, ctx, opts);
  EXPECT_EQ(r.explored, 2u);
  EXPECT_FALSE(r.complete);
}

TEST(Explore, PoolAndSerialExplorationsAreIdentical) {
  const Specification s = racy_spec();
  const Context ctx(s);
  ExploreOptions serial;
  serial.max_schedules = 8;
  const ExploreResult a = analysis::schedules::explore(s, ctx, serial);

  batch::ThreadPool pool(4);
  ExploreOptions pooled = serial;
  pooled.pool = &pool;
  const ExploreResult b = analysis::schedules::explore(s, ctx, pooled);

  EXPECT_EQ(a.explored, b.explored);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.divergent, b.divergent);
  EXPECT_EQ(a.witness, b.witness);
  ASSERT_EQ(a.schedules.size(), b.schedules.size());
  for (size_t i = 0; i < a.schedules.size(); ++i) {
    EXPECT_EQ(a.schedules[i].picks, b.schedules[i].picks) << i;
    EXPECT_EQ(a.schedules[i].outcome, b.schedules[i].outcome) << i;
  }
}

TEST(Explore, EmitsStableTelemetryCounters) {
  telemetry::reset();
  telemetry::enable(/*stats=*/true, /*trace=*/false);
  const Specification s = racy_spec();
  const Context ctx(s);
  analysis::schedules::explore(s, ctx, {});
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::enable(false, false);
  ASSERT_EQ(snap.counters.count("sched.explored"), 1u);
  EXPECT_EQ(snap.counters.at("sched.explored").stability,
            telemetry::Stability::Stable);
  EXPECT_GE(snap.counters.at("sched.explored").value, 2u);
  ASSERT_EQ(snap.counters.count("sched.divergent"), 1u);
  EXPECT_GE(snap.counters.at("sched.divergent").value, 1u);
  ASSERT_EQ(snap.counters.count("sched.witnesses"), 1u);
  EXPECT_EQ(snap.spans.count("explore"), 1u);
}

// -- report integration (SA021) ----------------------------------------------

TEST(CheckSchedules, AttachesWitnessesToSa020AndAppendsSa021) {
  const Specification s = racy_spec();
  analysis::Report rep = analysis::analyze(s);
  ASSERT_TRUE(rep.has_errors());  // SA020 from the static pass

  analysis::ScheduleCheckOptions opts;
  analysis::check_schedules(s, rep, opts);
  EXPECT_TRUE(rep.schedules.ran);
  EXPECT_GE(rep.schedules.divergent, 1u);

  bool saw_sa021 = false;
  for (const analysis::Finding& f : rep.findings) {
    if (f.code == "SA020") EXPECT_FALSE(f.witness.empty());
    if (f.code == "SA021") {
      saw_sa021 = true;
      EXPECT_EQ(f.severity, Severity::Error);
      EXPECT_FALSE(f.witness.empty());
      EXPECT_NE(f.message.find("schedule-sensitive"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_sa021);
  EXPECT_NE(rep.json(s.name).find("\"schema\": \"specsyn-check-v1\""),
            std::string::npos);
  EXPECT_NE(rep.json(s.name).find("\"schedules\""), std::string::npos);
}

TEST(CheckSchedules, CleanSpecStaysWitnessFree) {
  const Specification s = testing::medical_like_spec();
  analysis::Report rep = analysis::analyze(s);
  analysis::check_schedules(s, rep, {});
  EXPECT_TRUE(rep.schedules.ran);
  EXPECT_EQ(rep.schedules.divergent, 0u);
  for (const analysis::Finding& f : rep.findings) {
    EXPECT_TRUE(f.witness.empty());
    EXPECT_NE(f.code, "SA021");
  }
}

// -- partition-consistency inclusion -----------------------------------------

TEST(Inclusion, IdenticalSpecsTriviallyHold) {
  const Specification s = testing::abc_spec(2);
  const InclusionResult r =
      analysis::schedules::check_inclusion(s, s, {});
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_EQ(r.original_explored, 1u);
}

TEST(Inclusion, RacyRefinementEscapesACleanOriginal) {
  // "Refined" introduces a second writer the original never had: its
  // winner=2 outcome is not in the original's (complete) outcome set.
  Specification original;
  original.name = "Racy";
  original.vars.push_back(var("winner", Type::u8(), 0, /*observable=*/true));
  original.top = leaf("WriterA", block(assign("winner", lit(1))));
  const Specification refined = racy_spec();

  const InclusionResult r =
      analysis::schedules::check_inclusion(original, refined, {});
  EXPECT_FALSE(r.holds);
  EXPECT_FALSE(r.inconclusive);
  EXPECT_NE(r.violation.find("picks:"), std::string::npos);
  EXPECT_GE(r.refined_explored, 2u);
}

TEST(Inclusion, ProjectionIgnoresRefinementScratchVariables) {
  // The refined side carries an extra (differently-valued) variable the
  // original does not declare; projection onto the original's names must
  // hide it.
  const Specification original = testing::abc_spec(2);
  Specification refined = testing::abc_spec(2);
  refined.vars.push_back(var("bus_reg", Type::u16(), 77, /*observable=*/true));
  const InclusionResult r =
      analysis::schedules::check_inclusion(original, refined, {});
  EXPECT_TRUE(r.holds) << r.violation;
}

}  // namespace
}  // namespace specsyn
