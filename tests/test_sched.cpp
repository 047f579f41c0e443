// Schedule seam + bounded exploration tests: recording a schedule must not
// perturb the default run, replaying a pick trace must be bit-identical on
// every execution tier, and the explorer must find exactly the divergences
// the static race relation predicts (and nothing on clean specs).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "sim/plan.h"
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

/// examples/specs/race.spec: two writers race on `winner`.
Specification race_spec() {
  std::ifstream in(std::string(SPECSYN_SOURCE_DIR) +
                   "/examples/specs/race.spec");
  return parse_or_die(std::string(std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()));
}

/// The full pick trace of the first schedule of race.spec the explorer finds
/// divergent.
std::vector<uint32_t> divergent_race_trace(const Specification& race) {
  const ExploreResult r =
      analysis::schedules::explore(race, Context(race), {});
  const auto divergent =
      std::find_if(r.schedules.begin(), r.schedules.end(),
                   [](const auto& sch) { return sch.divergent; });
  if (divergent == r.schedules.end()) return {};
  return divergent->picks;
}

// -- the pick-trace seam -----------------------------------------------------

TEST(SchedPolicy, FifoWithRecordingMatchesDefaultRunOnEveryTier) {
  const Specification s = racy_spec();
  for (ExecTier tier : kTiers) {
    SimConfig plain;
    plain.exec_tier = tier;
    const SimResult base = testing::run(s, plain);

    SimConfig rec = plain;
    rec.record_schedule = true;  // turns off bytecode statement chaining
    const SimResult recorded = testing::run(s, rec);
    expect_same_result(base, recorded);
    EXPECT_FALSE(recorded.sched_decisions.empty());
  }
}

TEST(SchedPolicy, ReplayIsDeterministicPerTrace) {
  const Specification race = race_spec();
  SimConfig cfg;
  cfg.sched_picks = divergent_race_trace(race);
  ASSERT_FALSE(cfg.sched_picks.empty());
  cfg.record_schedule = true;
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    cfg.exec_tier = tier;
    const SimResult a = testing::run(race, cfg);
    const SimResult b = testing::run(race, cfg);
    expect_same_result(a, b);
    EXPECT_EQ(a.sched_decisions, b.sched_decisions);
  }
}

TEST(SchedPolicy, SomeTraceFlipsTheRacyOutcome) {
  const Specification race = race_spec();
  SimConfig cfg;
  cfg.sched_picks = divergent_race_trace(race);
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    cfg.exec_tier = tier;
    SimConfig canonical;
    canonical.exec_tier = tier;
    EXPECT_NE(testing::run(race, cfg).final_vars.at("winner"),
              testing::run(race, canonical).final_vars.at("winner"));
  }
}

TEST(SchedPolicy, ReplayReproducesAnExploredRunBitIdenticallyOnEveryTier) {
  // Record the explored divergent run, then replay the picks it actually
  // took: every tier must take the same decisions to the same result.
  const Specification race = race_spec();
  SimConfig rec_cfg;
  rec_cfg.sched_picks = divergent_race_trace(race);
  rec_cfg.record_schedule = true;
  const SimResult recorded = testing::run(race, rec_cfg);

  SimConfig replay_cfg;
  for (const SchedDecision& d : recorded.sched_decisions) {
    replay_cfg.sched_picks.push_back(d.pick);
  }
  replay_cfg.record_schedule = true;
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    replay_cfg.exec_tier = tier;
    const SimResult replayed = testing::run(race, replay_cfg);
    expect_same_result(recorded, replayed);
    EXPECT_EQ(recorded.sched_decisions, replayed.sched_decisions);
  }
}

TEST(SchedPolicy, ReplayPickOutOfRangeThrows) {
  SimConfig cfg;
  cfg.sched_picks = {99};
  EXPECT_THROW(testing::run(racy_spec(), cfg), SpecError);
}

TEST(SchedPolicy, ExhaustedReplayTraceContinuesCanonically) {
  // Canonical picks past the end of a trace are the canonical schedule: an
  // all-zero trace, recorded or not, matches the default run.
  const Specification s = racy_spec();
  SimConfig cfg;
  cfg.sched_picks = {0, 0};
  expect_same_result(testing::run(s), testing::run(s, cfg));
  cfg.record_schedule = true;
  expect_same_result(testing::run(s), testing::run(s, cfg));
}

// -- scheduler contract ------------------------------------------------------
//
// The (time, seq) order pinned directly, with expectations derived by hand
// from the cost model (a statement costs one cycle, `delay N` max(N, 1), a
// `<=` commits one cycle later, before that instant's steps). t=0 steps the
// root, which forks A and B; t=1 starts both (neither has started a behavior
// yet, hence "<none>"). A process stepped earlier in an instant is re-armed
// earlier, so it keeps its place in the next instant's ready list.

/// A decision whose ready set is given by behavior name; "<none>" (no such
/// behavior) becomes SpecIndex::kNone, the id of a process that has not
/// started its first behavior.
SchedDecision decision(const SpecIndex& ids, uint64_t time, uint32_t pick,
                       std::initializer_list<const char*> ready) {
  SchedDecision d;
  d.time = time;
  d.pick = pick;
  for (const char* name : ready) d.ready.push_back(ids.id_of(name));
  return d;
}

SimResult run_recorded(const Specification& s, ExecTier tier,
                       std::vector<uint32_t> picks = {}) {
  SimConfig cfg;
  cfg.exec_tier = tier;
  cfg.record_schedule = true;
  cfg.sched_picks = std::move(picks);
  return testing::run(s, cfg);
}

/// A's `delay 2` at t=2 lands at t=4 from the overflow heap; B's third
/// statement lands at t=4 from the bucket it was re-armed into at t=3. A was
/// scheduled first, so it heads the t=4 ready list and B's write lands last.
Specification overflow_vs_bucket_spec() {
  return parse_or_die(
      "spec OverflowVsBucket;\n"
      "observable var x : int8;\n"
      "var y : int8;\n"
      "behavior Top : conc {\n"
      "  behavior A : leaf { delay 2; x := 1; }\n"
      "  behavior B : leaf { y := 1; y := 2; x := 2; }\n"
      "}\n");
}

TEST(SchedContract, OverflowStepsPrecedeBucketStepsOnEveryTier) {
  const Specification s = overflow_vs_bucket_spec();
  const SpecIndex ids(s);
  const std::vector<SchedDecision> expected = {
      decision(ids, 1, 0, {"<none>", "<none>"}),
      decision(ids, 2, 0, {"A", "B"}),  // A: delay 2 (to t=4), B: y := 1
      // t=3: B alone (y := 2); no decision
      decision(ids, 4, 0, {"A", "B"}),  // A from overflow, B from bucket
      decision(ids, 5, 0, {"A", "B"}),  // both bodies end
      decision(ids, 6, 0, {"A", "B"}),  // both complete; the join wakes Top
  };
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    const SimResult r = run_recorded(s, tier);
    EXPECT_EQ(r.sched_decisions, expected);
    EXPECT_EQ(r.final_vars.at("x"), 2u);
    EXPECT_EQ(r.observable_writes,
              (std::vector<WriteEvent>{{"x", 1, 4}, {"x", 2, 4}}));
    EXPECT_EQ(r.end_time, 7u);  // t=6 Top leaves its join, t=7 completes
    EXPECT_EQ(r.steps, 14u);
    SimConfig unrecorded;  // the bytecode tier chains statements here
    unrecorded.exec_tier = tier;
    expect_same_result(r, testing::run(s, unrecorded));
  }
}

TEST(SchedContract, ReplayPickOfTheBucketStepFlipsTheOutcome) {
  const Specification s = overflow_vs_bucket_spec();
  // Decision 2 is t=4's [A, B]; pick 1 steps B first, so A writes last and
  // the pair keeps the order [B, A] from then on.
  const SpecIndex ids(s);
  const std::vector<SchedDecision> expected = {
      decision(ids, 1, 0, {"<none>", "<none>"}),
      decision(ids, 2, 0, {"A", "B"}),
      decision(ids, 4, 1, {"A", "B"}),
      decision(ids, 5, 0, {"B", "A"}),
      decision(ids, 6, 0, {"B", "A"}),
  };
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    const SimResult r = run_recorded(s, tier, {0, 0, 1});
    EXPECT_EQ(r.sched_decisions, expected);
    EXPECT_EQ(r.final_vars.at("x"), 1u);
    EXPECT_EQ(r.observable_writes,
              (std::vector<WriteEvent>{{"x", 2, 4}, {"x", 1, 4}}));
  }
}

TEST(SchedContract, DelayZeroCostsOneCycleLikeAStatement) {
  // `delay 0` re-arms A into t=3's bucket ahead of B, exactly as a
  // statement would: both writes land at t=3, A's first.
  const Specification s = parse_or_die(
      "spec DelayZero;\n"
      "observable var x : int8;\n"
      "var y : int8;\n"
      "behavior Top : conc {\n"
      "  behavior A : leaf { delay 0; x := 1; }\n"
      "  behavior B : leaf { y := 1; x := 2; }\n"
      "}\n");
  const SpecIndex ids(s);
  const std::vector<SchedDecision> expected = {
      decision(ids, 1, 0, {"<none>", "<none>"}),
      decision(ids, 2, 0, {"A", "B"}),
      decision(ids, 3, 0, {"A", "B"}),
      decision(ids, 4, 0, {"A", "B"}),
      decision(ids, 5, 0, {"A", "B"}),
  };
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    const SimResult r = run_recorded(s, tier);
    EXPECT_EQ(r.sched_decisions, expected);
    EXPECT_EQ(r.observable_writes,
              (std::vector<WriteEvent>{{"x", 1, 3}, {"x", 2, 3}}));
    EXPECT_EQ(r.end_time, 6u);
  }
}

TEST(SchedContract, SameInstantCommitWakesQueueBehindTheBucket) {
  // B's `s <= 1` at t=2 commits at t=3 before any step, waking A, which
  // blocked at t=2. The wake is scheduled at t=3, after B was re-armed at
  // t=2, so the t=3 ready list is [B, A]: B writes x first, and A passes
  // its wait at t=3 and writes x at t=4.
  const Specification s = parse_or_die(
      "spec CommitWake;\n"
      "observable var x : int8;\n"
      "signal s : bit;\n"
      "behavior Top : conc {\n"
      "  behavior A : leaf { wait s == 1; x := 1; }\n"
      "  behavior B : leaf { s <= 1; x := 2; }\n"
      "}\n");
  const SpecIndex ids(s);
  const std::vector<SchedDecision> expected = {
      decision(ids, 1, 0, {"<none>", "<none>"}),
      decision(ids, 2, 0, {"A", "B"}),  // A blocks, B schedules the commit
      decision(ids, 3, 0, {"B", "A"}),  // B from the bucket, then the woken A
      decision(ids, 4, 0, {"B", "A"}),
      decision(ids, 5, 0, {"B", "A"}),  // B completes, A's body ends
      // t=6: A alone completes and the join wakes Top
  };
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    const SimResult r = run_recorded(s, tier);
    EXPECT_EQ(r.sched_decisions, expected);
    EXPECT_EQ(r.final_vars.at("x"), 1u);
    EXPECT_EQ(r.observable_writes,
              (std::vector<WriteEvent>{{"x", 2, 3}, {"x", 1, 4}}));
    EXPECT_EQ(r.end_time, 7u);
  }
}

TEST(SchedContract, ReadyNamesTheCompositeUntilItsNextChildStarts) {
  // A sequential composite pushes its next child's Behavior frame one step
  // before the child starts (t=2 enters P1, t=6 enters P2); in between the
  // process is attributed to the composite itself. P2 then blocks forever,
  // and the blocked-process report names it.
  const Specification s = parse_or_die(
      "spec SeqPair;\n"
      "observable var x : int8;\n"
      "signal go : bit;\n"
      "behavior Top : conc {\n"
      "  behavior P : seq {\n"
      "    behavior P1 : leaf { x := 1; }\n"
      "    behavior P2 : leaf { wait go == 1; }\n"
      "  }\n"
      "  behavior Q : seq {\n"
      "    behavior Q1 : leaf { x := 2; }\n"
      "    behavior Q2 : leaf { x := 3; }\n"
      "  }\n"
      "}\n");
  const SpecIndex ids(s);
  const std::vector<SchedDecision> expected = {
      decision(ids, 1, 0, {"<none>", "<none>"}),
      decision(ids, 2, 0, {"P", "Q"}),    // both push their Seq frames
      decision(ids, 3, 0, {"P", "Q"}),    // P1 and Q1 pushed, not started
      decision(ids, 4, 0, {"P1", "Q1"}),  // x := 1, x := 2
      decision(ids, 5, 0, {"P1", "Q1"}),  // both bodies end
      decision(ids, 6, 0, {"P1", "Q1"}),  // both complete; P2, Q2 pushed
      decision(ids, 7, 0, {"P", "Q"}),
      decision(ids, 8, 0, {"P2", "Q2"}),  // P2 blocks, x := 3
      // t=9..11: Q alone finishes; the run quiesces with P2 blocked
  };
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    const SimResult r = run_recorded(s, tier);
    EXPECT_EQ(r.sched_decisions, expected);
    EXPECT_EQ(r.final_vars.at("x"), 3u);
    EXPECT_FALSE(r.root_completed);
    ASSERT_EQ(r.blocked.size(), 2u);
    EXPECT_EQ(r.blocked[0].behavior, "Top");
    EXPECT_EQ(r.blocked[0].waiting_on, "<join>");
    EXPECT_EQ(r.blocked[1].behavior, "P2");
    EXPECT_EQ(r.blocked[1].waiting_on, "go == 1");
  }
}

// -- witness strings ---------------------------------------------------------

TEST(Witness, FormatAndApplyRoundTrip) {
  const std::vector<uint32_t> picks = {1, 0, 2};
  const std::string w = format_witness(picks);
  EXPECT_EQ(w, "picks:1,0,2");
  SimConfig cfg;
  ASSERT_TRUE(apply_witness(w, &cfg));
  EXPECT_EQ(cfg.sched_picks, picks);

  // Trailing canonical picks are dropped: replay treats an exhausted trace
  // as canonical, so the shorter witness names the same run.
  EXPECT_EQ(format_witness({1, 0, 0}), "picks:1");
  EXPECT_EQ(format_witness({0, 0}), "picks:");

  // format_witness({}) == "picks:" is the (legal) empty trace: canonical
  // replay.
  SimConfig empty;
  empty.sched_picks = {7};
  ASSERT_TRUE(apply_witness(format_witness({}), &empty));
  EXPECT_TRUE(empty.sched_picks.empty());
}

TEST(Witness, MalformedInputsAreRejectedAndLeaveConfigUntouched) {
  for (const char* bad : {"", "picks:1,,2", "picks:1,", "picks:x",
                          "seed:", "seed:12x", "seed:42", "frobnicate",
                          "picks:99999999999999999999999"}) {
    SimConfig cfg;
    cfg.sched_picks = {1};
    EXPECT_FALSE(apply_witness(bad, &cfg)) << bad;
    EXPECT_EQ(cfg.sched_picks, std::vector<uint32_t>{1}) << bad;
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

TEST(Explore, RefusesABaselineThatWasNotRecorded) {
  // Without its decision record the baseline would offer no branch, and the
  // exploration would call one schedule complete.
  const Specification s = racy_spec();
  const Context ctx(s);
  const ExploreOptions opts;
  const auto plan = SimPlan::build(s, opts.config.exec_tier);
  const SimResult unrecorded = Simulator(plan, opts.config).run();
  EXPECT_THROW(analysis::schedules::explore(ctx, plan, opts, unrecorded),
               SpecError);
  const ExploreResult original = analysis::schedules::explore(s, ctx, opts);
  EXPECT_THROW(analysis::schedules::check_inclusion(s, original, ctx, plan,
                                                    opts, unrecorded),
               SpecError);
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

/// The schedule-tree shape: explored pick traces are pairwise distinct, the
/// baseline is canonical, and every other trace is an earlier schedule's
/// trace up to some decision, another pick there, and canonical picks (0)
/// after it.
void expect_schedule_tree(const ExploreResult& r) {
  ASSERT_FALSE(r.schedules.empty());
  const auto canonical = [](auto first, auto last) {
    return std::all_of(first, last, [](uint32_t p) { return p == 0; });
  };
  const std::vector<uint32_t>& base = r.schedules[0].picks;
  EXPECT_TRUE(canonical(base.begin(), base.end()));
  std::set<std::vector<uint32_t>> seen;
  for (size_t i = 0; i < r.schedules.size(); ++i) {
    const std::vector<uint32_t>& t = r.schedules[i].picks;
    EXPECT_TRUE(seen.insert(t).second) << "schedule " << i << " repeats";
    bool branched = i == 0;
    for (size_t j = 0; j < i && !branched; ++j) {
      const std::vector<uint32_t>& parent = r.schedules[j].picks;
      const size_t n = std::min(t.size(), parent.size());
      const size_t d =
          std::mismatch(t.begin(), t.begin() + n, parent.begin()).first -
          t.begin();
      branched = d < n && canonical(t.begin() + d + 1, t.end());
    }
    EXPECT_TRUE(branched) << "schedule " << i
                          << " is no one-pick branch of an earlier schedule";
  }
}

TEST(Explore, ExploredSchedulesFormATreeOfDistinctTracesOnEveryTier) {
  const Specification race = race_spec();
  const Context race_ctx(race);
  const Specification indep = independent_spec();
  const Context indep_ctx(indep);
  std::vector<std::vector<uint32_t>> race_traces;
  for (ExecTier tier : kTiers) {
    SCOPED_TRACE(exec_tier_name(tier));
    ExploreOptions opts;
    opts.max_schedules = 64;
    opts.config.exec_tier = tier;
    const ExploreResult r = analysis::schedules::explore(race, race_ctx, opts);
    EXPECT_EQ(r.explored, 16u);
    EXPECT_EQ(r.pruned, 1u);
    EXPECT_EQ(r.divergent, 8u);
    EXPECT_TRUE(r.complete);
    expect_schedule_tree(r);
    std::vector<std::vector<uint32_t>> traces;
    for (const auto& sch : r.schedules) traces.push_back(sch.picks);
    if (race_traces.empty()) race_traces = traces;
    EXPECT_EQ(traces, race_traces);  // the same tree on every tier

    opts.prune = false;
    const ExploreResult e =
        analysis::schedules::explore(indep, indep_ctx, opts);
    EXPECT_GT(e.explored, 1u);
    EXPECT_EQ(e.pruned, 0u);
    EXPECT_FALSE(e.diverged());
    expect_schedule_tree(e);
  }
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
  const Context ctx(s);
  analysis::Report rep = analysis::analyze(ctx);
  ASSERT_TRUE(rep.has_errors());  // SA020 from the static pass

  ExploreOptions opts;
  analysis::check_schedules(ctx, rep, opts);
  EXPECT_TRUE(rep.schedules.ran);
  EXPECT_GE(rep.schedules.divergent, 1u);

  bool saw_sa021 = false;
  for (const analysis::Finding& f : rep.findings) {
    if (f.code == "SA020") {
      EXPECT_FALSE(f.witness.empty());
    }
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
  const Context ctx(s);
  analysis::Report rep = analysis::analyze(ctx);
  analysis::check_schedules(ctx, rep, ExploreOptions{});
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
