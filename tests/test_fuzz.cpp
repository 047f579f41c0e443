// The differential fuzzer's own test suite: generator guarantees, oracle
// sensitivity (planted bugs must be caught), and reducer minimality.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/reducer.h"
#include "printer/printer.h"
#include "spec/mutate.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace specsyn::fuzz {
namespace {

// -- generator ---------------------------------------------------------------

TEST(FuzzGenerator, DeterministicPerSeed) {
  GenOptions a;
  a.seed = 7;
  EXPECT_EQ(print(generate_spec(a)), print(generate_spec(a)));
  GenOptions b;
  b.seed = 8;
  EXPECT_NE(print(generate_spec(a)), print(generate_spec(b)));
}

TEST(FuzzGenerator, SpecsAreValidAndTerminate) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GenOptions g;
    g.seed = seed;
    const Specification spec = generate_spec(g);
    DiagnosticSink diags;
    ASSERT_TRUE(validate(spec, diags)) << "seed " << seed << ": "
                                       << diags.str();
    const SimResult r = testing::run(spec);
    EXPECT_EQ(r.status, SimResult::Status::Quiescent) << "seed " << seed;
    EXPECT_TRUE(r.root_completed) << "seed " << seed;
  }
}

TEST(FuzzGenerator, SweepsInterestingShapes) {
  bool saw_conc = false, saw_proc = false, saw_loop = false, saw_guard = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    GenOptions g;
    g.seed = seed;
    Specification spec = generate_spec(g);
    saw_proc |= !spec.procedures.empty();
    spec.top->for_each([&](const Behavior& b) {
      saw_conc |= b.kind == BehaviorKind::Concurrent;
      for (const Transition& t : b.transitions) saw_guard |= t.guard != nullptr;
    });
    for_each_stmt(spec, [&](Stmt& s) {
      saw_loop |= s.kind == Stmt::Kind::While || s.kind == Stmt::Kind::Loop;
    });
  }
  EXPECT_TRUE(saw_conc);
  EXPECT_TRUE(saw_proc);
  EXPECT_TRUE(saw_loop);
  EXPECT_TRUE(saw_guard);
}

TEST(FuzzGenerator, BudgetScalesSpecSize) {
  GenOptions small;
  small.seed = 3;
  small.stmt_budget = 10;
  GenOptions large = small;
  large.stmt_budget = 160;
  EXPECT_LT(count_lines(print(generate_spec(small))),
            count_lines(print(generate_spec(large))));
}

// -- config sampling ---------------------------------------------------------

TEST(FuzzOracle, ConfigSamplerSweepsTheWholeMatrix) {
  std::set<ImplModel> models;
  std::set<ProtocolStyle> protocols;
  std::set<LeafScheme> schemes;
  std::set<bool> inlines;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const OracleConfig cfg = sample_config(seed);
    models.insert(cfg.model);
    protocols.insert(cfg.protocol);
    schemes.insert(cfg.scheme);
    inlines.insert(cfg.inline_protocols);
  }
  EXPECT_EQ(models.size(), 4u);
  EXPECT_EQ(protocols.size(), 2u);
  EXPECT_EQ(schemes.size(), 2u);
  EXPECT_EQ(inlines.size(), 2u);
}

// -- oracles on a clean tree -------------------------------------------------

TEST(FuzzOracle, CleanSweepOverSeeds) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GenOptions g;
    g.seed = seed;
    const Specification spec = generate_spec(g);
    const OracleOutcome out = run_oracles(spec, sample_config(seed));
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": ["
                          << out.issues.front().oracle << "] "
                          << out.issues.front().detail;
  }
}

TEST(FuzzOracle, ExplorationStartsFromTheInterpDiffRuns) {
  // Each side's recorded tree-tier interp-diff run is its exploration
  // baseline, so a clean pair simulates nothing beyond interp-diff's three
  // runs per spec.
  GenOptions g;
  g.seed = 1;
  const Specification spec = generate_spec(g);
  OracleOptions opts;
  opts.explore_schedules = 4;
  telemetry::reset();
  telemetry::enable(/*stats=*/true, /*trace=*/false);
  const OracleOutcome out = run_oracles(spec, sample_config(1), opts);
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::enable(false, false);
  telemetry::reset();
  EXPECT_TRUE(out.ok());
  ASSERT_EQ(snap.counters.count("fuzz.oracle.schedule-inclusion.pass"), 1u);
  ASSERT_EQ(snap.counters.count("sched.explored"), 1u);
  EXPECT_EQ(snap.counters.at("sched.explored").value, 2u);
  ASSERT_EQ(snap.counters.count("sim.runs"), 1u);
  EXPECT_EQ(snap.counters.at("sim.runs").value, 6u);
}

// -- planted bugs ------------------------------------------------------------

// Finds a seed where the requested injection has an applicable site and
// returns its outcome; the oracles must report the bug.
OracleOutcome outcome_with_bug(InjectedBug bug, uint64_t* used_seed) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    GenOptions g;
    g.seed = seed;
    OracleOptions opts;
    opts.inject = bug;
    OracleOutcome out = run_oracles(generate_spec(g), sample_config(seed), opts);
    if (out.injection_applied) {
      if (used_seed != nullptr) *used_seed = seed;
      return out;
    }
  }
  ADD_FAILURE() << "no seed offered an injection site for "
                << to_string(bug);
  return {};
}

TEST(FuzzOracle, DetectsDroppedDoneUpdate) {
  const OracleOutcome out = outcome_with_bug(InjectedBug::DropDoneUpdate, nullptr);
  EXPECT_FALSE(out.ok()) << "a dropped done-assert went unnoticed";
}

TEST(FuzzOracle, DetectsCorruptedDataUpdate) {
  // The first corruption site is not always on an executed path, so scan for
  // a seed where the oracles fire rather than requiring every seed to.
  bool caught = false;
  for (uint64_t seed = 1; seed <= 40 && !caught; ++seed) {
    GenOptions g;
    g.seed = seed;
    OracleOptions opts;
    opts.inject = InjectedBug::CorruptDataUpdate;
    const OracleOutcome out =
        run_oracles(generate_spec(g), sample_config(seed), opts);
    caught = out.injection_applied && !out.ok();
  }
  EXPECT_TRUE(caught) << "no seed caught the corrupted bus data";
}

// -- reducer -----------------------------------------------------------------

TEST(FuzzReducer, RejectsNonFailingInput) {
  GenOptions g;
  g.seed = 2;
  const Specification spec = generate_spec(g);
  EXPECT_THROW(reduce_spec(spec, [](const Specification&) { return false; }),
               SpecError);
}

TEST(FuzzReducer, ShrinksInjectedFailureToMinimalReproducer) {
  // A ~100-line failing spec must come out at <= 15 lines and still fail.
  GenOptions g;
  g.seed = 1;
  g.stmt_budget = 64;
  const Specification spec = generate_spec(g);
  ASSERT_GE(count_lines(print(spec)), 60u);

  const OracleConfig cfg = sample_config(1);
  OracleOptions opts;
  opts.inject = InjectedBug::DropDoneUpdate;
  const OracleOutcome before = run_oracles(spec, cfg, opts);
  ASSERT_TRUE(before.injection_applied);
  ASSERT_FALSE(before.ok());

  const FailPredicate still_fails = [&](const Specification& cand) {
    return !run_oracles(cand, cfg, opts).ok();
  };
  ReduceStats stats;
  const Specification reduced = reduce_spec(spec, still_fails, &stats);

  EXPECT_EQ(stats.initial_lines, count_lines(print(spec)));
  EXPECT_LE(stats.final_lines, 15u);
  EXPECT_LT(stats.final_lines, stats.initial_lines);
  EXPECT_TRUE(still_fails(reduced));
  DiagnosticSink diags;
  EXPECT_TRUE(validate(reduced, diags)) << diags.str();
}

TEST(FuzzReducer, DeterministicOutput) {
  GenOptions g;
  g.seed = 2;
  g.stmt_budget = 48;
  const Specification spec = generate_spec(g);
  const OracleConfig cfg = sample_config(2);
  OracleOptions opts;
  opts.inject = InjectedBug::DropDoneUpdate;
  ASSERT_TRUE(run_oracles(spec, cfg, opts).injection_applied);
  const FailPredicate pred = [&](const Specification& cand) {
    return !run_oracles(cand, cfg, opts).ok();
  };
  EXPECT_EQ(print(reduce_spec(spec, pred)), print(reduce_spec(spec, pred)));
}

// A hand-built spec and a syntactic failure — "a sequential `Top` with at
// least one arc and some leaf assigning x" — whose reduction takes every
// shrinking pass: B's deletion drops two arcs, statements go, the `if` is
// hoisted, one arc is deleted and the other's guard erased, and `y * 2`
// simplifies to `y` and then to 0 before the dead declarations go.
TEST(FuzzReducer, HandBuiltSpecTakesEveryPass) {
  using namespace build;
  Specification spec;
  spec.name = "R";
  spec.vars = {var("x"), var("y"), var("z")};
  spec.top = seq(
      "Top",
      behaviors(leaf("A", block(assign("y", lit(1)),
                                if_(gt(ref("y"), lit(0)),
                                    block(assign("x", mul(ref("y"), lit(2))))))),
                leaf("B", block(assign("z", lit(4)))),
                leaf("C", block(assign("z", lit(5))))),
      arcs(on("A", eq(ref("y"), lit(1)), "B"), on("B", "C"),
           on("A", gt(ref("z"), lit(2)), "C"),
           on("C", eq(ref("y"), lit(3)), "A")));
  const FailPredicate still_fails = [](const Specification& cand) {
    if (cand.top->name != "Top" || cand.top->transitions.empty()) return false;
    bool assigns_x = false;
    Specification walked = cand.clone();
    for_each_stmt(walked, [&](Stmt& s) {
      assigns_x |= s.kind == Stmt::Kind::Assign && s.target == "x";
    });
    return assigns_x;
  };
  ReduceStats stats;
  const Specification reduced = reduce_spec(spec, still_fails, &stats);
  EXPECT_EQ(print(reduced), R"(spec R;

var x : int32;

behavior Top : seq {
  behavior A : leaf {
    x := 0;
  }
  behavior C : leaf {
  }
  transitions {
    C -> A;
  }
}
)");
  EXPECT_LT(stats.final_lines, stats.initial_lines);
}

// -- driver ------------------------------------------------------------------

TEST(FuzzDriver, CleanRunReportsNoFailures) {
  FuzzOptions opts;
  opts.seeds = 25;
  opts.out_dir = ::testing::TempDir() + "fuzz_clean_out";
  std::ostringstream log;
  const FuzzReport report = run_fuzz(opts, log);
  EXPECT_EQ(report.seeds_run, 25u);
  EXPECT_TRUE(report.ok()) << log.str();
  EXPECT_NE(log.str().find("0 failing"), std::string::npos);
}

TEST(FuzzDriver, InjectedRunWritesReducedReproducers) {
  FuzzOptions opts;
  opts.seeds = 3;
  opts.reduce = true;
  opts.inject = InjectedBug::DropDoneUpdate;
  opts.out_dir = ::testing::TempDir() + "fuzz_inject_out";
  std::filesystem::remove_all(opts.out_dir);
  std::ostringstream log;
  const FuzzReport report = run_fuzz(opts, log);
  ASSERT_FALSE(report.ok()) << "planted bug went undetected:\n" << log.str();
  for (const FuzzFailure& f : report.failures) {
    EXPECT_TRUE(std::filesystem::exists(f.reproducer_path));
    EXPECT_LE(f.spec_lines, 15u) << f.reproducer_path;
    EXPECT_GT(f.reduced_from, f.spec_lines);
  }
}

}  // namespace
}  // namespace specsyn::fuzz
