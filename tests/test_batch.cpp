// Batch engine tests: thread-pool correctness (ordering, exactly-once
// claiming, per-worker contexts, exception discipline), the compiled-program
// cache, parallel equivalence, the sweep's run reuse under --verify, and the
// engine-level determinism contract (sweep and fuzz output identical for any
// worker count).
#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>

#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "fuzz/fuzzer.h"
#include "graph/access_graph.h"
#include "obs/bus_trace.h"
#include "partition/partition.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/program_cache.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn::batch {
namespace {

// -- thread pool -------------------------------------------------------------

TEST(ThreadPool, RunBatchOrdersResultsForAnyWorkerCount) {
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    const auto results = run_batch<size_t>(
        pool, 100, [](size_t job, WorkerContext&) { return job * job; });
    ASSERT_EQ(results.size(), 100u);
    for (size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
  }
}

TEST(ThreadPool, EveryJobRunsExactlyOnce) {
  // Workers race on one shared counter; no index may be claimed twice or
  // skipped.
  constexpr size_t kJobs = 10000;
  ThreadPool pool(3);
  std::mutex mu;
  std::set<size_t> seen;
  pool.for_each(kJobs, [&](size_t job, WorkerContext&) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(job).second) << "job " << job << " ran twice";
  });
  EXPECT_EQ(seen.size(), kJobs);
}

TEST(ThreadPool, WorkersGetDistinctArenas) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<ProgramCache*> caches;
  size_t max_worker = 0;
  pool.for_each(64, [&](size_t, WorkerContext& ctx) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_NE(ctx.programs, nullptr);
    caches.insert(ctx.programs);
    max_worker = std::max(max_worker, ctx.worker);
  });
  EXPECT_LE(caches.size(), 4u);  // one cache per worker, never more
  EXPECT_LT(max_worker, 4u);
}

TEST(ThreadPool, LowestFailingJobIndexWins) {
  ThreadPool pool(4);
  try {
    pool.for_each(50, [](size_t job, WorkerContext&) {
      if (job % 7 == 3) {  // 3, 10, 17, ... all throw; 3 must surface
        throw SpecError("job " + std::to_string(job) + " failed");
      }
    });
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "job 3 failed");
  }
}

TEST(ThreadPool, ReusableAfterBatchError) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(8,
                             [](size_t, WorkerContext&) {
                               throw SpecError("boom");
                             }),
               SpecError);
  const auto results =
      run_batch<int>(pool, 10, [](size_t job, WorkerContext&) {
        return static_cast<int>(job) + 1;
      });
  EXPECT_EQ(results[9], 10);
}

TEST(ThreadPool, NestedForEachIsRejectedNotDeadlocked) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.for_each(1,
                             [&](size_t, WorkerContext&) {
                               pool.for_each(1, [](size_t, WorkerContext&) {});
                             }),
               SpecError);
}

TEST(ThreadPool, ZeroJobsIsANoop) {
  ThreadPool pool(2);
  pool.for_each(0, [](size_t, WorkerContext&) { FAIL() << "ran a job"; });
}

// -- program cache -----------------------------------------------------------
// Only compiled tiers use the cache, so these tests pin the bytecode tier
// instead of inheriting the SPECSYN_EXEC_TIER default.

TEST(ProgramCache, ContentIdenticalSpecsShareOneProgram) {
  const Specification spec = testing::abc_spec(2);
  const Specification copy = spec.clone();
  ProgramCache cache;
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  Simulator s1(spec, cfg, &cache);
  Simulator s2(copy, cfg, &cache);  // distinct object, same content
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  const SimResult a = s1.run();
  const SimResult b = s2.run();
  const SimResult plain = testing::run(spec, cfg);
  EXPECT_EQ(a.end_time, plain.end_time);
  EXPECT_EQ(a.final_vars, plain.final_vars);
  EXPECT_EQ(b.final_vars, plain.final_vars);
  EXPECT_EQ(a.behavior_completions, plain.behavior_completions);
}

TEST(ProgramCache, LruEvictionAtCapacity) {
  ProgramCache cache(/*capacity=*/2);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  const Specification s1 = testing::abc_spec(0);
  const Specification s2 = testing::abc_spec(2);
  const Specification s3 = testing::abc_spec(5);
  { Simulator sim(s1, cfg, &cache); }
  { Simulator sim(s2, cfg, &cache); }
  { Simulator sim(s3, cfg, &cache); }  // evicts s1 (least recently used)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  { Simulator sim(s1, cfg, &cache); }  // gone -> miss again
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProgramCache, CachedProgramOutlivesEvictionWhileSimulatorUsesIt) {
  ProgramCache cache(/*capacity=*/1);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  const Specification s1 = testing::abc_spec(2);
  const Specification s2 = testing::abc_spec(5);
  Simulator sim(s1, cfg, &cache);        // holds the cached program alive
  { Simulator other(s2, cfg, &cache); }  // evicts s1's entry from the cache
  EXPECT_EQ(cache.stats().evictions, 1u);
  const SimResult r = sim.run();  // must still run on the evicted program
  EXPECT_EQ(r.final_vars, testing::run(s1, cfg).final_vars);
}

// -- parallel equivalence ----------------------------------------------------

TEST(ParallelEquivalence, MatchesSerialReport) {
  const Specification spec = testing::medical_like_spec();
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.auto_assign_vars(graph);
  RefineConfig rc;
  rc.model = ImplModel::Model2;
  const RefineResult refined = refine(part, graph, rc);

  EquivalenceOptions serial;
  serial.config.exec_tier = ExecTier::Bytecode;  // the cache needs a program
  EquivalenceOptions parallel = serial;
  parallel.parallel = true;
  ProgramCache cache;
  parallel.programs = &cache;

  const EquivalenceReport a = check_equivalence(spec, refined.refined, serial);
  const EquivalenceReport b =
      check_equivalence(spec, refined.refined, parallel);
  EXPECT_TRUE(a.equivalent);
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.mismatches, b.mismatches);
  EXPECT_EQ(a.original_result.end_time, b.original_result.end_time);
  EXPECT_EQ(a.refined_result.end_time, b.refined_result.end_time);
  EXPECT_EQ(a.refined_result.final_vars, b.refined_result.final_vars);
  EXPECT_GE(cache.stats().misses, 1u);
}

// -- sweep -------------------------------------------------------------------

TEST(Sweep, FullMatrixShape) {
  const auto matrix = full_matrix();
  ASSERT_EQ(matrix.size(), 32u);
  std::set<std::string> labels;
  for (const SweepPoint& p : matrix) labels.insert(p.label());
  EXPECT_EQ(labels.size(), 32u);  // all points distinct
  EXPECT_EQ(model_axis().size(), 4u);
  EXPECT_EQ(model_axis()[2].label(), "model3/hs/loop/inline");
}

TEST(Sweep, JsonIdenticalForAnyWorkerCount) {
  const Specification spec = testing::medical_like_spec();
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.auto_assign_vars(graph);
  const ProfileResult prof = profile_spec(spec);

  SweepOptions opts;
  opts.verify = true;
  ThreadPool serial(1);
  ThreadPool wide(4);
  const SweepReport a =
      run_sweep(spec, part, graph, prof, full_matrix(), opts, serial);
  const SweepReport b =
      run_sweep(spec, part, graph, prof, full_matrix(), opts, wide);
  EXPECT_EQ(a.json(), b.json());
  EXPECT_EQ(a.table(), b.table());

  ASSERT_EQ(a.rows.size(), 32u);
  for (const SweepRow& r : a.rows) {
    EXPECT_TRUE(r.refine_ok) << r.point.label() << ": " << r.error;
    EXPECT_TRUE(r.equivalent) << r.point.label();
    // Shared-procedure configs can carry pre-existing SA020 findings on
    // single-component partitions; the sweep just reports them. Inlined
    // configs must be verifier-clean.
    if (r.point.config.inline_protocols) {
      EXPECT_EQ(r.sa_errors, 0u) << r.point.label();
    }
  }
}

void expect_same_result(const SimResult& a, const SimResult& b) {
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

// A verified sweep simulates the original once and reuses each point's
// measured (BusTracer-observed) run as the refined side of the equivalence
// check. Both shortcuts must leave every verdict as a direct
// check_equivalence gives it, and observing a run must not change it.
TEST(Sweep, VerifyReusesRunsWithoutChangingVerdicts) {
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  const ProfileResult prof = profile_spec(spec);
  ThreadPool pool(2);
  for (int design : {1, 3}) {
    const PartitionerResult d = make_medical_design(spec, graph, design);
    for (ExecTier tier : {ExecTier::Bytecode, ExecTier::Lowered}) {
      SweepOptions opts;
      opts.verify = true;
      opts.exec_tier = tier;
      const SweepReport rep =
          run_sweep(spec, d.partition, graph, prof, full_matrix(), opts, pool);
      ASSERT_EQ(rep.rows.size(), 32u);
      for (const SweepRow& row : rep.rows) {
        SCOPED_TRACE("design " + std::to_string(design) + " " +
                     exec_tier_name(tier) + " " + row.point.label());
        ASSERT_TRUE(row.refine_ok) << row.error;
        const RefineResult r = refine(d.partition, graph, row.point.config);
        SimConfig sc;
        sc.exec_tier = tier;
        EquivalenceOptions eo;
        eo.config = sc;
        eo.compare_write_traces =
            keeps_write_sequences(row.point.config.protocol);
        EXPECT_EQ(row.equivalent,
                  check_equivalence(spec, r.refined, eo).equivalent);

        Simulator observed(r.refined, sc);
        BusTracer tracer(r.refined);
        observed.add_slot_observer(&tracer);
        const SimResult measured = observed.run();
        EXPECT_EQ(row.cycles, measured.end_time);
        expect_same_result(measured, Simulator(r.refined, sc).run());
      }
    }
  }
}

// Every validation shows in --stats: a verified point validates three
// times (refine's input, refine's output, the refined spec's SimPlan), and
// the original's SimPlan adds one. Schedule exploration validates nothing
// more, and the original is explored once per sweep, not once per point.
TEST(Sweep, VerifiedSweepCountsEveryValidation) {
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  const ProfileResult prof = profile_spec(spec);
  const PartitionerResult d = make_medical_design(spec, graph, 1);
  ThreadPool pool(2);
  SweepOptions opts;
  opts.verify = true;
  opts.explore_schedules = 4;
  telemetry::enable(/*stats=*/true, /*trace=*/false);
  telemetry::reset();
  const SweepReport rep =
      run_sweep(spec, d.partition, graph, prof, full_matrix(), opts, pool);
  const telemetry::Snapshot snap = telemetry::snapshot();
  telemetry::enable(false, false);
  telemetry::reset();
  ASSERT_EQ(rep.rows.size(), 32u);
  ASSERT_EQ(snap.spans.count("validate"), 1u);
  EXPECT_EQ(snap.spans.at("validate").count, 97u);
  ASSERT_EQ(snap.spans.count("explore"), 1u);
  EXPECT_EQ(snap.spans.at("explore").count, rep.rows.size() + 1);
  for (const SweepRow& row : rep.rows) {
    EXPECT_TRUE(row.sched_checked && row.sched_consistent)
        << row.point.label();
  }
}

TEST(Sweep, OriginalThatFailsToSimulateFailsEveryRow) {
  const Specification spec = testing::medical_like_spec();
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  part.auto_assign_vars(graph);
  const ProfileResult prof = profile_spec(spec);
  // Refinement still works from `part`, but the original handed to the
  // sweep has no top behavior, so the Simulator rejects it.
  Specification broken;
  broken.name = "broken";
  std::string expected;
  try {
    Simulator sim(broken);
  } catch (const SpecError& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  SweepOptions opts;
  opts.verify = true;
  ThreadPool pool(2);
  SweepReport rep;
  ASSERT_NO_THROW(
      rep = run_sweep(broken, part, graph, prof, full_matrix(), opts, pool));
  ASSERT_EQ(rep.rows.size(), 32u);
  for (const SweepRow& row : rep.rows) {
    EXPECT_FALSE(row.refine_ok) << row.point.label();
    EXPECT_EQ(row.error, expected) << row.point.label();
  }
}

// -- fuzz --jobs -------------------------------------------------------------

TEST(FuzzJobs, ReportAndLogIdenticalForAnyJobCount) {
  namespace fs = std::filesystem;
  const fs::path out = fs::temp_directory_path() / "specsyn_fuzz_jobs_test";
  fs::remove_all(out);

  fuzz::FuzzOptions opts;
  opts.seeds = 10;
  opts.out_dir = (out / "repro").string();
  opts.inject = fuzz::InjectedBug::CorruptDataUpdate;  // force failures
  opts.reduce = true;

  std::ostringstream log1, log4;
  opts.jobs = 1;
  const fuzz::FuzzReport r1 = fuzz::run_fuzz(opts, log1);
  opts.jobs = 4;
  const fuzz::FuzzReport r4 = fuzz::run_fuzz(opts, log4);

  EXPECT_EQ(log1.str(), log4.str());
  EXPECT_EQ(r1.json(), r4.json());
  EXPECT_EQ(r1.seeds_run, 10u);
  EXPECT_FALSE(r1.failures.empty());  // the planted bug must be caught
  fs::remove_all(out);
}

}  // namespace
}  // namespace specsyn::batch
