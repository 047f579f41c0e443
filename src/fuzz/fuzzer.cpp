#include "fuzz/fuzzer.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "batch/thread_pool.h"
#include "fuzz/generator.h"
#include "fuzz/reducer.h"
#include "printer/printer.h"
#include "support/json.h"
#include "telemetry/telemetry.h"

namespace specsyn::fuzz {

namespace {

std::string reproducer_text(const Specification& spec, uint64_t seed,
                            const OracleConfig& cfg,
                            const std::vector<FuzzIssue>& issues,
                            InjectedBug inject) {
  std::ostringstream os;
  os << "// specsyn fuzz reproducer\n";
  os << "// seed " << seed << "\n";
  os << "// config " << cfg.str() << "\n";
  if (inject != InjectedBug::None) {
    os << "// injected-bug " << to_string(inject) << "\n";
  }
  for (const FuzzIssue& i : issues) {
    os << "// oracle " << i.oracle << ": " << i.detail << "\n";
  }
  os << "\n" << print(spec);
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Everything one seed produces, computed in the (possibly parallel) sweep
/// phase. Side effects — file writes, log lines — happen later, in the
/// serial seed-order merge, so output is byte-identical for any job count.
struct SeedOutcome {
  uint64_t seed = 0;
  OracleConfig config;
  bool ok = true;
  bool injection_applied = false;
  std::vector<FuzzIssue> issues;
  std::string dump_text;        // pre-rendered --dump file (if dumping)
  std::string reproducer_body;  // pre-rendered reproducer (if failing)
  size_t spec_lines = 0;
  size_t reduced_from = 0;
};

SeedOutcome eval_seed(const FuzzOptions& opts, size_t index) {
  SeedOutcome o;
  o.seed = opts.start_seed + index;
  telemetry::Span tm_seed("fuzz.seed", telemetry::Stability::Stable,
                          telemetry::enabled()
                              ? "seed " + std::to_string(o.seed)
                              : std::string());
  GenOptions gen;
  gen.seed = o.seed;
  gen.stmt_budget = opts.stmt_budget;
  const Specification spec = generate_spec(gen);
  o.config = sample_config(o.seed);

  if (!opts.dump_dir.empty()) {
    o.dump_text = "// seed " + std::to_string(o.seed) + "\n// config " +
                  o.config.str() + "\n\n" + print(spec);
  }

  OracleOptions oopts;
  oopts.max_cycles = opts.max_cycles;
  oopts.inject = opts.inject;
  oopts.exec_tier = opts.exec_tier;
  oopts.explore_schedules = opts.explore_schedules;

  const OracleOutcome outcome = run_oracles(spec, o.config, oopts);
  o.injection_applied =
      outcome.injection_applied && opts.inject != InjectedBug::None;
  o.ok = outcome.ok();
  if (o.ok) return o;

  o.issues = outcome.issues;
  Specification repro = spec.clone();
  if (opts.reduce) {
    o.reduced_from = count_lines(spec);
    const FailPredicate still_fails = [&](const Specification& cand) {
      return !run_oracles(cand, o.config, oopts).ok();
    };
    ReduceStats stats;
    repro = reduce_spec(spec, still_fails, &stats);
    o.issues = run_oracles(repro, o.config, oopts).issues;
  }
  o.spec_lines = count_lines(repro);
  o.reproducer_body =
      reproducer_text(repro, o.seed, o.config, o.issues, opts.inject);
  return o;
}

}  // namespace

std::string FuzzReport::json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"seeds_run\": " << seeds_run << ",\n";
  os << "  \"injections_applied\": " << injections_applied << ",\n";
  os << "  \"failing\": " << failures.size() << ",\n";
  os << "  \"failures\": [\n";
  for (size_t i = 0; i < failures.size(); ++i) {
    const FuzzFailure& f = failures[i];
    os << "    {\"seed\": " << f.seed << ", \"config\": \""
       << json_escape(f.config.str()) << "\", \"reproducer\": \""
       << json_escape(f.reproducer_path) << "\", \"lines\": " << f.spec_lines
       << ", \"reduced_from\": " << f.reduced_from << ", \"issues\": [";
    for (size_t j = 0; j < f.issues.size(); ++j) {
      os << (j == 0 ? "" : ", ") << "{\"oracle\": \""
         << json_escape(f.issues[j].oracle) << "\", \"detail\": \""
         << json_escape(f.issues[j].detail) << "\"}";
    }
    os << "]}" << (i + 1 < failures.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log) {
  FuzzReport report;

  if (!opts.dump_dir.empty()) {
    std::filesystem::create_directories(opts.dump_dir);
  }

  // Phase 1: sweep the seeds. Each seed is an independent job.
  batch::ThreadPool pool(opts.jobs == 0 ? batch::ThreadPool::default_workers()
                                        : opts.jobs);
  std::vector<SeedOutcome> outcomes = batch::run_batch<SeedOutcome>(
      pool, opts.seeds,
      [&](size_t job, batch::WorkerContext&) { return eval_seed(opts, job); });

  // Phase 2: merge in seed order — every file write and log line happens
  // here, serially, so the output does not depend on the job count.
  for (SeedOutcome& o : outcomes) {
    ++report.seeds_run;
    if (o.injection_applied) ++report.injections_applied;
    if (!opts.dump_dir.empty()) {
      write_file(opts.dump_dir + "/spec_" + std::to_string(o.seed) + ".spec",
                 o.dump_text);
    }
    if (o.ok) continue;

    FuzzFailure fail;
    fail.seed = o.seed;
    fail.config = o.config;
    fail.issues = std::move(o.issues);
    fail.spec_lines = o.spec_lines;
    fail.reduced_from = o.reduced_from;

    std::filesystem::create_directories(opts.out_dir);
    fail.reproducer_path =
        opts.out_dir + "/repro_seed" + std::to_string(o.seed) + ".spec";
    write_file(fail.reproducer_path, o.reproducer_body);

    log << "FAIL seed " << o.seed << " [" << fail.config.str() << "]";
    if (opts.reduce) {
      log << " reduced " << fail.reduced_from << " -> " << fail.spec_lines
          << " lines";
    }
    log << " -> " << fail.reproducer_path << "\n";
    for (const FuzzIssue& issue : fail.issues) {
      log << "  " << issue.oracle << ": " << issue.detail << "\n";
    }
    report.failures.push_back(std::move(fail));
  }

  log << "fuzz: " << report.seeds_run << " seeds, " << report.failures.size()
      << " failing";
  if (opts.inject != InjectedBug::None) {
    log << ", injection applied on " << report.injections_applied << " seeds";
  }
  log << "\n";
  return report;
}

}  // namespace specsyn::fuzz
