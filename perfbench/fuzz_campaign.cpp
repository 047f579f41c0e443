// fuzz_campaign: one round is one fuzz::run_fuzz call over a fixed block of
// seeds starting at the workload seed, with the fuzzer's default options
// (statement budget 40, 4 explored schedules) and one job per worker. One
// item is one seed. The same sim layer as medical_sweep used the opposite
// way: many tiny specs, where compile and construct, the generator,
// print/parse round trips and schedule inclusion carry the cost.
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/thread_pool.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/rng.h"
#include "graph/access_graph.h"
#include "parser/parser.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/program_cache.h"
#include "support/diagnostics.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace specsyn;

/// Seeds per round: enough that one round averages over the generator's
/// spread of spec shapes, small enough for tens of rounds per run.
constexpr size_t kSeeds = 800;

struct SeedOutcome {
  std::vector<std::string> issues;
  uint64_t refined_lines = 0;
  uint64_t refined_cycles = 0;
};

std::string fingerprint_of(size_t seeds, const std::vector<uint64_t>& failing) {
  std::string out = "seeds=" + std::to_string(seeds) + " failing:";
  for (uint64_t s : failing) {
    out += ' ';
    out += std::to_string(s);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The oracle harness (fuzz/oracle.cpp run_oracles) spelled out one module
// call per span, so the traced round can split fuzz.oracles_ms by layer. It
// must do the same work: the same checks, in the same order, stopping where
// run_oracles stops.

bool validates(const Specification& spec) {
  trace::Span s("spec.validate");
  DiagnosticSink diags;
  return validate(spec, diags);
}

std::string printed(const Specification& spec) {
  trace::Span s("printer");
  return print(spec);
}

/// Returns the printed spec's line count (0 when the check stopped early).
uint64_t check_roundtrip(const Specification& spec, const char* oracle,
                         std::vector<std::string>& issues) {
  const std::string text = printed(spec);
  const uint64_t lines = count_lines(text);
  trace::count("printer.lines", static_cast<double>(lines));
  std::optional<Specification> reparsed;
  {
    trace::Span s("parser");
    DiagnosticSink diags;
    reparsed = parse_spec(text, diags);
  }
  trace::count("parser.bytes", static_cast<double>(text.size()));
  if (!reparsed) {
    issues.push_back(std::string(oracle) + ": does not reparse");
    return lines;
  }
  if (!validates(*reparsed)) {
    issues.push_back(std::string(oracle) + ": reparse does not validate");
    return lines;
  }
  const std::string again = printed(*reparsed);
  trace::count("printer.lines", static_cast<double>(count_lines(again)));
  if (again != text) issues.push_back(std::string(oracle) + ": not a fixpoint");
  return lines;
}

SimResult simulate(const Specification& spec, const SimConfig& cfg,
                   ProgramCache* programs) {
  std::unique_ptr<Simulator> sim;
  {
    trace::Span s("sim.construct");
    sim = std::make_unique<Simulator>(spec, cfg, programs);
  }
  trace::Span s("sim.run");
  return sim->run();
}

bool same_result(const SimResult& a, const SimResult& b) {
  return a.status == b.status && a.end_time == b.end_time &&
         a.steps == b.steps && a.root_completed == b.root_completed &&
         a.final_vars == b.final_vars &&
         a.observable_writes == b.observable_writes &&
         a.behavior_completions == b.behavior_completions;
}

void check_interp_diff(const Specification& spec, const char* oracle,
                       uint64_t max_cycles, ProgramCache* programs,
                       std::vector<std::string>& issues) {
  SimConfig lowered;
  lowered.exec_tier = ExecTier::Lowered;
  lowered.max_cycles = max_cycles;
  SimConfig legacy = lowered;
  legacy.exec_tier = ExecTier::Tree;
  SimConfig bytecode = lowered;
  bytecode.exec_tier = ExecTier::Bytecode;
  const SimResult a = simulate(spec, lowered, programs);
  const SimResult b = simulate(spec, legacy, nullptr);
  const SimResult c = simulate(spec, bytecode, programs);
  if (!same_result(a, b)) issues.push_back(std::string(oracle) + ": lowered vs tree");
  if (!same_result(c, a)) issues.push_back(std::string(oracle) + ": bytecode vs lowered");
}

void check_analysis(const Specification& spec, const char* oracle,
                    std::vector<std::string>& issues) {
  trace::Span s("analysis");
  const analysis::Report rep = analysis::analyze(spec);
  trace::count("analysis.findings", static_cast<double>(rep.findings.size()));
  if (!rep.clean()) {
    issues.push_back(std::string(oracle) + ": " + rep.findings.front().str());
  }
}

/// fuzz/oracle.cpp build_partition: leaves spread over the sampled
/// components by the config's salt, components 0 and 1 never empty.
Partition build_partition(const Specification& spec, const AccessGraph& graph,
                          const fuzz::OracleConfig& cfg) {
  Partition part(spec, cfg.components == 2 ? Allocation::proc_plus_asic()
                                           : Allocation::asics(cfg.components));
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  fuzz::Rng rng(cfg.partition_salt);
  std::vector<size_t> comp_of(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    comp_of[i] = rng.below(cfg.components);
  }
  if (leaves.size() >= 2) {
    bool has0 = false, has1 = false;
    for (size_t c : comp_of) {
      has0 |= c == 0;
      has1 |= c == 1;
    }
    if (!has0) comp_of[0] = 0;
    if (!has1) comp_of[comp_of[0] == 0 && leaves.size() > 1 ? 1 : 0] = 1;
  }
  for (size_t i = 0; i < leaves.size(); ++i) {
    part.assign_behavior(leaves[i], comp_of[i]);
  }
  part.auto_assign_vars(graph);
  return part;
}

void run_oracles_traced(const Specification& spec,
                        const fuzz::OracleConfig& cfg,
                        const fuzz::FuzzOptions& fo, ProgramCache* programs,
                        bool parallel_equivalence, SeedOutcome& o) {
  std::vector<std::string>& issues = o.issues;
  if (!validates(spec)) {
    issues.push_back("generator: spec does not validate");
    return;
  }
  check_roundtrip(spec, "roundtrip", issues);
  check_interp_diff(spec, "interp-diff", fo.max_cycles, programs, issues);
  check_analysis(spec, "analysis-original", issues);

  Specification refined;
  try {
    AccessGraph graph;
    {
      trace::Span s("graph");
      graph = build_access_graph(spec);
    }
    std::optional<Partition> part;
    {
      trace::Span s("partition");
      part.emplace(build_partition(spec, graph, cfg));
    }
    RefineConfig rc;
    rc.model = cfg.model;
    rc.protocol = cfg.protocol;
    rc.leaf_scheme = cfg.scheme;
    rc.inline_protocols = cfg.inline_protocols;
    trace::Span s("refine");
    RefineResult r = refine(*part, graph, rc);
    trace::count("refine.behaviors_out",
                 static_cast<double>(r.stats.behaviors));
    refined = std::move(r.refined);
  } catch (const SpecError& e) {
    issues.push_back(std::string("refiner: ") + e.what());
    return;
  }
  if (!validates(refined)) {
    issues.push_back("refiner: refined spec does not validate");
    return;
  }

  o.refined_lines = check_roundtrip(refined, "roundtrip-refined", issues);
  check_interp_diff(refined, "interp-diff-refined", fo.max_cycles, programs,
                    issues);

  EquivalenceOptions eo;
  eo.config.max_cycles = fo.max_cycles;
  eo.compare_write_traces = cfg.protocol == ProtocolStyle::FullHandshake;
  eo.parallel = parallel_equivalence;
  eo.programs = programs;
  {
    trace::Span s("sim.equivalence");
    const EquivalenceReport rep = check_equivalence(spec, refined, eo);
    o.refined_cycles = rep.refined_result.end_time;
    if (!rep.equivalent) issues.push_back("equivalence: " + rep.summary());
  }
  check_analysis(refined, "analysis-refined", issues);

  if (fo.explore_schedules > 0) {
    trace::Span s("schedules");
    try {
      analysis::schedules::ExploreOptions xo;
      xo.max_schedules = fo.explore_schedules;
      xo.config.max_cycles = fo.max_cycles;
      xo.compare_write_traces = cfg.protocol == ProtocolStyle::FullHandshake;
      const analysis::schedules::InclusionResult inc =
          analysis::schedules::check_inclusion(spec, refined, xo);
      if (!inc.holds) issues.push_back("schedule-inclusion: " + inc.violation);
    } catch (const SpecError& e) {
      issues.push_back(std::string("schedule-inclusion: ") + e.what());
    }
  }
}

class FuzzCampaign final : public Workload {
 public:
  FuzzCampaign(uint64_t seed, size_t workers) {
    opts_.start_seed = seed;
    opts_.seeds = kSeeds;
    opts_.jobs = workers;
    opts_.out_dir = ".bench_out/fuzz-failures";
  }

  /// Generates and validates every seed's spec once, so a seed block the
  /// generator cannot serve is refused before any round runs.
  void setup() override {
    invalid_.clear();
    for (size_t i = 0; i < kSeeds; ++i) {
      fuzz::GenOptions gen;
      gen.seed = opts_.start_seed + i;
      gen.stmt_budget = opts_.stmt_budget;
      const Specification spec = fuzz::generate_spec(gen);
      DiagnosticSink diags;
      if (!validate(spec, diags)) invalid_.push_back(gen.seed);
    }
  }

  [[nodiscard]] size_t setup_reps() const override { return 20; }

  /// A run_fuzz round, then the spelled-out oracles once more with tracing
  /// off: they report the refined lines and cycles run_fuzz does not expose,
  /// and their verdicts must match run_fuzz's.
  RoundResult warmup() override {
    RoundResult out = round(false);
    for (uint64_t s : invalid_) {
      out.fail("seed " + std::to_string(s) + ": generated spec is invalid");
    }
    const RoundResult spelled = round(true);
    out.refined_lines = spelled.refined_lines;
    out.sim_cycles = spelled.sim_cycles;
    if (spelled.fingerprint != out.fingerprint) {
      out.fail("spelled-out oracles disagree with run_fuzz: " +
               spelled.fingerprint + " vs " + out.fingerprint);
    }
    return out;
  }

  RoundResult round(bool traced) override {
    return traced ? traced_round() : fuzz_round();
  }

 private:
  RoundResult fuzz_round() {
    std::ostringstream log;
    const fuzz::FuzzReport report = fuzz::run_fuzz(opts_, log);
    RoundResult out;
    out.items = report.seeds_run;
    std::vector<uint64_t> failing;
    for (const fuzz::FuzzFailure& f : report.failures) {
      failing.push_back(f.seed);
      out.fail("seed " + std::to_string(f.seed) + " [" + f.config.str() +
               "]: " + (f.issues.empty() ? "" : f.issues.front().oracle));
    }
    if (!report.ok() && out.failed == 0) out.fail("FuzzReport::ok() is false");
    out.fingerprint = fingerprint_of(report.seeds_run, failing);
    return out;
  }

  /// run_fuzz's seed sweep (fuzz/fuzzer.cpp) with the oracles spelled out.
  RoundResult traced_round() const {
    std::vector<SeedOutcome> outcomes;
    if (opts_.jobs <= 1) {
      ProgramCache programs;
      for (size_t i = 0; i < kSeeds; ++i) {
        outcomes.push_back(traced_seed(i, &programs, true, 0));
      }
    } else {
      batch::ThreadPool pool(opts_.jobs);
      trace::Span span("batch");
      trace::count("batch.jobs", static_cast<double>(kSeeds));
      const uint64_t parent = span.id();
      outcomes = batch::run_batch<SeedOutcome>(
          pool, kSeeds, [&](size_t job, batch::WorkerContext& ctx) {
            return traced_seed(job, ctx.programs, false, parent);
          });
    }
    RoundResult out;
    std::vector<uint64_t> failing;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const SeedOutcome& o = outcomes[i];
      ++out.items;
      out.refined_lines += o.refined_lines;
      out.sim_cycles += o.refined_cycles;
      if (o.issues.empty()) continue;
      failing.push_back(opts_.start_seed + i);
      out.fail("seed " + std::to_string(opts_.start_seed + i) + ": " +
               o.issues.front());
    }
    out.fingerprint = fingerprint_of(outcomes.size(), failing);
    return out;
  }

  SeedOutcome traced_seed(size_t index, ProgramCache* programs,
                          bool parallel_equivalence, uint64_t parent) const {
    trace::Span job("job", parent);
    const uint64_t seed = opts_.start_seed + index;
    std::optional<Specification> spec;
    fuzz::OracleConfig cfg;
    {
      trace::Span s("fuzz.generate");
      fuzz::GenOptions gen;
      gen.seed = seed;
      gen.stmt_budget = opts_.stmt_budget;
      spec.emplace(fuzz::generate_spec(gen));
      cfg = fuzz::sample_config(seed);
    }
    SeedOutcome o;
    trace::Span s("fuzz.oracles");
    run_oracles_traced(*spec, cfg, opts_, programs, parallel_equivalence, o);
    return o;
  }

  fuzz::FuzzOptions opts_;
  std::vector<uint64_t> invalid_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_campaign(uint64_t seed, size_t workers) {
  return std::make_unique<FuzzCampaign>(seed, workers);
}

}  // namespace perfbench
