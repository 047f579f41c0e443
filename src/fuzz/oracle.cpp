#include "fuzz/oracle.h"

#include <array>
#include <sstream>

#include "analysis/context.h"
#include "analysis/verifier.h"
#include "fuzz/rng.h"
#include "graph/access_graph.h"
#include "parser/parser.h"
#include "partition/partition.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "analysis/schedules/explore.h"
#include "sim/equivalence.h"
#include "sim/plan.h"
#include "spec/builder.h"
#include "spec/mutate.h"
#include "telemetry/telemetry.h"

namespace specsyn::fuzz {

std::string OracleConfig::str() const {
  std::ostringstream os;
  os << to_string(model) << ' '
     << kProtocolNames[static_cast<size_t>(protocol)] << ' '
     << kSchemeNames[static_cast<size_t>(scheme)] << ' '
     << (inline_protocols ? "inline" : "shared") << " p" << components
     << " salt" << partition_salt;
  return os.str();
}

OracleConfig sample_config(uint64_t seed) {
  OracleConfig cfg;
  // Low bits sweep the discrete axes exhaustively as `seed` walks an
  // interval; the salt reshuffles the partition independently.
  cfg.model = static_cast<ImplModel>(seed % 4);
  cfg.protocol =
      (seed / 4) % 2 == 0 ? ProtocolStyle::FullHandshake : ProtocolStyle::ByteSerial;
  cfg.scheme = (seed / 8) % 2 == 0 ? LeafScheme::LoopLeaf : LeafScheme::WrapperSeq;
  cfg.inline_protocols = (seed / 16) % 2 == 0;
  cfg.components = (seed / 32) % 2 == 0 ? 2 : 3;
  cfg.partition_salt = seed * 0x9e3779b97f4a7c15ULL;
  return cfg;
}

const char* to_string(InjectedBug b) {
  return kInjectedBugNames[static_cast<size_t>(b)];
}

namespace {

void add_issue(OracleOutcome& out, std::string oracle, std::string detail) {
  out.issues.push_back({std::move(oracle), std::move(detail)});
}

// -- oracle 1: canonical-printer round trip ----------------------------------
void check_roundtrip(const Specification& spec, const std::string& oracle,
                     OracleOutcome& out) {
  const std::string text = print(spec);
  DiagnosticSink diags;
  auto reparsed = parse_spec(text, diags);
  if (!reparsed) {
    add_issue(out, oracle, "printed spec does not reparse: " + diags.str());
    return;
  }
  DiagnosticSink vd;
  if (!validate(*reparsed, vd)) {
    add_issue(out, oracle, "reparsed spec does not validate: " + vd.str());
    return;
  }
  const std::string again = print(*reparsed);
  if (again != text) {
    add_issue(out, oracle, "print(parse(print(s))) != print(s)");
  }
}

// -- oracle 2: lowered vs legacy interpreter ---------------------------------
std::string diff_sim_results(const SimResult& a, const SimResult& b) {
  std::ostringstream os;
  if (a.status != b.status) os << "status differs; ";
  if (a.end_time != b.end_time) {
    os << "end_time " << a.end_time << " vs " << b.end_time << "; ";
  }
  if (a.steps != b.steps) os << "steps " << a.steps << " vs " << b.steps << "; ";
  if (a.root_completed != b.root_completed) os << "root_completed differs; ";
  if (a.final_vars != b.final_vars) os << "final variable values differ; ";
  if (a.observable_writes != b.observable_writes) {
    os << "observable write traces differ; ";
  }
  if (a.behavior_completions != b.behavior_completions) {
    os << "behavior completion counts differ; ";
  }
  return os.str();
}

/// One spec's run on every execution tier, under the same SimConfig.
struct TierResults {
  std::array<SimResult, kExecTierNames.size()> runs;

  [[nodiscard]] const SimResult& at(ExecTier tier) const {
    return runs[static_cast<size_t>(tier)];
  }
};

/// Runs the planned spec on all three tiers and reports any disagreement.
/// The runs are returned so the equivalence oracle can compare them without
/// simulating again. With `record`, the tree run (which has no statement
/// chaining for recording to turn off) records its schedule: it is the
/// schedule-inclusion oracle's baseline.
TierResults check_interp_diff(const std::shared_ptr<const SimPlan>& plan,
                              const std::string& oracle, OracleOutcome& out,
                              uint64_t max_cycles, bool record) {
  TierResults r;
  for (ExecTier tier :
       {ExecTier::Lowered, ExecTier::Tree, ExecTier::Bytecode}) {
    SimConfig cfg;
    cfg.max_cycles = max_cycles;
    cfg.exec_tier = tier;
    cfg.record_schedule = record && tier == ExecTier::Tree;
    r.runs[static_cast<size_t>(tier)] = Simulator(plan, cfg).run();
  }
  const std::string diff =
      diff_sim_results(r.at(ExecTier::Lowered), r.at(ExecTier::Tree));
  if (!diff.empty()) add_issue(out, oracle, "lowered vs tree: " + diff);
  const std::string bdiff =
      diff_sim_results(r.at(ExecTier::Bytecode), r.at(ExecTier::Lowered));
  if (!bdiff.empty()) add_issue(out, oracle, "bytecode vs lowered: " + bdiff);
  return r;
}

// -- oracle 3/8: static verifier silence -------------------------------------
void check_analysis(const analysis::Context& ctx, const std::string& oracle,
                    OracleOutcome& out) {
  const analysis::Report rep = analysis::analyze(ctx);
  if (rep.clean()) return;
  std::ostringstream os;
  for (const analysis::Finding& f : rep.findings) os << f.str() << "; ";
  add_issue(out, oracle, os.str());
}

// -- refinement under the sampled config -------------------------------------
Partition build_partition(const Specification& spec, const AccessGraph& graph,
                          const OracleConfig& cfg) {
  Partition part(spec, cfg.components == 2 ? Allocation::proc_plus_asic()
                                           : Allocation::asics(cfg.components));
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  Rng rng(cfg.partition_salt);
  std::vector<size_t> comp_of(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    comp_of[i] = rng.below(cfg.components);
  }
  // Guarantee cross-component structure: at least components 0 and 1 hold a
  // leaf each (otherwise refinement degenerates to a copy with no buses).
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

// -- planted refiner bugs -----------------------------------------------------
bool inject_bug(Specification& refined, InjectedBug bug) {
  switch (bug) {
    case InjectedBug::None:
      return true;
    case InjectedBug::DropDoneUpdate:
      return remove_first_matching_stmt(refined, [](const Stmt& s) {
        return s.kind == Stmt::Kind::SignalAssign &&
               s.target.ends_with(bus_naming::kDone) &&
               s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 1;
      });
    case InjectedBug::CorruptDataUpdate: {
      bool done = false;
      for_each_stmt(refined, [&](Stmt& s) {
        if (done || s.kind != Stmt::Kind::SignalAssign ||
            s.target.find(bus_naming::kData) == std::string::npos) {
          return;
        }
        s.expr = build::add(std::move(s.expr), Expr::lit(1));
        done = true;
      });
      return done;
    }
  }
  return false;
}

}  // namespace

OracleOutcome run_oracles(const Specification& spec, const OracleConfig& cfg,
                          const OracleOptions& opts) {
  OracleOutcome out;

  // Per-oracle pass/fail tallies. A verdict is per-seed deterministic, so
  // the merged totals are stable across --jobs values.
  const auto tally = [&out](const char* oracle, size_t issues_before) {
    if (!telemetry::enabled()) return;
    telemetry::count(std::string("fuzz.oracle.") + oracle +
                         (out.issues.size() > issues_before ? ".fail"
                                                            : ".pass"),
                     telemetry::Stability::Stable, 1);
  };

  // Each spec is validated, lowered, compiled and walked once: one plan
  // (every tier) feeds interp-diff and every explored schedule, and one
  // analysis Context feeds analysis-* and the schedule-inclusion pruning.
  std::shared_ptr<const SimPlan> plan;
  try {
    plan = SimPlan::build(spec);
  } catch (const SpecError& e) {
    add_issue(out, "generator",
              std::string("spec does not validate: ") + e.what());
    tally("generator", 0);
    return out;
  }
  tally("generator", out.issues.size());

  size_t before = out.issues.size();
  check_roundtrip(spec, "roundtrip", out);
  tally("roundtrip", before);
  before = out.issues.size();
  const bool exploring = opts.explore_schedules > 0;
  const TierResults original_runs =
      check_interp_diff(plan, "interp-diff", out, opts.max_cycles, exploring);
  tally("interp-diff", before);
  const analysis::Context ctx(spec);
  before = out.issues.size();
  check_analysis(ctx, "analysis-original", out);
  tally("analysis-original", before);

  Specification refined;
  before = out.issues.size();
  try {
    AccessGraph graph = build_access_graph(spec);
    Partition part = build_partition(spec, graph, cfg);
    RefineConfig rc;
    rc.model = cfg.model;
    rc.protocol = cfg.protocol;
    rc.leaf_scheme = cfg.scheme;
    rc.inline_protocols = cfg.inline_protocols;
    refined = std::move(refine(part, graph, rc).refined);
  } catch (const SpecError& e) {
    add_issue(out, "refiner", std::string("refine threw: ") + e.what());
    tally("refiner", before);
    return out;
  }

  if (opts.inject != InjectedBug::None && !inject_bug(refined, opts.inject)) {
    out.injection_applied = false;
    return out;
  }

  std::shared_ptr<const SimPlan> refined_plan;
  try {
    refined_plan = SimPlan::build(refined);
  } catch (const SpecError& e) {
    add_issue(out, "refiner",
              std::string("refined spec does not validate: ") + e.what());
    tally("refiner", before);
    return out;
  }
  tally("refiner", before);

  before = out.issues.size();
  check_roundtrip(refined, "roundtrip-refined", out);
  tally("roundtrip-refined", before);
  before = out.issues.size();
  const TierResults refined_runs = check_interp_diff(
      refined_plan, "interp-diff-refined", out, opts.max_cycles, exploring);
  tally("interp-diff-refined", before);

  // interp-diff already ran both specs on every tier under the equivalence
  // oracle's SimConfig; compare the configured tier's runs.
  const ExecTier tier = opts.exec_tier.value_or(default_exec_tier());
  before = out.issues.size();
  const bool compare_write_traces = keeps_write_sequences(cfg.protocol);
  const EquivalenceReport rep =
      compare_results(spec, outcome_of(original_runs.at(tier)),
                      refined_runs.at(tier), compare_write_traces);
  if (!rep.equivalent) add_issue(out, "equivalence", rep.summary());
  tally("equivalence", before);

  // Built after the refined runs so its maps are not live beside them.
  const analysis::Context refined_ctx(refined);
  before = out.issues.size();
  check_analysis(refined_ctx, "analysis-refined", out);
  tally("analysis-refined", before);

  if (exploring) {
    // Partition consistency (PAPERS.md): over K explored schedules per side,
    // the refined outcome set projected onto the original's variables must
    // be included in the original's. Exploration branches only at statically
    // racing decision points from the recorded tree-tier runs, so a clean
    // pair simulates nothing more; a race the refiner left behind shows up
    // as an escaping outcome with a replayable witness.
    before = out.issues.size();
    try {
      analysis::schedules::ExploreOptions xo;
      xo.max_schedules = opts.explore_schedules;
      xo.config.max_cycles = opts.max_cycles;
      xo.config.exec_tier = tier;
      xo.compare_write_traces = compare_write_traces;
      const analysis::schedules::InclusionResult inc =
          analysis::schedules::check_inclusion(
              spec,
              analysis::schedules::explore(ctx, plan, xo,
                                           original_runs.at(ExecTier::Tree)),
              refined_ctx, refined_plan, xo, refined_runs.at(ExecTier::Tree));
      if (!inc.holds) {
        add_issue(out, "schedule-inclusion", inc.violation);
      }
    } catch (const SpecError& e) {
      add_issue(out, "schedule-inclusion",
                std::string("exploration threw: ") + e.what());
    }
    tally("schedule-inclusion", before);
  }
  return out;
}

}  // namespace specsyn::fuzz
