// synthetic_large: the size-scaling workload. One make_synthetic_spec spec
// whose refined forms run to tens of thousands of lines, taken serially
// through the whole pass each round: print -> parse_spec -> validate ->
// build_access_graph -> round-robin leaf partition + auto_assign_vars ->
// refine (Model1 and Model4) -> print -> analyze -> Simulator construct +
// run. One item is one refined config. It bypasses the pool entirely;
// equivalence is checked on the warm-up round only, because it would double
// the round.
//
// The workload seed shuffles the leaf order the round-robin partition deals
// from; the spec itself comes from a fixed generator seed. Across generator
// seeds the refined size varies by +-14% and the simulated cycles by +-34%,
// which would swamp any regression bound; across partition seeds they vary
// by under 0.2% and 4%.
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "fuzz/rng.h"
#include "graph/access_graph.h"
#include "parser/parser.h"
#include "partition/partition.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "support/diagnostics.h"
#include "trace.h"
#include "workload.h"
#include "workloads/synthetic.h"

namespace perfbench {
namespace {

using namespace specsyn;

/// 256 leaves at depth 6 refine to about 56k printed lines per model.
/// make_ratio_partition is deliberately not used: alone it costs more than
/// a whole round at this size.
SyntheticOptions spec_options() {
  SyntheticOptions o;
  o.leaf_behaviors = 256;
  o.max_depth = 6;
  o.seed = 1;
  return o;
}

class SyntheticLarge final : public Workload {
 public:
  explicit SyntheticLarge(uint64_t seed) : seed_(seed) {}

  void setup() override {
    auto spec = std::make_unique<Specification>(make_synthetic_spec(spec_options()));
    validate_or_throw(*spec);
    std::vector<std::string> leaves;
    spec->top->for_each([&](const Behavior& b) {
      if (b.is_leaf()) leaves.push_back(b.name);
    });
    fuzz::Rng rng(seed_);
    for (size_t i = leaves.size(); i > 1; --i) {
      std::swap(leaves[i - 1], leaves[rng.below(i)]);
    }
    spec_ = std::move(spec);
    leaves_ = std::move(leaves);
  }

  [[nodiscard]] size_t setup_reps() const override { return 50; }

  RoundResult warmup() override { return run(/*check_equivalence=*/true); }

  RoundResult round(bool /*traced*/) override { return run(false); }

 private:
  RoundResult run(bool check_equiv) const {
    RoundResult out;
    std::string text;
    {
      trace::Span s("printer");
      text = print(*spec_);
    }
    std::optional<Specification> parsed;
    {
      trace::Span s("parser");
      DiagnosticSink diags;
      parsed = parse_spec(text, diags);
    }
    trace::count("parser.bytes", static_cast<double>(text.size()));
    trace::count("printer.lines", static_cast<double>(count_lines(text)));
    bool valid = false;
    if (parsed) {
      trace::Span s("spec.validate");
      DiagnosticSink diags;
      valid = validate(*parsed, diags);
    }
    if (!valid) {
      out.items = 2;
      out.fail("printed spec does not reparse and validate");
      out.fail("printed spec does not reparse and validate");
      return out;
    }
    const Specification& spec = *parsed;
    out.fingerprint = std::to_string(std::hash<std::string>{}(text));

    AccessGraph graph;
    {
      trace::Span s("graph");
      graph = build_access_graph(spec);
    }
    std::optional<Partition> part;
    {
      trace::Span s("partition");
      part.emplace(spec, Allocation::proc_plus_asic());
      for (size_t i = 0; i < leaves_.size(); ++i) {
        part->assign_behavior(leaves_[i], i % 2);
      }
      part->auto_assign_vars(graph);
    }

    for (ImplModel model : {ImplModel::Model1, ImplModel::Model4}) {
      ++out.items;
      const std::string label = model == ImplModel::Model1 ? "model1" : "model4";
      try {
        RefineConfig rc;
        rc.model = model;
        std::optional<RefineResult> r;
        {
          trace::Span s("refine");
          r.emplace(refine(*part, graph, rc));
        }
        trace::count("refine.behaviors_out",
                     static_cast<double>(r->stats.behaviors));
        std::string refined_text;
        {
          trace::Span s("printer");
          refined_text = print(r->refined);
        }
        const uint64_t lines = count_lines(refined_text);
        trace::count("printer.lines", static_cast<double>(lines));
        size_t sa_errors = 0;
        {
          trace::Span s("analysis");
          const analysis::Report rep = analysis::analyze(r->refined);
          sa_errors = rep.count(Severity::Error);
          trace::count("analysis.findings",
                       static_cast<double>(rep.findings.size()));
        }
        std::unique_ptr<Simulator> sim;
        {
          trace::Span s("sim.construct");
          sim = std::make_unique<Simulator>(r->refined);
        }
        const SimResult res = [&] {
          trace::Span s("sim.run");
          return sim->run();
        }();
        bool live = res.root_completed;
        if (!live) {
          const auto it = res.behavior_completions.find(spec.top->name);
          live = it != res.behavior_completions.end() && it->second > 0;
        }
        out.refined_lines += lines;
        out.sim_cycles += res.end_time;
        out.fingerprint += " " + label + ":" +
                           std::to_string(std::hash<std::string>{}(refined_text)) +
                           "/" + std::to_string(res.end_time) + "/" +
                           std::to_string(res.steps);
        if (sa_errors != 0) {
          out.fail(label + ": " + std::to_string(sa_errors) + " SA error(s)");
        } else if (!live) {
          out.fail(label + ": root behavior did not complete");
        } else if (check_equiv &&
                   !check_equivalence(spec, r->refined).equivalent) {
          out.fail(label + ": refined model is not equivalent");
        }
      } catch (const SpecError& e) {
        out.fail(label + ": " + e.what());
      }
    }
    return out;
  }

  uint64_t seed_;
  std::unique_ptr<Specification> spec_;
  std::vector<std::string> leaves_;  ///< round-robin order, seeded
};

}  // namespace

std::unique_ptr<Workload> make_synthetic_large(uint64_t seed) {
  return std::make_unique<SyntheticLarge>(seed);
}

}  // namespace perfbench
