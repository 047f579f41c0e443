// Ablations of the refiner's design choices (the knobs DESIGN.md calls out),
// measured on the medical system (Design1):
//
//   A1  protocol emission: per-site inlining (the paper's style) vs shared
//       MST_* procedures — size and simulated-time impact.
//   A2  bus-master granularity: component (paper's assumption, needs a
//       sequential spec) vs thread (always sound) — arbiter count and size.
//   A3  leaf control scheme: Figure 4(b) loop-leaf vs 4(c) wrapper.
//
// Every variant must remain functionally equivalent to the original spec —
// checked inline; any mismatch fails the binary.
//
// E8 (simulation cost of the implementation models) follows: simulated
// cycles and steps of the original spec and of Model1-4 for Designs 1-3
// under the default RefineConfig, with two shape checks.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "printer/printer.h"
#include "sim/equivalence.h"

using namespace specsyn;
using namespace specsyn::bench;

namespace {

struct Row {
  std::string label;
  RefineConfig cfg;
};

}  // namespace

int main() {
  Specification spec = make_medical_system();
  AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);

  std::vector<Row> rows;
  {
    RefineConfig base;
    base.model = ImplModel::Model1;

    Row r1{"A1 inline protocols (default)", base};
    rows.push_back(std::move(r1));
    Row r2{"A1 shared procedures", base};
    r2.cfg.inline_protocols = false;
    rows.push_back(std::move(r2));

    Row r3{"A2 component-granular masters", base};
    r3.cfg.master_granularity = MasterGranularity::Component;
    rows.push_back(std::move(r3));
    Row r4{"A2 thread-granular masters", base};
    r4.cfg.master_granularity = MasterGranularity::Thread;
    rows.push_back(std::move(r4));

    Row r5{"A3 loop-leaf scheme (4b)", base};
    r5.cfg.leaf_scheme = LeafScheme::LoopLeaf;
    rows.push_back(std::move(r5));
    Row r6{"A3 wrapper scheme (4c)", base};
    r6.cfg.leaf_scheme = LeafScheme::WrapperSeq;
    rows.push_back(std::move(r6));
  }

  int failures = 0;
  Table t;
  t.header = {"variant", "lines", "arbiters", "procs", "sim cycles",
              "refine ms", "equivalent"};
  for (const Row& row : rows) {
    RefineResult r = refine(d.partition, graph, row.cfg);
    Simulator sim(r.refined);
    SimResult res = sim.run();
    EquivalenceReport rep = check_equivalence(spec, r.refined);
    if (!rep.equivalent) ++failures;
    const double ms = time_ms([&] {
      RefineResult again = refine(d.partition, graph, row.cfg);
      (void)again;
    }, 3);
    t.rows.push_back({row.label,
                      std::to_string(count_lines(print(r.refined))),
                      std::to_string(r.stats.arbiters),
                      std::to_string(r.stats.generated_procs),
                      std::to_string(res.end_time), fmt(ms, 2),
                      rep.equivalent ? "yes" : "NO"});
  }
  t.print("refiner design-choice ablations (medical, Design1, Model1)");

  std::printf("\nreading guide:\n"
              "  A1: inlining multiplies size (the paper's 11-19x growth) but\n"
              "      not simulated time — the transfers are identical.\n"
              "  A2: thread-granular masters add arbiters (safe under real\n"
              "      concurrency); component-granular matches the paper.\n"
              "  A3: the wrapper scheme costs a few lines and cycles per\n"
              "      invocation — why the paper prefers 4(b) for leaves.\n");

  // ---- E8: simulation cost of the implementation models ---------------------
  Table cost;
  cost.header = {"design", "model", "sim cycles", "steps"};
  Simulator orig_sim(spec);
  const SimResult orig = orig_sim.run();
  cost.rows.push_back({"-", "original", std::to_string(orig.end_time),
                       std::to_string(orig.steps)});
  bool all_slower = true;
  bool m3_fewest_m4_most = true;
  for (int design = 1; design <= 3; ++design) {
    auto dd = make_medical_design(spec, graph, design);
    std::vector<uint64_t> cycles;
    for (ImplModel m : all_models()) {
      RefineConfig cfg;
      cfg.model = m;
      RefineResult r = refine(dd.partition, graph, cfg);
      Simulator sim(r.refined);
      const SimResult res = sim.run();
      cycles.push_back(res.end_time);
      all_slower = all_slower && res.end_time > orig.end_time;
      cost.rows.push_back({std::to_string(design), to_string(m),
                           std::to_string(res.end_time),
                           std::to_string(res.steps)});
    }
    m3_fewest_m4_most =
        m3_fewest_m4_most &&
        *std::min_element(cycles.begin(), cycles.end()) == cycles[2] &&
        *std::max_element(cycles.begin(), cycles.end()) == cycles[3];
  }
  cost.print("E8 simulation cost of the implementation models (medical)");

  std::printf("\nShape checks:\n");
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) ++failures;
  };
  check(all_slower, "every refined model takes more cycles than the original");
  check(m3_fewest_m4_most,
        "Model3 takes the fewest cycles and Model4 the most, in every design");
  return failures == 0 ? 0 : 1;
}
