// Equivalence demo: refinement as a *verified* transformation.
//
// Generates seeded random specifications, partitions them pseudo-randomly,
// refines each under all four implementation models and both protocol
// styles, and checks functional equivalence — the workflow a downstream user
// would run to trust the refiner on their own specification. Also exports
// the access graph of the first spec as Graphviz DOT.
//
// Usage: ./build/examples/equivalence_demo [num_seeds]   (default 5)
#include <cstdio>
#include <cstdlib>

#include "printer/dot.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "workloads/synthetic.h"

using namespace specsyn;

int main(int argc, char** argv) {
  const uint64_t seeds = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;
  int failures = 0;

  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SyntheticOptions opts;
    opts.seed = seed;
    opts.leaf_behaviors = 4 + seed % 6;
    opts.variables = 6 + seed % 8;
    opts.conc_percent = seed % 2 ? 30 : 0;
    Specification spec = make_synthetic_spec(opts);
    AccessGraph graph = build_access_graph(spec);

    Partition part(spec, Allocation::proc_plus_asic());
    uint64_t h = seed;
    bool any1 = false;
    spec.top->for_each([&](const Behavior& b) {
      if (!b.is_leaf()) return;
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((h >> 40) & 1) {
        part.assign_behavior(b.name, 1);
        any1 = true;
      }
    });
    if (!any1) {
      // Ensure a real two-component partition.
      spec.top->for_each([&](const Behavior& b) {
        if (!any1 && b.is_leaf()) {
          part.assign_behavior(b.name, 1);
          any1 = true;
        }
      });
    }
    part.auto_assign_vars(graph);

    if (seed == 1) {
      std::printf("access graph of seed 1 (Graphviz DOT):\n%s\n",
                  to_dot(graph, part).c_str());
    }

    std::printf("seed %llu (%zu behaviors, %zu vars):",
                static_cast<unsigned long long>(seed),
                spec.all_behaviors().size(), spec.all_vars().size());
    for (ImplModel m : {ImplModel::Model1, ImplModel::Model2,
                        ImplModel::Model3, ImplModel::Model4}) {
      for (ProtocolStyle p :
           {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
        RefineConfig cfg;
        cfg.model = m;
        cfg.protocol = p;
        RefineResult r = refine(part, graph, cfg);
        EquivalenceOptions eo;
        eo.compare_write_traces = keeps_write_sequences(p);
        EquivalenceReport rep = check_equivalence(spec, r.refined, eo);
        std::printf(" %s", rep.equivalent ? "ok" : "FAIL");
        if (!rep.equivalent) {
          ++failures;
          std::printf("\n  %s/%s: %s", to_string(m), to_string(p),
                      rep.summary().c_str());
        }
      }
    }
    std::printf("\n");
  }

  std::printf("\n%s\n", failures == 0
                            ? "all refinements functionally equivalent"
                            : "EQUIVALENCE FAILURES FOUND");
  return failures == 0 ? 0 : 1;
}
