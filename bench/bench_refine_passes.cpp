// Reproduces the paper's worked refinement examples (Figures 1, 4-8) as
// measurable micro-tables: what each refinement class inserts into the
// specification, per implementation model.
//
//   E3 (Fig. 1/4)  control-related: B_CTRL stubs, B_NEW servers, start/done
//                  signal pairs (leaf scheme 4(b) vs wrapper 4(c)).
//   E4 (Fig. 5/6)  data-related: rewritten access sites, fetch nodes for
//                  transition guards, tmp variables.
//   E5 (Fig. 7/8)  architecture-related: arbiters and bus interfaces.
#include <cstdio>

#include "bench_util.h"
#include "printer/printer.h"
#include "spec/builder.h"
#include "sim/equivalence.h"

using namespace specsyn;
using namespace specsyn::bench;
using namespace specsyn::build;

namespace {

// The Section 2 running example: A, C on PROC; B and x on the ASIC.
struct Example {
  Specification spec;
  AccessGraph graph;
  Partition part;
  Example()
      : spec(make()),
        graph(build_access_graph(spec)),
        part(spec, Allocation::proc_plus_asic()) {
    part.assign_behavior("B", 1);
    part.assign_var("x", 1);
    part.auto_assign_vars(graph);
  }
  static Specification make() {
    Specification s;
    s.name = "Fig1";
    s.vars.push_back(var("x", Type::u16(), 0, true));
    s.vars.push_back(var("r", Type::u16(), 0, true));
    auto a = leaf("A", block(assign("x", lit(3))));
    auto b = leaf("B", block(assign("r", add(ref("x"), lit(10)))));
    auto c = leaf("C", block(assign("r", add(ref("x"), lit(100)))));
    s.top = seq("Main", behaviors(std::move(a), std::move(b), std::move(c)),
                arcs(on("A", gt(ref("x"), lit(1)), "B"),
                     on("A", lt(ref("x"), lit(1)), "C"), done("B"),
                     done("C")));
    return s;
  }
};

size_t count_behaviors_matching(const Specification& s, const char* substr) {
  size_t n = 0;
  for (const Behavior* b : s.all_behaviors()) {
    if (b->name.find(substr) != std::string::npos) ++n;
  }
  return n;
}

size_t count_tmp_vars(const Specification& s) {
  size_t n = 0;
  for (const VarDecl* v : s.all_vars()) {
    if (v->name.find("_t_") != std::string::npos) ++n;
  }
  return n;
}

}  // namespace

int main() {
  std::printf("Refinement-pass micro-tables (paper Figures 1, 4-8)\n");

  // --- E3: control-related, both leaf schemes -------------------------------
  {
    Table t;
    t.header = {"scheme", "stubs", "servers", "ctrl signals", "lines",
                "equivalent"};
    for (LeafScheme scheme : {LeafScheme::LoopLeaf, LeafScheme::WrapperSeq}) {
      Example e;
      RefineConfig cfg;
      cfg.model = ImplModel::Model1;
      cfg.leaf_scheme = scheme;
      RefineResult r = refine(e.part, e.graph, cfg);
      EquivalenceReport rep = check_equivalence(e.spec, r.refined);
      t.rows.push_back({to_string(scheme),
                        std::to_string(count_behaviors_matching(r.refined,
                                                                "_CTRL")),
                        std::to_string(count_behaviors_matching(r.refined,
                                                                "_NEW")),
                        std::to_string(r.stats.control_signals),
                        std::to_string(count_lines(print(r.refined))),
                        rep.equivalent ? "yes" : "NO"});
    }
    t.print("E3 control-related refinement (Figure 4(b) vs 4(c))");
  }

  // --- E4: data-related ------------------------------------------------------
  {
    Table t;
    t.header = {"model", "inlined sites", "fetch nodes", "tmp vars", "lines"};
    for (ImplModel m : all_models()) {
      Example e;
      RefineConfig cfg;
      cfg.model = m;
      RefineResult r = refine(e.part, e.graph, cfg);
      t.rows.push_back({to_string(m), std::to_string(r.stats.inlined_sites),
                        std::to_string(count_behaviors_matching(r.refined,
                                                                "_fetch")),
                        std::to_string(count_tmp_vars(r.refined)),
                        std::to_string(count_lines(print(r.refined)))});
    }
    t.print("E4 data-related refinement (Figures 5/6)");
  }

  // --- E5: architecture-related ----------------------------------------------
  {
    Table t;
    t.header = {"model", "buses", "memories", "ports", "arbiters",
                "interfaces"};
    for (ImplModel m : all_models()) {
      Example e;
      RefineConfig cfg;
      cfg.model = m;
      RefineResult r = refine(e.part, e.graph, cfg);
      t.rows.push_back({to_string(m), std::to_string(r.stats.buses),
                        std::to_string(r.stats.memories),
                        std::to_string(r.stats.memory_ports),
                        std::to_string(r.stats.arbiters),
                        std::to_string(r.stats.interfaces)});
    }
    t.print("E5 architecture-related refinement (Figures 7/8)");
  }

  // --- medical system end-to-end stats (all passes together) -----------------
  {
    Specification spec = make_medical_system();
    AccessGraph graph = build_access_graph(spec);
    Table t;
    t.header = {"design", "model", "moved", "sites", "arb", "iface",
                "equivalent"};
    int mismatches = 0;
    for (int design = 1; design <= 3; ++design) {
      auto d = make_medical_design(spec, graph, design);
      for (ImplModel m : all_models()) {
        RefineConfig cfg;
        cfg.model = m;
        RefineResult r = refine(d.partition, graph, cfg);
        EquivalenceReport rep = check_equivalence(spec, r.refined);
        t.rows.push_back({std::to_string(design), to_string(m),
                          std::to_string(r.stats.moved_behaviors),
                          std::to_string(r.stats.inlined_sites),
                          std::to_string(r.stats.arbiters),
                          std::to_string(r.stats.interfaces),
                          rep.equivalent ? "yes" : "NO"});
        if (!rep.equivalent) ++mismatches;
      }
    }
    t.print("medical system: refinement statistics and equivalence");
    if (mismatches != 0) return 1;
  }
  return 0;
}
