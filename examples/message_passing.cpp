// Message passing deep-dive: Model4's bus interfaces (Figure 8).
//
// Builds a two-component design where behavior B1 on Component1 reads a
// variable y stored in Component2's local memory, refines it to Model4, and
// traces the resulting three-bus transfer path:
//      B1 -> [request bus] -> IFACE_1_OUT -> [inter bus] -> IFACE_2_IN
//         -> [local bus 2] -> LMEM_2
// A signal observer prints the bus handshakes as they happen so the
// generated protocol can be watched end to end.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/access_graph.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "spec/builder.h"

using namespace specsyn;
using namespace specsyn::build;

namespace {

Specification make_spec() {
  Specification s;
  s.name = "Fig8";
  s.vars.push_back(var("y", Type::u16(), 41, /*observable=*/true));
  s.vars.push_back(var("out1", Type::u16(), 0, /*observable=*/true));
  auto b1 = leaf("B1", block(assign("out1", add(ref("y"), lit(1)))));
  auto b2 = leaf("B2", block(assign("y", add(ref("y"), lit(100)))));
  s.top = seq("Top", behaviors(std::move(b1), std::move(b2)));
  return s;
}

/// Prints every change of the bus control signals, indented per bus.
class HandshakePrinter : public SlotObserver {
 public:
  void on_bind(const Binding& b) override {
    // Resolve names once: keep only the handshake lines.
    handshake_.assign(b.signals->size(), nullptr);
    for (size_t i = 0; i < b.signals->size(); ++i) {
      const std::string& sig = b.signals->name_of(i);
      if (sig.find("_start") != std::string::npos ||
          sig.find("_done") != std::string::npos) {
        handshake_[i] = &sig;
      }
    }
  }
  void on_signal_commit(uint32_t slot, uint64_t t, uint64_t v) override {
    if (handshake_[slot] == nullptr) return;
    if (printed_ > 60) return;  // keep the demo readable
    std::printf("  t=%-5llu %s = %llu\n", static_cast<unsigned long long>(t),
                handshake_[slot]->c_str(), static_cast<unsigned long long>(v));
    ++printed_;
  }

 private:
  std::vector<const std::string*> handshake_;  // by signal slot; null = skip
  int printed_ = 0;
};

}  // namespace

int main() {
  Specification spec = make_spec();
  AccessGraph graph = build_access_graph(spec);

  Partition part(spec, Allocation::proc_plus_asic());
  part.assign_behavior("B2", 1);  // B2 and y live on Component2 (ASIC)
  part.assign_var("y", 1);
  part.auto_assign_vars(graph);

  RefineConfig cfg;
  cfg.model = ImplModel::Model4;
  RefineResult r = refine(part, graph, cfg);

  std::printf("Model4 structure for the Figure 8 scenario:\n");
  for (const BusDecl& b : r.plan.buses()) {
    std::printf("  bus %-14s role=%s\n", b.name.c_str(), to_string(b.role));
  }
  for (const MemoryModule& m : r.plan.memories()) {
    std::printf("  memory %-11s on %s holding:", m.name.c_str(),
                m.port_buses.front().first.c_str());
    for (const auto& v : m.vars) std::printf(" %s", v.c_str());
    std::printf("\n");
  }
  for (const InterfacePlan& ip : r.plan.interfaces()) {
    if (ip.has_outbound) std::printf("  interface %s\n", ip.outbound.c_str());
    if (ip.has_inbound) std::printf("  interface %s\n", ip.inbound.c_str());
  }
  std::printf("\nremote read route for B1 (PROC) accessing y (ASIC):");
  for (const std::string& leg : r.plan.route(0, "y")) {
    std::printf(" -> %s", leg.c_str());
  }
  std::printf("\n\nbus handshakes during simulation (first transfers):\n");

  Simulator sim(r.refined);
  HandshakePrinter tracer;
  sim.add_slot_observer(&tracer);
  SimResult res = sim.run();

  std::printf("\nsimulation %s at t=%llu; out1=%llu (expected 42), y=%llu "
              "(expected 141)\n",
              res.status == SimResult::Status::Quiescent ? "quiesced"
                                                         : "hit max cycles",
              static_cast<unsigned long long>(res.end_time),
              static_cast<unsigned long long>(res.final_vars.at("out1")),
              static_cast<unsigned long long>(res.final_vars.at("y")));

  EquivalenceReport rep = check_equivalence(spec, r.refined);
  std::printf("equivalence vs functional model: %s\n", rep.summary().c_str());
  return rep.equivalent ? 0 : 1;
}
