#include "printer/report.h"

#include <sstream>

#include "refine/protocol.h"

namespace specsyn {

namespace {

void rate_cell(std::ostringstream& os, const BusRateReport* rates,
               const std::string& bus) {
  if (rates == nullptr) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " | %.0f", rates->rate_of(bus));
  os << buf;
}

}  // namespace

std::string architecture_report(const RefineResult& result,
                                const Partition& part,
                                const BusRateReport* rates) {
  std::ostringstream os;
  const Specification& spec = result.refined;
  const SpecIndex index(spec);
  const Allocation& alloc = part.allocation();

  os << "# Architecture: " << spec.name << "\n\n";
  os << "Implementation model: **" << to_string(result.plan.model())
     << "** — " << result.stats.buses << " bus(es), " << result.stats.memories
     << " memory module(s) (" << result.stats.memory_ports << " port(s)), "
     << result.stats.arbiters << " arbiter(s), " << result.stats.interfaces
     << " bus interface(s).\n\n";

  // -- components -------------------------------------------------------------
  os << "## Components\n\n";
  for (size_t c = 0; c < alloc.size(); ++c) {
    const Component& comp = alloc.components[c];
    os << "* **" << comp.name << "** (" << to_string(comp.kind);
    if (!comp.device.empty()) os << ", " << comp.device;
    if (comp.gates != 0) os << ", " << comp.gates << " gates";
    if (comp.pins != 0) os << ", " << comp.pins << " pins";
    os << ")\n";
    // Behaviors hosted: pre-order over the original partition's spec.
    os << "  * behaviors:";
    size_t listed = 0;
    part.spec().top->for_each([&](const Behavior& b) {
      if (part.component_of_behavior(b.name) == c && b.is_leaf()) {
        os << (listed++ ? ", " : " ") << b.name;
      }
    });
    if (listed == 0) os << " (none)";
    os << "\n";
  }

  // -- buses ------------------------------------------------------------------
  os << "\n## Buses\n\n";
  os << "| bus | role | masters | arbitrated"
     << (rates ? " | Mbit/s" : "") << " |\n";
  os << "|---|---|---|---" << (rates ? "|---" : "") << "|\n";
  for (const BusDecl& b : result.plan.buses()) {
    os << "| " << b.name << " | " << to_string(b.role) << " | ";
    auto it = result.bus_masters.find(b.name);
    if (it == result.bus_masters.end() || it->second.empty()) {
      os << "—";
    } else {
      for (size_t i = 0; i < it->second.size(); ++i) {
        os << (i ? ", " : "") << it->second[i];
      }
    }
    const bool arb =
        it != result.bus_masters.end() && it->second.size() > 1;
    os << " | " << (arb ? "yes" : "no");
    rate_cell(os, rates, b.name);
    os << " |\n";
  }

  // -- memories + address map ---------------------------------------------------
  os << "\n## Memory modules\n\n";
  for (const MemoryModule& m : result.plan.memories()) {
    os << "### " << m.name << " (" << (m.global ? "global" : "local") << ", "
       << m.port_buses.size() << " port(s), owner "
       << alloc.components[m.component].name << ")\n\n";
    os << "| variable | address | beats | type |\n|---|---|---|---|\n";
    for (const std::string& v : m.vars) {
      const VarDecl* decl = index.find_var(v);
      os << "| " << v << " | " << result.addresses.addr_of(v) << " | "
         << result.addresses.beats_of(v) << " | "
         << (decl != nullptr ? decl->type.str() : "?") << " |\n";
    }
    os << "\nports:";
    for (const auto& [bus, accessor] : m.port_buses) {
      os << " " << bus;
      if (accessor != SIZE_MAX) {
        os << " (for " << alloc.components[accessor].name << ")";
      }
    }
    os << "\n\n";
  }

  // -- interfaces ---------------------------------------------------------------
  if (!result.plan.interfaces().empty()) {
    os << "## Bus interfaces (message passing)\n\n";
    for (const InterfacePlan& ip : result.plan.interfaces()) {
      const std::string& cn = alloc.components[ip.component].name;
      if (ip.has_outbound) {
        os << "* " << ip.outbound << ": forwards " << cn
           << "'s remote accesses via " << ip.req_bus << " -> "
           << result.plan.inter_bus() << "\n";
      }
      if (ip.has_inbound) {
        os << "* " << ip.inbound << ": serves inbound requests for " << cn
           << "'s address range from " << result.plan.inter_bus() << "\n";
      }
    }
    os << "\n";
  }

  // -- control signals ------------------------------------------------------------
  if (result.stats.control_signals != 0) {
    os << "## Control handshakes\n\n";
    for (const std::string& base : BusTopology::discover(spec).control_pairs) {
      if (index.id_of(base + control_naming::kStub) == SpecIndex::kNone) {
        continue;
      }
      os << "* " << base << ": " << base << control_naming::kStub << " -> "
         << base << control_naming::kServer << " via " << base
         << bus_naming::kStart << " / " << base << bus_naming::kDone << "\n";
    }
    os << "\n";
  }

  os << "## Statistics\n\n"
     << "* behaviors in refined spec: " << result.stats.behaviors << "\n"
     << "* moved behaviors (control-refined): "
     << result.stats.moved_behaviors << "\n"
     << "* protocol sites inlined: " << result.stats.inlined_sites << "\n"
     << "* generated procedures kept: " << result.stats.generated_procs
     << "\n"
     << "* address space: " << result.addresses.total_slots() << " slot(s), "
     << static_cast<unsigned>(result.addresses.addr_type().width)
     << "-bit addresses, "
     << static_cast<unsigned>(result.addresses.data_type().width)
     << "-bit data bus\n";
  return os.str();
}

}  // namespace specsyn
