#include "estimate/cost.h"

namespace specsyn {

CostReport estimate_cost(const RefineResult& refined,
                         const BusRateReport& rates, const CostWeights& w) {
  CostReport r;
  r.buses = refined.plan.buses().size();
  // Bundle wires: start/done/rd/wr + addr + data, plus req/ack per master on
  // arbitrated buses.
  const uint32_t addr_w = refined.addresses.addr_type().width;
  const uint32_t data_w = refined.addresses.data_type().width;
  for (const BusDecl& b : refined.plan.buses()) {
    r.bus_wires += 4 + addr_w + data_w;
    auto it = refined.bus_masters.find(b.name);
    if (it != refined.bus_masters.end() && it->second.size() > 1) {
      r.bus_wires += 2 * it->second.size();
    }
  }
  r.memories = refined.stats.memories;
  r.memory_ports = refined.stats.memory_ports;
  const SpecIndex index(refined.refined);
  for (const MemoryModule& m : refined.plan.memories()) {
    for (const std::string& v : m.vars) {
      const VarDecl* decl = index.find_var(v);
      if (decl != nullptr) r.memory_bits += decl->type.width;
    }
  }
  r.arbiters = refined.stats.arbiters;
  r.interfaces = refined.stats.interfaces;
  r.peak_bus_mbps = rates.max_rate();

  r.total = w.per_bus * static_cast<double>(r.buses) +
            w.per_bus_wire * static_cast<double>(r.bus_wires) +
            w.per_memory * static_cast<double>(r.memories) +
            w.per_memory_port * static_cast<double>(r.memory_ports) +
            w.per_memory_bit * static_cast<double>(r.memory_bits) +
            w.per_arbiter * static_cast<double>(r.arbiters) +
            w.per_interface * static_cast<double>(r.interfaces) +
            w.per_mbps_peak * r.peak_bus_mbps;
  return r;
}

}  // namespace specsyn
