// Design-cost model for comparing implementation models.
//
// Section 5's discussion: "when considering design cost, we need to take
// into account not only the number of buses, the bus transfer rate required
// for each bus, but also the cost of bus interfaces … and the number of
// memories and the sizes of the memories". This model scores exactly those
// quantities with one fixed set of weights, so every model is priced alike.
#pragma once

#include "estimate/rates.h"
#include "refine/refiner.h"

namespace specsyn {

namespace cost_weights {
inline constexpr double kPerBus = 10.0;          // wiring + drivers per bus
inline constexpr double kPerBusWire = 0.2;       // per signal wire of a bundle
inline constexpr double kPerMemory = 20.0;       // module overhead
inline constexpr double kPerMemoryPort = 15.0;   // extra port (multi-port rams)
inline constexpr double kPerMemoryBit = 0.01;
inline constexpr double kPerArbiter = 25.0;
inline constexpr double kPerInterface = 40.0;    // Model4 interface + buffer
inline constexpr double kPerMbpsPeak = 0.05;     // fastest bus sets technology
}  // namespace cost_weights

struct CostReport {
  size_t buses = 0;
  size_t bus_wires = 0;
  size_t memories = 0;
  size_t memory_ports = 0;
  uint64_t memory_bits = 0;
  size_t arbiters = 0;
  size_t interfaces = 0;
  double peak_bus_mbps = 0.0;
  double total = 0.0;
};

/// Scores a refinement result (structure) together with its rate report
/// (performance pressure).
[[nodiscard]] CostReport estimate_cost(const RefineResult& refined,
                                       const BusRateReport& rates);

}  // namespace specsyn
