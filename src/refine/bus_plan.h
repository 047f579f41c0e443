// The bus/memory structure of an implementation model.
//
// BusPlan is the single source of truth for "which buses exist, which memory
// module holds which variable, and which buses one access traverses" under a
// given (partition, model) pair. Both the refiner (which generates the
// corresponding signals, memories, arbiters and interfaces) and the
// estimator (which maps profiled channel rates onto buses, Figure 9) consume
// it, so the generated system and the reported numbers can never diverge.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/access_graph.h"
#include "partition/partition.h"
#include "refine/types.h"

namespace specsyn {

enum class BusRole : uint8_t {
  SharedGlobal,  // Model1's only bus; Model2's global bus
  Local,         // component-local memory bus (Models 2-4)
  Dedicated,     // Model3: accessor-component -> global-memory-module bus
  Request,       // Model4: component behaviors -> own bus interface
  Inter,         // Model4: bus-interface <-> bus-interface bus
};

[[nodiscard]] const char* to_string(BusRole r);

struct BusDecl {
  std::string name;
  BusRole role = BusRole::SharedGlobal;
  /// Local/Request: owning component. Dedicated: accessing component.
  size_t comp_a = SIZE_MAX;
  /// Dedicated: component owning the target global memory.
  size_t comp_b = SIZE_MAX;
};

struct MemoryModule {
  std::string name;
  size_t component = 0;  // owner of the stored variables
  bool global = false;   // part of a global (shared/multi-port) memory
  std::vector<std::string> vars;
  /// Buses serving this module; one entry per port: (bus, accessor component).
  /// Single-port modules have exactly one entry.
  std::vector<std::pair<std::string, size_t>> port_buses;
  /// Per-port decode sets, parallel to port_buses: the subset of `vars` the
  /// port's master components actually access. An empty entry (or an empty
  /// vector) means the port decodes every stored variable — dead decode
  /// ranges are wasted slave logic, so multi-port plans narrow this.
  std::vector<std::vector<std::string>> port_vars;
};

/// Model4 bus-interface pair of one component.
struct InterfacePlan {
  size_t component = 0;
  std::string req_bus;       // behaviors -> outbound interface
  std::string outbound;      // generated behavior name (slave on req_bus,
                             // master on the inter bus)
  std::string inbound;       // generated behavior name (slave on the inter
                             // bus for this component's address range,
                             // master on the local bus)
  bool has_outbound = false; // component performs remote accesses
  bool has_inbound = false;  // other components access this component's vars
};

class BusPlan {
 public:
  /// Derives the plan. `part` must have every variable resolvable (use
  /// auto_assign_vars) and `graph` must come from the same specification.
  /// `max_memory_ports` caps the port count of Model3's global memories
  /// (the paper: "designers can select the number of memory ports"); 0 means
  /// one dedicated port per accessing component (the paper's maximum, p).
  /// With fewer ports than accessors, accessor components share a port's
  /// bus round-robin (the shared bus then needs arbitration, which the
  /// refiner inserts automatically).
  [[nodiscard]] static BusPlan build(const Partition& part,
                                     const AccessGraph& graph, ImplModel model,
                                     size_t max_memory_ports = 0);

  [[nodiscard]] ImplModel model() const { return model_; }
  [[nodiscard]] const std::vector<BusDecl>& buses() const { return buses_; }
  [[nodiscard]] const std::vector<MemoryModule>& memories() const {
    return memories_;
  }
  [[nodiscard]] const std::vector<InterfacePlan>& interfaces() const {
    return interfaces_;
  }
  [[nodiscard]] const std::string& inter_bus() const { return inter_bus_; }

  /// Buses traversed (in order, accessor side first) when a behavior on
  /// component `c` accesses `var`. Throws on unknown variables.
  [[nodiscard]] std::vector<std::string> route(size_t c,
                                               const std::string& var) const;

  /// First leg of route(): the bus the accessing behavior masters.
  [[nodiscard]] std::string access_bus(size_t c, const std::string& var) const;

  /// Memory module storing `var`, or nullptr for unknown names.
  [[nodiscard]] const MemoryModule* module_of(const std::string& var) const;

  /// Paper upper bound on the bus count for this model with p partitions
  /// (Section 3): 1, p+1, p+p*p, 2p+1.
  [[nodiscard]] static size_t max_buses(ImplModel model, size_t p);

 private:
  ImplModel model_ = ImplModel::Model1;
  std::vector<BusDecl> buses_;
  std::vector<MemoryModule> memories_;
  std::vector<InterfacePlan> interfaces_;
  std::string inter_bus_;
  std::map<std::string, size_t> var_owner_;       // var -> component
  std::map<std::string, bool> var_global_;        // var -> classification
  std::map<std::string, std::string> var_module_; // var -> memory module
  // Model3: (accessor component, owner component) -> dedicated/shared bus.
  std::map<std::pair<size_t, size_t>, std::string> dedicated_bus_of_;
};

}  // namespace specsyn
