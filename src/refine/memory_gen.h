// Memory behavior generation: the slave `Memory` behaviors of Figure 5(c).
//
// A single-port module becomes one leaf behavior: the variables it stores
// are *declared on that behavior* (this is how refinement "maps a variable
// to a memory" while names and observability are preserved) and its body is
// an infinite server loop on the module's bus.
//
// A multi-port module (Model3's global memories) becomes a concurrent
// composite declaring the variables, with one leaf server child per port —
// each port serving its own dedicated bus against the shared variables.
#pragma once

#include "refine/address_map.h"
#include "refine/bus_plan.h"
#include "refine/protocol.h"

namespace specsyn {

/// Generates the behavior implementing memory module `m`. `orig` supplies
/// the stored variables' declarations (type, init, observability).
[[nodiscard]] BehaviorPtr generate_memory(const MemoryModule& m,
                                          const ProtocolGen& proto,
                                          const AddressMap& amap,
                                          const SpecIndex& orig);

}  // namespace specsyn
