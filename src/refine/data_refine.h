// Data-related refinement (Section 4.2, Figures 5 and 6).
//
// Rewrites every access to an original specification variable into bus
// protocol calls against the memory module the BusPlan mapped the variable
// to:
//   * leaf statements (Figure 5): reads are hoisted into
//     `call MST_receive_<bus>_<master>(addr, beats, tmp)` prologues and the
//     expression uses the tmp; writes become `tmp := e'; call MST_send...`,
//   * `while` conditions re-fetch their variables at the end of each
//     iteration,
//   * transition guards of sequential composites (Figure 6): a `<C>_fetch`
//     leaf child is inserted after each child C whose outgoing arcs read
//     variables; the fetch performs the protocol reads into composite-scoped
//     tmps and the guards are rewritten over the tmps.
//
// Master identities are *threads*: the innermost ancestor that is a child of
// a Concurrent composite (or the component itself for the main flow /
// the server root for moved behaviors). Two behaviors in the same thread
// can never execute simultaneously, so one req/ack identity per thread is
// exactly the granularity bus arbitration needs.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "refine/address_map.h"
#include "refine/bus_plan.h"
#include "refine/protocol.h"
#include "refine/types.h"

namespace specsyn {

/// Accumulates which (bus, master) pairs perform transfers; the refiner uses
/// it to emit exactly the needed MST_* procedures and arbiters.
struct MasterUse {
  /// bus -> master names in first-use order (arbiter priority order).
  std::map<std::string, std::vector<std::string>> bus_masters;

  void note(const std::string& bus, const std::string& master);
  [[nodiscard]] bool used(const std::string& bus,
                          const std::string& master) const;
};

/// Rewrites all variable accesses in the tree rooted at `root`, which
/// executes on `component` with top-level thread identity `thread`.
/// New tmp variables are declared on the behaviors that use them.
/// `per_thread_masters` selects the master identity granularity: when false
/// (component-granular), children of Concurrent composites keep the
/// enclosing identity — only sound for specs without concurrency.
void data_refine_tree(Behavior& root, size_t component,
                      const std::string& thread, const SpecIndex& orig,
                      const BusPlan& plan, const AddressMap& amap,
                      MasterUse& use, bool per_thread_masters = true);

}  // namespace specsyn
