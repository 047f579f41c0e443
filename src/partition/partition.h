// System components, allocation and partitions.
//
// An Allocation is the set of system components (processors, ASICs) chosen
// for the design — the paper's step (1). A Partition maps behaviors and
// variables onto those components — step (2). Behaviors inherit their
// parent's component unless explicitly assigned (the unassigned top behavior
// lives on component 0), which mirrors SpecSyn's "move a subtree" model:
// control-related refinement is exactly the handling of behaviors whose
// component differs from their parent's.
//
// Variable locality (the knob the paper's three experimental designs turn):
// a variable is *local* iff every behavior accessing it lives on the
// variable's own component; otherwise it is *global*.
//
// A Partition builds one SpecIndex (spec/index.h) of its specification and
// keys its pins by index id, so a component lookup climbs integer parent
// ids. The specification must outlive the partition and must not change
// under it.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/access_graph.h"
#include "spec/index.h"

namespace specsyn {

enum class ComponentKind : uint8_t { Processor, Asic };

[[nodiscard]] const char* to_string(ComponentKind k);

/// One allocated system component.
struct Component {
  std::string name;          // unique, e.g. "PROC", "ASIC1"
  ComponentKind kind = ComponentKind::Asic;
  std::string device;        // informational, e.g. "Intel8086", "XC4010"
  uint64_t gates = 0;        // ASIC capacity (informational)
  uint32_t pins = 0;         // package pins (informational)
};

struct Allocation {
  std::vector<Component> components;

  /// Index of component `name`, or SIZE_MAX.
  [[nodiscard]] size_t find(const std::string& name) const;
  [[nodiscard]] size_t size() const { return components.size(); }

  /// Convenience: one processor plus one ASIC (the paper's running setup).
  [[nodiscard]] static Allocation proc_plus_asic();
  /// p ASIC components (for bus-count scaling experiments).
  [[nodiscard]] static Allocation asics(size_t p);
};

/// Locality classification of one variable under a partition.
struct VarPlacement {
  std::string var;
  size_t component = 0;  // where the variable's storage lives
  bool is_global = false;
  std::set<size_t> accessor_components;
};

class Partition {
 public:
  /// `spec` must outlive the partition and not change under it.
  Partition(const Specification& spec, Allocation alloc);

  [[nodiscard]] const Allocation& allocation() const { return alloc_; }
  [[nodiscard]] const Specification& spec() const { return index_.spec(); }
  [[nodiscard]] const SpecIndex& index() const { return index_; }

  /// Pins behavior `name` (and, by inheritance, its unpinned subtree) to a
  /// component. Throws SpecError for unknown names/components.
  void assign_behavior(const std::string& name, size_t component);
  void assign_var(const std::string& name, size_t component);

  /// Effective component of a behavior: its own pin, else the nearest pinned
  /// ancestor, else component 0.
  [[nodiscard]] size_t component_of_behavior(const std::string& name) const;

  /// Effective component of a variable: its own pin, else the effective
  /// component of its declaring behavior (spec-level vars default to 0).
  [[nodiscard]] size_t component_of_var(const std::string& name) const;

  /// True if the behavior's component differs from its parent's — i.e. the
  /// behavior was "moved out" and needs control-related refinement.
  [[nodiscard]] bool is_cut_behavior(const std::string& name) const;

  /// All cut behaviors, outermost first (a moved subtree is reported once).
  [[nodiscard]] std::vector<std::string> cut_behaviors() const;

  /// Pins every unpinned variable to the component that performs the most
  /// static accesses to it (ties to the lowest index). This and the two
  /// classifications below apply ChannelTable's vote and locality rules.
  void auto_assign_vars(const AccessGraph& graph);

  /// Locality classification for every variable under this partition.
  [[nodiscard]] std::vector<VarPlacement> classify_vars(
      const AccessGraph& graph) const;

  /// (#local, #global) under this partition.
  [[nodiscard]] std::pair<size_t, size_t> local_global_counts(
      const AccessGraph& graph) const;

  /// Warns when a component hosts no behavior. Pins need no check:
  /// assign_behavior and assign_var reject a component out of range.
  void check(DiagnosticSink& diags) const;

 private:
  static constexpr size_t kUnpinned = SIZE_MAX;

  [[nodiscard]] size_t component_of(SpecIndex::Id behavior) const;
  [[nodiscard]] size_t var_component(SpecIndex::Id var) const;
  /// The effective component of every behavior, by id.
  [[nodiscard]] std::vector<size_t> behavior_components() const;
  [[nodiscard]] bool is_cut(SpecIndex::Id behavior) const;

  Allocation alloc_;
  SpecIndex index_;
  std::vector<size_t> behavior_pin_;  ///< by behavior id
  std::vector<size_t> var_pin_;       ///< by variable id
};

}  // namespace specsyn
