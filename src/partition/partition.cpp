#include "partition/partition.h"

namespace specsyn {

const char* to_string(ComponentKind k) {
  switch (k) {
    case ComponentKind::Processor: return "processor";
    case ComponentKind::Asic: return "asic";
  }
  return "?";
}

size_t Allocation::find(const std::string& name) const {
  for (size_t i = 0; i < components.size(); ++i) {
    if (components[i].name == name) return i;
  }
  return SIZE_MAX;
}

Allocation Allocation::proc_plus_asic() {
  Allocation a;
  a.components.push_back(
      {"PROC", ComponentKind::Processor, "Intel8086", 0, 40});
  a.components.push_back({"ASIC", ComponentKind::Asic, "XC4010", 10'000, 75});
  return a;
}

Allocation Allocation::asics(size_t p) {
  Allocation a;
  for (size_t i = 0; i < p; ++i) {
    a.components.push_back({"ASIC" + std::to_string(i + 1),
                            ComponentKind::Asic, "XC4010", 10'000, 75});
  }
  return a;
}

Partition::Partition(const Specification& spec, Allocation alloc)
    : alloc_(std::move(alloc)),
      index_(spec),
      behavior_pin_(index_.size(), kUnpinned),
      var_pin_(index_.var_count(), kUnpinned) {
  if (alloc_.components.empty()) {
    throw SpecError("partition requires at least one allocated component");
  }
}

void Partition::assign_behavior(const std::string& name, size_t component) {
  const SpecIndex::Id id = index_.id_of(name);
  if (id == SpecIndex::kNone) {
    throw SpecError("assign_behavior: unknown behavior '" + name + "'");
  }
  if (component >= alloc_.size()) {
    throw SpecError("assign_behavior: component index out of range");
  }
  behavior_pin_[id] = component;
}

void Partition::assign_var(const std::string& name, size_t component) {
  const SpecIndex::Id id = index_.var_id(name);
  if (id == SpecIndex::kNone) {
    throw SpecError("assign_var: unknown variable '" + name + "'");
  }
  if (component >= alloc_.size()) {
    throw SpecError("assign_var: component index out of range");
  }
  var_pin_[id] = component;
}

size_t Partition::component_of(SpecIndex::Id id) const {
  for (; id != SpecIndex::kNone; id = index_.parent(id)) {
    if (behavior_pin_[id] != kUnpinned) return behavior_pin_[id];
  }
  return 0;
}

size_t Partition::component_of_behavior(const std::string& name) const {
  return component_of(index_.id_of(name));
}

size_t Partition::component_of_var(const std::string& name) const {
  const SpecIndex::Id id = index_.var_id(name);
  if (id == SpecIndex::kNone) {
    throw SpecError("component_of_var: unknown variable '" + name + "'");
  }
  if (var_pin_[id] != kUnpinned) return var_pin_[id];
  const SpecIndex::Id owner = index_.var(id).owner;
  return owner != SpecIndex::kNone ? component_of(owner) : 0;
}

bool Partition::is_cut(SpecIndex::Id id) const {
  const SpecIndex::Id parent = index_.parent(id);
  return parent != SpecIndex::kNone && component_of(id) != component_of(parent);
}

bool Partition::is_cut_behavior(const std::string& name) const {
  const SpecIndex::Id id = index_.id_of(name);
  return id != SpecIndex::kNone && is_cut(id);  // top is never cut
}

std::vector<std::string> Partition::cut_behaviors() const {
  // Pre-order ids: an outer cut subtree is reported before (and hides) cuts
  // that merely re-inherit inside it.
  std::vector<std::string> out;
  for (SpecIndex::Id id = 0; id < index_.size(); ++id) {
    if (is_cut(id)) out.push_back(index_.behavior(id).name);
  }
  return out;
}

void Partition::auto_assign_vars(const AccessGraph& graph) {
  for (SpecIndex::Id v = 0; v < index_.var_count(); ++v) {
    if (var_pin_[v] != kUnpinned) continue;
    const std::string& name = index_.var(v).decl->name;
    std::vector<size_t> votes(alloc_.size(), 0);
    for (const DataChannel& c : graph.data_channels()) {
      if (c.var == name) votes[component_of_behavior(c.behavior)] += c.sites;
    }
    size_t best = 0;
    for (size_t i = 1; i < votes.size(); ++i) {
      if (votes[i] > votes[best]) best = i;
    }
    var_pin_[v] = best;
  }
}

std::vector<VarPlacement> Partition::classify_vars(
    const AccessGraph& graph) const {
  std::vector<VarPlacement> out;
  for (SpecIndex::Id id = 0; id < index_.var_count(); ++id) {
    const VarDecl* v = index_.var(id).decl;
    VarPlacement p;
    p.var = v->name;
    p.component = component_of_var(v->name);
    for (const std::string& b : graph.accessors_of(v->name)) {
      p.accessor_components.insert(component_of_behavior(b));
    }
    // Local iff every accessor lives on the variable's own component.
    p.is_global = false;
    for (size_t c : p.accessor_components) {
      if (c != p.component) p.is_global = true;
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::pair<size_t, size_t> Partition::local_global_counts(
    const AccessGraph& graph) const {
  size_t local = 0, global = 0;
  for (const VarPlacement& p : classify_vars(graph)) {
    (p.is_global ? global : local) += 1;
  }
  return {local, global};
}

void Partition::check(DiagnosticSink& diags) const {
  std::vector<size_t> behaviors_per(alloc_.size(), 0);
  for (SpecIndex::Id id = 0; id < index_.size(); ++id) {
    ++behaviors_per[component_of(id)];
  }
  for (size_t i = 0; i < alloc_.size(); ++i) {
    if (behaviors_per[i] == 0) {
      diags.warning("component '" + alloc_.components[i].name +
                    "' hosts no behaviors");
    }
  }
}

}  // namespace specsyn
