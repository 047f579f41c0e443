#include "partition/partition.h"

#include "partition/channel_table.h"

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
  return var_component(id);
}

size_t Partition::var_component(SpecIndex::Id id) const {
  if (var_pin_[id] != kUnpinned) return var_pin_[id];
  const SpecIndex::Id owner = index_.var(id).owner;
  return owner != SpecIndex::kNone ? component_of(owner) : 0;
}

std::vector<size_t> Partition::behavior_components() const {
  // Pre-order ids: a parent's component is known before its children's.
  std::vector<size_t> out(index_.size());
  for (SpecIndex::Id id = 0; id < index_.size(); ++id) {
    const SpecIndex::Id parent = index_.parent(id);
    out[id] = behavior_pin_[id] != kUnpinned ? behavior_pin_[id]
              : parent != SpecIndex::kNone   ? out[parent]
                                             : 0;
  }
  return out;
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
  const ChannelTable table(index_, graph);
  const std::vector<size_t> comp = behavior_components();
  std::vector<size_t> votes(alloc_.size());
  for (SpecIndex::Id v = 0; v < index_.var_count(); ++v) {
    if (var_pin_[v] == kUnpinned) {
      var_pin_[v] = table.majority_component(v, comp, votes);
    }
  }
}

std::vector<VarPlacement> Partition::classify_vars(
    const AccessGraph& graph) const {
  const ChannelTable table(index_, graph);
  const std::vector<size_t> comp = behavior_components();
  std::vector<VarPlacement> out;
  out.reserve(index_.var_count());
  for (SpecIndex::Id v = 0; v < index_.var_count(); ++v) {
    VarPlacement p;
    p.var = index_.var(v).decl->name;
    p.component = var_component(v);
    for (const ChannelTable::Row& r : table.rows(v)) {
      p.accessor_components.insert(comp[r.behavior]);
    }
    p.is_global = table.is_global(v, p.component, comp);
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
  for (size_t c : behavior_components()) ++behaviors_per[c];
  for (size_t i = 0; i < alloc_.size(); ++i) {
    if (behaviors_per[i] == 0) {
      diags.warning("component '" + alloc_.components[i].name +
                    "' hosts no behaviors");
    }
  }
}

}  // namespace specsyn
