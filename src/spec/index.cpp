#include "spec/index.h"

namespace specsyn {

SpecIndex::SpecIndex(const Specification& spec) : spec_(&spec) {
  for (const VarDecl& v : spec.vars) {
    if (var_ids_.try_emplace(v.name, vars_.size()).second) {
      vars_.push_back({&v});
    }
  }
  for (const SignalDecl& s : spec.signals) {
    signals_.try_emplace(s.name, Declared<SignalDecl>{&s});
  }
  if (spec.top) add(*spec.top, kNone);
}

void SpecIndex::add(const Behavior& b, Id parent) {
  const Id id = static_cast<Id>(nodes_.size());
  nodes_.push_back({&b, parent, kNone});
  ids_.try_emplace(b.name, id);
  ptr_ids_.emplace(&b, id);
  for (const VarDecl& v : b.vars) {
    if (var_ids_.try_emplace(v.name, vars_.size()).second) {
      vars_.push_back({&v, id});
    }
  }
  for (const SignalDecl& s : b.signals) {
    signals_.try_emplace(s.name, Declared<SignalDecl>{&s, id});
  }
  for (const auto& c : b.children) add(*c, id);
  nodes_[id].end = static_cast<Id>(nodes_.size());
}

}  // namespace specsyn
