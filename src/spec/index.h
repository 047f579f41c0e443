// SpecIndex: a specification's behavior tree and declaration tables, built
// in one pre-order pass and immutable afterwards.
//
// Behaviors are numbered in pre-order (0 is the top), so a subtree is the id
// interval [id, end) and "is an ancestor of" is two comparisons. Variables
// are numbered specification level first, then behavior by behavior in
// pre-order. A name lookup returns the first declaration, which is the only
// one in a valid specification. The index points into `spec`, which must
// outlive it and must not change under it.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spec/specification.h"

namespace specsyn {

class SpecIndex {
 public:
  using Id = uint32_t;
  static constexpr Id kNone = UINT32_MAX;

  /// A declaration and its declaring behavior (kNone: specification level);
  /// `decl` is null for an unknown name.
  template <typename D>
  struct Declared {
    const D* decl = nullptr;
    Id owner = kNone;
  };

  explicit SpecIndex(const Specification& spec);

  [[nodiscard]] const Specification& spec() const { return *spec_; }

  // -- behaviors (kNone for unknown ones) -------------------------------------
  [[nodiscard]] size_t size() const { return nodes_.size(); }
  [[nodiscard]] Id id_of(std::string_view n) const { return get(ids_, n); }
  [[nodiscard]] Id id_of(const Behavior* b) const { return get(ptr_ids_, b); }
  [[nodiscard]] const Behavior& behavior(Id id) const { return *nodes_[id].b; }
  /// kNone for the top behavior.
  [[nodiscard]] Id parent(Id id) const { return nodes_[id].parent; }
  /// True when `a` is `d` or one of its ancestors.
  [[nodiscard]] bool is_ancestor(Id a, Id d) const {
    return a <= d && d < nodes_[a].end;
  }
  /// nullptr for the top or an unknown behavior.
  [[nodiscard]] const Behavior* parent_of(const Behavior* b) const {
    const Id id = id_of(b);
    if (id == kNone || parent(id) == kNone) return nullptr;
    return &behavior(parent(id));
  }

  // -- declarations -----------------------------------------------------------
  [[nodiscard]] size_t var_count() const { return vars_.size(); }
  [[nodiscard]] Id var_id(std::string_view n) const { return get(var_ids_, n); }
  [[nodiscard]] const Declared<VarDecl>& var(Id id) const { return vars_[id]; }
  [[nodiscard]] const VarDecl* find_var(std::string_view n) const {
    const Id id = var_id(n);
    return id == kNone ? nullptr : vars_[id].decl;
  }
  [[nodiscard]] Declared<SignalDecl> signal(std::string_view n) const {
    return get(signals_, n, Declared<SignalDecl>{});
  }

 private:
  struct Node {
    const Behavior* b;
    Id parent;
    Id end;  ///< one past the subtree's last id
  };

  template <typename K, typename V>
  static V get(const std::unordered_map<K, V>& m, const K& key,
               V missing = V(kNone)) {
    const auto it = m.find(key);
    return it == m.end() ? missing : it->second;
  }

  void add(const Behavior& b, Id parent);

  const Specification* spec_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string_view, Id> ids_;
  std::unordered_map<const Behavior*, Id> ptr_ids_;
  std::vector<Declared<VarDecl>> vars_;
  std::unordered_map<std::string_view, Id> var_ids_;
  std::unordered_map<std::string_view, Declared<SignalDecl>> signals_;
};

}  // namespace specsyn
