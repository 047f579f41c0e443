// Name resolution for the tree tier, built once per SimPlan.
//
// The tree tier (interp.cpp) walks the specification's Stmt/Expr trees as
// written; it never reads the lowered Program or the bytecode, which is what
// keeps it an independent reference for the other two tiers. What it does not
// do any more is resolve names while it runs. One walk over the spec maps
// every node that names something to the slot it denotes, keyed by the node's
// address:
//
//   * each `Expr::NameRef` to a variable, signal or procedure-local slot,
//   * each `Assign` target to a variable or local slot,
//   * each `SignalAssign` target to a signal slot,
//   * each `Call` site to its callee's dense activation layout (params first,
//     then locals, in declaration order) and its out-param copy-backs,
//   * each `Wait` to the signal slots its condition is sensitive to.
//
// Resolution is static, the same rule SlotResolver (sim/slot_resolver.h)
// applies for the compiled tiers, written here a second time: scoping is
// lexical and spec names are globally unique, so inside a procedure body the
// procedure's params and locals shadow the global tables, and everywhere
// else a name is a variable if the VarTable knows it, otherwise a signal.
// Out-param destinations resolve in the caller's scope, where the copy-back
// runs. Wait sensitivity covers every *signal* named in the condition,
// whatever shadows it.
//
// The table also holds the spec's SpecIndex, whose pre-order behavior ids the
// tree tier interns (the compiled tiers number behaviors the same way), and
// each behavior's child ids, so entering a child never looks a pointer up.
//
// Thread-safety: immutable once built; every Simulator of the plan reads it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/signal_table.h"
#include "spec/index.h"

namespace specsyn {

class TreeResolution {
 public:
  /// Where a name lives: the VarTable, the SignalTable, or the innermost
  /// procedure activation's dense locals.
  struct Ref {
    enum class Scope : uint8_t { Var, Signal, Local };
    Scope scope = Scope::Var;
    uint32_t slot = 0;
  };

  /// One procedure's activation layout: params first, then locals.
  struct Proc {
    const Procedure* src = nullptr;
    std::vector<Type> local_types;  // wrap types, indexed by local slot
  };

  /// One call site: the callee and its out-param copy-backs (param slot ->
  /// destination in the caller's scope), in parameter order.
  struct CallSite {
    const Proc* proc = nullptr;
    std::vector<std::pair<uint32_t, Ref>> out_binds;
  };

  /// Resolves every node of `spec` against the plan's slot tables. `spec`
  /// must be valid (SpecError otherwise) and outlive the table.
  TreeResolution(const Specification& spec, const VarTable& vars,
                 const SignalTable& signals);

  TreeResolution(const TreeResolution&) = delete;
  TreeResolution& operator=(const TreeResolution&) = delete;

  [[nodiscard]] const SpecIndex& index() const { return index_; }

  /// Interned id of child `i` of behavior `id`.
  [[nodiscard]] uint32_t child(uint32_t id, size_t i) const {
    return child_ids_[child_begin_[id] + i];
  }

  /// An `Expr::NameRef`.
  [[nodiscard]] Ref name(const Expr& ref) const {
    const Entry& e = at(&ref);
    return {static_cast<Ref::Scope>(e.a), e.b};
  }
  /// The target of an `Assign`.
  [[nodiscard]] Ref target(const Stmt& assign) const {
    const Entry& e = at(&assign);
    return {static_cast<Ref::Scope>(e.a), e.b};
  }
  /// The signal slot a `SignalAssign` schedules.
  [[nodiscard]] uint32_t signal(const Stmt& signal_assign) const {
    return at(&signal_assign).b;
  }
  /// A `Call` site.
  [[nodiscard]] const CallSite& call(const Stmt& call) const {
    return calls_[at(&call).b];
  }
  /// Signal slots a `Wait` blocks on, deduplicated, in first-mention order.
  [[nodiscard]] std::span<const uint32_t> wait_signals(const Stmt& wait) const {
    const Entry& e = at(&wait);
    return {wait_signals_.data() + e.a, e.b};
  }

 private:
  class Builder;

  /// One resolved node. NameRef and Assign: a = scope, b = slot.
  /// SignalAssign: b = signal slot. Call: b = index into calls_. Wait:
  /// wait_signals_[a, a + b).
  struct Entry {
    const void* node = nullptr;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// Open-addressed lookup (linear probing, load factor at most 1/2).
  [[nodiscard]] const Entry& at(const void* node) const {
    const size_t mask = table_.size() - 1;
    for (size_t i = (reinterpret_cast<uintptr_t>(node) *
                     0x9E3779B97F4A7C15ULL) >> shift_;;
         i = (i + 1) & mask) {
      const Entry& e = table_[i];
      if (e.node == node) return e;
      if (e.node == nullptr) unresolved();
    }
  }
  [[noreturn]] static void unresolved();

  SpecIndex index_;
  std::vector<uint32_t> child_begin_;  // by behavior id, into child_ids_
  std::vector<uint32_t> child_ids_;
  std::vector<Proc> procs_;
  std::vector<CallSite> calls_;
  std::vector<uint32_t> wait_signals_;
  std::vector<Entry> table_;
  uint32_t shift_ = 63;
};

}  // namespace specsyn
