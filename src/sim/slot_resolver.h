// The compiled tiers' shared front end: the three rules by which a validated
// spec's names, expressions and wait conditions map onto a plan's slot
// tables (sim/plan.h).
//
// Both compilers walk the spec's Behavior/Stmt trees themselves —
// Program::compile for the lowered tier (sim/program.h) and
// BytecodeProgram::compile for the bytecode tier (sim/bytecode.h) — and call
// this one helper wherever they must agree:
//
//   * name resolution: inside a procedure body the procedure's params and
//     locals shadow the global tables; everywhere else a name is a variable
//     if the VarTable knows it, otherwise a signal. Scoping is lexical and
//     spec names are globally unique, so each use site has exactly one
//     runtime meaning. Out-param destinations resolve in the caller's scope,
//     where the copy-back runs;
//   * postfix expression emission: operand order matches the recursive
//     evaluator (args[0] fully, then args[1]), so observer read events fire
//     in the same order on every tier;
//   * wait sensitivity: every *signal* the condition names, whatever shadows
//     it (procedure locals never suppress signal wakeups), deduplicated in
//     first-mention order.
//
// The tree tier resolves names independently (sim/tree_resolution.h), which
// keeps it a second opinion that interp-diff checks these rules against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/signal_table.h"
#include "spec/specification.h"

namespace specsyn {

/// One postfix expression op. The lowered Program pools all of its ops in
/// one vector; the bytecode compiler lowers each expression into a reused
/// scratch vector of them before register allocation.
struct LOp {
  enum class Kind : uint8_t {
    PushLit,     // push `lit`
    PushVar,     // push vars[slot]      (fires on_var_read when observed)
    PushSignal,  // push signals[slot]
    PushLocal,   // push innermost call frame's locals[slot]
    Unary,       // apply UnOp(op) to the top of stack
    Binary,      // pop rhs, apply BinOp(op) to (new top, rhs)
  };
  Kind kind = Kind::PushLit;
  uint8_t op = 0;     // UnOp / BinOp, for Unary / Binary
  uint32_t slot = 0;  // Push{Var,Signal,Local}
  uint64_t lit = 0;   // PushLit
};

/// Pre-resolved destination of a variable assignment (`:=` target or an
/// out-parameter copy-back destination).
struct LTarget {
  enum class Scope : uint8_t { Var, Local };
  Scope scope = Scope::Var;
  uint32_t slot = 0;
};

class SlotResolver {
 public:
  /// One procedure's dense activation layout: params first, then locals, in
  /// declaration order.
  struct Frame {
    const Procedure* src = nullptr;
    std::vector<Type> local_types;  // wrap types, indexed by local slot
    std::unordered_map<std::string_view, uint32_t> slots;
  };

  /// `spec` must be valid; every reference must outlive the resolver.
  SlotResolver(const Specification& spec, const VarTable& vars,
               const SignalTable& signals);

  /// Index into `spec.procedures` of the procedure called `name`.
  [[nodiscard]] uint32_t proc_index(const std::string& name) const;
  /// Layout of procedure `idx`, laid out on first request.
  const Frame& frame(uint32_t idx);

  /// Destination of an assignment to `name` (`scope` is null outside
  /// procedure bodies).
  [[nodiscard]] LTarget target(const std::string& name,
                               const Frame* scope) const;
  /// Slot of the signal a `<=` to `name` schedules.
  [[nodiscard]] uint32_t signal(const std::string& name) const;
  /// Appends the postfix ops of `e` to `out`; returns the deepest value
  /// stack their evaluation needs.
  uint32_t emit(const Expr& e, const Frame* scope,
                std::vector<LOp>& out) const;
  /// Appends to `out` the signal slots a `wait` on `cond` blocks on.
  void wait_signals(const Expr& cond, std::vector<uint32_t>& out) const;

 private:
  void emit(const Expr& e, const Frame* scope, std::vector<LOp>& out,
            uint32_t& depth, uint32_t& max_depth) const;
  void sensitivity(const Expr& e, std::vector<uint32_t>& out,
                   size_t first) const;

  const Specification& spec_;
  const VarTable& vars_;
  const SignalTable& signals_;
  std::unordered_map<std::string_view, uint32_t> procs_;
  std::vector<Frame> frames_;  // by procedure index; src null until laid out
};

}  // namespace specsyn
