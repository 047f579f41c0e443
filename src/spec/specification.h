// The Specification: the unit of input and output of every pass.
//
// A specification bundles a behavior hierarchy with specification-level
// variable/signal declarations and a procedure library. The original
// functional model handed to codesign typically has *no* signals and *no*
// procedures; the refiner introduces both (B_start/B_done control signals,
// bus signal bundles, MST_*/SLV_* protocol procedures) on its way to an
// implementation model.
//
// Name discipline: behavior names, variable names and signal names must each
// be unique across the entire specification (validate() enforces this).
// Variables and signals share one namespace. This mirrors the flat name
// space the paper's refinement examples assume and lets every pass identify
// an object by name alone.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spec/behavior.h"
#include "support/diagnostics.h"

namespace specsyn {

struct Specification {
  std::string name;
  std::vector<VarDecl> vars;       // specification-level (visible everywhere)
  std::vector<SignalDecl> signals; // specification-level
  std::vector<Procedure> procedures;
  BehaviorPtr top;

  [[nodiscard]] Specification clone() const;

  // -- lookup ---------------------------------------------------------------
  //
  // Lookups come in const/non-const pairs: a `const Specification&` hands out
  // only `const Behavior*`, so a spec shared read-only across batch workers
  // (src/batch) cannot be mutated through a lookup — the compiler enforces
  // the const-sharing contract. Name lookups walk the tree; a pass that makes
  // more than one builds a SpecIndex (spec/index.h) instead.

  /// Behavior with the given name anywhere in the hierarchy, or nullptr.
  [[nodiscard]] Behavior* find_behavior(const std::string& name);
  [[nodiscard]] const Behavior* find_behavior(const std::string& name) const;

  /// All behaviors, pre-order from top.
  [[nodiscard]] std::vector<Behavior*> all_behaviors();
  [[nodiscard]] std::vector<const Behavior*> all_behaviors() const;

  /// Procedure by name, or nullptr.
  [[nodiscard]] const Procedure* find_procedure(const std::string& name) const;

  /// Every variable declared anywhere in the specification.
  [[nodiscard]] std::vector<const VarDecl*> all_vars() const;
  [[nodiscard]] std::vector<const SignalDecl*> all_signals() const;

  /// Total statement count across all behaviors and procedures.
  [[nodiscard]] size_t stmt_count() const;

  /// True if no behavior in the hierarchy is a Concurrent composite.
  /// (Purely sequential specs admit a stronger equivalence check: per-
  /// variable write traces, not just final values.)
  [[nodiscard]] bool is_fully_sequential() const;
};

/// Deepest nesting the parser accepts (SP002). Behaviors, statement blocks,
/// parentheses, unary operators and expression-tree height all count, so a
/// left-deep `1+1+...+1` chain is as deep as its length. Every pass walks
/// these trees recursively; the bound keeps each of them inside the stack.
inline constexpr size_t kMaxNestingDepth = 1000;

/// The nesting the parser counts reading `print(spec)`; the text parses iff
/// this is at most kMaxNestingDepth.
[[nodiscard]] size_t nesting_depth(const Specification& spec);

/// Structural validation: unique names, resolvable references, transitions
/// naming real siblings, leaf/composite shape rules, call arity and out-param
/// shape, scoping of every name use. Returns true if no errors were emitted.
bool validate(const Specification& spec, DiagnosticSink& diags);

/// Convenience wrapper: validates and throws SpecError with the collected
/// diagnostics if validation fails. Passes with documented "valid input"
/// preconditions call this on entry.
void validate_or_throw(const Specification& spec);

}  // namespace specsyn
