// One specification's simulation plan: everything a Simulator needs that
// does not change from run to run, built once and shared read-only.
//
// Building a plan validates the spec (validate_or_throw) and lays out its
// variable/signal slot tables in declaration order. Then, per tier it serves,
// it builds that tier's form of the spec straight from the spec itself:
//   * Tree: the name resolution table (sim/tree_resolution.h, which also
//     holds the spec's SpecIndex);
//   * Lowered: the lowered Program (sim/program.h);
//   * Bytecode: the bytecode (sim/bytecode.h), compiled in one walk; a
//     bytecode plan never builds a Program.
// The two compiled tiers take their name resolution, postfix emission and
// wait-sensitivity rules from one helper (sim/slot_resolver.h); the tree
// tier's table is an independent second resolver. A Simulator constructed
// from a plan copies the slot tables (they carry the run's mutable values)
// and runs any tier the plan holds; it neither validates, resolves nor
// compiles.
//
// Who builds plans:
//   * callers that simulate one spec many times — the fuzz oracles (every
//     tier plus every explored schedule, from one all-tier plan per spec),
//     the sweep's refined points and its original, and schedule exploration
//     (`check --explore-schedules`), whose pooled waves all read one plan;
//   * Simulator(spec, cfg), which builds a plan for cfg.exec_tier alone and
//     holds it privately, so a single Simulator never builds a form of the
//     spec it does not run;
//   * ProgramCache, whose entries are one-tier plans over a spec clone.
//
// Thread-safety: a plan is immutable once built; any number of Simulators on
// any number of threads may share one. The spec a plan was built from must
// outlive the plan and every Simulator built from it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/signal_table.h"
#include "sim/simulator.h"

namespace specsyn {

class Program;
class BytecodeProgram;
class TreeResolution;

class SimPlan {
 public:
  /// Plan for every tier: the tree tier's resolution table, the lowered
  /// Program and the bytecode. Throws SpecError when `spec` is invalid.
  [[nodiscard]] static std::shared_ptr<const SimPlan> build(
      const Specification& spec);
  /// Plan for `tier` alone: Tree resolves names, Lowered lowers the
  /// Program, Bytecode compiles the bytecode; each builds nothing else.
  [[nodiscard]] static std::shared_ptr<const SimPlan> build(
      const Specification& spec, ExecTier tier);

  SimPlan(const SimPlan&) = delete;
  SimPlan& operator=(const SimPlan&) = delete;
  ~SimPlan();

  [[nodiscard]] const Specification& spec() const { return *spec_; }
  /// Slot layouts holding the declared initial values.
  [[nodiscard]] const VarTable& vars() const { return vars_; }
  [[nodiscard]] const SignalTable& signals() const { return signals_; }
  /// Per variable slot: 1 when writes to it are traced (`observable`).
  [[nodiscard]] const std::vector<uint8_t>& observable() const {
    return observable_;
  }
  /// Null unless the plan was built for the tree tier (or every tier).
  [[nodiscard]] const TreeResolution* tree() const { return tree_.get(); }
  /// Null unless the plan was built for the lowered tier (or every tier).
  [[nodiscard]] const Program* program() const { return program_.get(); }
  /// Null unless the plan was built for the bytecode tier (or every tier).
  [[nodiscard]] const BytecodeProgram* bytecode() const {
    return bytecode_.get();
  }
  /// True when a Simulator can run this plan on `tier`.
  [[nodiscard]] bool has_tier(ExecTier tier) const;

 private:
  SimPlan() = default;
  static std::shared_ptr<const SimPlan> make(const Specification& spec,
                                             bool want_tree,
                                             bool want_program,
                                             bool want_bytecode);

  const Specification* spec_ = nullptr;
  VarTable vars_;
  SignalTable signals_;
  std::vector<uint8_t> observable_;
  std::unique_ptr<const TreeResolution> tree_;
  std::unique_ptr<const Program> program_;
  std::shared_ptr<const BytecodeProgram> bytecode_;
};

}  // namespace specsyn
