// One specification's simulation plan: everything a Simulator needs that
// does not change from run to run, built once and shared read-only.
//
// Building a plan validates the spec (validate_or_throw), lays out its
// variable/signal slot tables in declaration order, lowers it once to a
// Program (sim/program.h) and compiles the bytecode (sim/bytecode.h) from
// that Program. A Simulator constructed from a plan copies the tables (they
// carry the run's mutable values) and runs any tier the plan holds; it
// neither validates nor compiles.
//
// Who builds plans:
//   * callers that simulate one spec many times — the fuzz oracles (every
//     tier plus every explored schedule, from one all-tier plan per spec),
//     the sweep's refined points and its original, and schedule exploration
//     (`check --explore-schedules`), whose pooled waves all read one plan;
//   * Simulator(spec, cfg), which builds a plan for cfg.exec_tier alone and
//     holds it privately. A one-tier bytecode plan drops its Program once the
//     bytecode is compiled, so a single Simulator never holds a lowered
//     Program it does not run;
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

class SimPlan {
 public:
  /// Plan for every tier: the lowered Program and its bytecode both stay.
  /// Throws SpecError when `spec` is invalid.
  [[nodiscard]] static std::shared_ptr<const SimPlan> build(
      const Specification& spec);
  /// Plan for `tier` alone: Tree compiles nothing, Lowered keeps the
  /// Program, Bytecode compiles the bytecode and drops the Program.
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
                                             bool keep_program,
                                             bool want_bytecode);

  const Specification* spec_ = nullptr;
  VarTable vars_;
  SignalTable signals_;
  std::vector<uint8_t> observable_;
  std::unique_ptr<const Program> program_;
  std::shared_ptr<const BytecodeProgram> bytecode_;
};

}  // namespace specsyn
