#include "sim/plan.h"

#include <utility>

#include "sim/bytecode.h"
#include "sim/program.h"
#include "telemetry/telemetry.h"

namespace specsyn {

SimPlan::~SimPlan() = default;

std::shared_ptr<const SimPlan> SimPlan::make(const Specification& spec,
                                             bool keep_program,
                                             bool want_bytecode) {
  validate_or_throw(spec);
  std::shared_ptr<SimPlan> plan(new SimPlan());
  plan->spec_ = &spec;
  for (const VarDecl* v : spec.all_vars()) {
    const size_t idx = plan->vars_.add(v->name, v->type, v->init);
    plan->observable_.resize(plan->vars_.size(), 0);
    if (v->is_observable) plan->observable_[idx] = 1;
  }
  for (const SignalDecl* s : spec.all_signals()) {
    plan->signals_.add(s->name, s->type, s->init);
  }
  if (keep_program || want_bytecode) {
    std::unique_ptr<const Program> program;
    {
      telemetry::Span span("lower", telemetry::Stability::Sched);
      program = Program::compile(spec, plan->vars_, plan->signals_);
    }
    if (want_bytecode) {
      telemetry::Span span("bytecode_compile", telemetry::Stability::Sched);
      plan->bytecode_ = BytecodeProgram::compile(*program);
    }
    if (keep_program) plan->program_ = std::move(program);
  }
  return plan;
}

std::shared_ptr<const SimPlan> SimPlan::build(const Specification& spec) {
  return make(spec, true, true);
}

std::shared_ptr<const SimPlan> SimPlan::build(const Specification& spec,
                                              ExecTier tier) {
  return make(spec, tier == ExecTier::Lowered, tier == ExecTier::Bytecode);
}

bool SimPlan::has_tier(ExecTier tier) const {
  switch (tier) {
    case ExecTier::Tree:
      return true;
    case ExecTier::Lowered:
      return program_ != nullptr;
    case ExecTier::Bytecode:
      return bytecode_ != nullptr;
  }
  return false;
}

}  // namespace specsyn
