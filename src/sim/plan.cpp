#include "sim/plan.h"

#include <utility>

#include "sim/bytecode.h"
#include "sim/program.h"
#include "sim/tree_resolution.h"
#include "telemetry/telemetry.h"

namespace specsyn {

SimPlan::~SimPlan() = default;

std::shared_ptr<const SimPlan> SimPlan::make(const Specification& spec,
                                             bool want_tree,
                                             bool want_program,
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
  if (want_tree) {
    plan->tree_ = std::make_unique<const TreeResolution>(spec, plan->vars_,
                                                         plan->signals_);
  }
  if (want_program) {
    telemetry::Span span("lower", telemetry::Stability::Sched);
    plan->program_ = Program::compile(spec, plan->vars_, plan->signals_);
  }
  if (want_bytecode) {
    telemetry::Span span("bytecode_compile", telemetry::Stability::Sched);
    plan->bytecode_ =
        BytecodeProgram::compile(spec, plan->vars_, plan->signals_);
  }
  return plan;
}

std::shared_ptr<const SimPlan> SimPlan::build(const Specification& spec) {
  return make(spec, true, true, true);
}

std::shared_ptr<const SimPlan> SimPlan::build(const Specification& spec,
                                              ExecTier tier) {
  return make(spec, tier == ExecTier::Tree, tier == ExecTier::Lowered,
              tier == ExecTier::Bytecode);
}

bool SimPlan::has_tier(ExecTier tier) const {
  switch (tier) {
    case ExecTier::Tree:
      return tree_ != nullptr;
    case ExecTier::Lowered:
      return program_ != nullptr;
    case ExecTier::Bytecode:
      return bytecode_ != nullptr;
  }
  return false;
}

}  // namespace specsyn
