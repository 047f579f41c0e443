#include "sim/slot_resolver.h"

#include <algorithm>

namespace specsyn {

SlotResolver::SlotResolver(const Specification& spec, const VarTable& vars,
                           const SignalTable& signals)
    : spec_(spec),
      vars_(vars),
      signals_(signals),
      frames_(spec.procedures.size()) {
  procs_.reserve(spec.procedures.size());
  for (size_t i = 0; i < spec.procedures.size(); ++i) {
    procs_.emplace(spec.procedures[i].name, static_cast<uint32_t>(i));
  }
}

uint32_t SlotResolver::proc_index(const std::string& name) const {
  const auto it = procs_.find(name);
  if (it == procs_.end()) {
    throw SpecError("compile: call to unknown procedure '" + name + "'");
  }
  return it->second;
}

const SlotResolver::Frame& SlotResolver::frame(uint32_t idx) {
  Frame& f = frames_[idx];
  if (f.src != nullptr) return f;
  const Procedure& p = spec_.procedures[idx];
  f.src = &p;
  f.local_types.reserve(p.params.size() + p.locals.size());
  for (const Param& prm : p.params) {
    f.slots.emplace(prm.name, static_cast<uint32_t>(f.local_types.size()));
    f.local_types.push_back(prm.type);
  }
  for (const auto& [name, type] : p.locals) {
    f.slots.emplace(name, static_cast<uint32_t>(f.local_types.size()));
    f.local_types.push_back(type);
  }
  return f;
}

LTarget SlotResolver::target(const std::string& name,
                             const Frame* scope) const {
  if (scope != nullptr) {
    const auto it = scope->slots.find(name);
    if (it != scope->slots.end()) return {LTarget::Scope::Local, it->second};
  }
  const size_t vi = vars_.find(name);
  if (vi == SIZE_MAX) {
    throw SpecError("compile: assignment to unresolved name '" + name + "'");
  }
  return {LTarget::Scope::Var, static_cast<uint32_t>(vi)};
}

uint32_t SlotResolver::signal(const std::string& name) const {
  const size_t si = signals_.find(name);
  if (si == SIZE_MAX) {
    throw SpecError("compile: '<=' to unknown signal '" + name + "'");
  }
  return static_cast<uint32_t>(si);
}

uint32_t SlotResolver::emit(const Expr& e, const Frame* scope,
                            std::vector<LOp>& out) const {
  uint32_t depth = 0;
  uint32_t max_depth = 0;
  emit(e, scope, out, depth, max_depth);
  return max_depth;
}

void SlotResolver::emit(const Expr& e, const Frame* scope,
                        std::vector<LOp>& out, uint32_t& depth,
                        uint32_t& max_depth) const {
  LOp op;
  switch (e.kind) {
    case Expr::Kind::IntLit:
      op.kind = LOp::Kind::PushLit;
      op.lit = e.int_value;
      max_depth = std::max(max_depth, ++depth);
      break;
    case Expr::Kind::NameRef: {
      max_depth = std::max(max_depth, ++depth);
      if (scope != nullptr) {
        const auto it = scope->slots.find(e.name);
        if (it != scope->slots.end()) {
          op.kind = LOp::Kind::PushLocal;
          op.slot = it->second;
          break;
        }
      }
      if (const size_t vi = vars_.find(e.name); vi != SIZE_MAX) {
        op.kind = LOp::Kind::PushVar;
        op.slot = static_cast<uint32_t>(vi);
      } else if (const size_t si = signals_.find(e.name); si != SIZE_MAX) {
        op.kind = LOp::Kind::PushSignal;
        op.slot = static_cast<uint32_t>(si);
      } else {
        throw SpecError("compile: unresolved name '" + e.name + "'");
      }
      break;
    }
    case Expr::Kind::Unary:
      emit(*e.args[0], scope, out, depth, max_depth);
      op.kind = LOp::Kind::Unary;
      op.op = static_cast<uint8_t>(e.un_op);
      break;
    case Expr::Kind::Binary:
      emit(*e.args[0], scope, out, depth, max_depth);
      emit(*e.args[1], scope, out, depth, max_depth);
      op.kind = LOp::Kind::Binary;
      op.op = static_cast<uint8_t>(e.bin_op);
      --depth;
      break;
  }
  out.push_back(op);
}

void SlotResolver::wait_signals(const Expr& cond,
                                std::vector<uint32_t>& out) const {
  sensitivity(cond, out, out.size());
}

void SlotResolver::sensitivity(const Expr& e, std::vector<uint32_t>& out,
                               size_t first) const {
  if (e.kind == Expr::Kind::NameRef) {
    const size_t si = signals_.find(e.name);
    if (si != SIZE_MAX &&
        std::find(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                  si) == out.end()) {
      out.push_back(static_cast<uint32_t>(si));
    }
  }
  for (const ExprPtr& a : e.args) sensitivity(*a, out, first);
}

}  // namespace specsyn
