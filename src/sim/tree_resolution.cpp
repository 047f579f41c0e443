#include "sim/tree_resolution.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace specsyn {

/// The one walk: resolves nodes into `entries_`, then lays out the table.
class TreeResolution::Builder {
 public:
  /// Name -> dense local slot of the procedure being walked (null at
  /// specification scope: behavior bodies and transition guards).
  using ProcScope = std::unordered_map<std::string_view, uint32_t>;

  Builder(TreeResolution& out, const VarTable& vars, const SignalTable& signals)
      : out_(out), vars_(vars), signals_(signals) {}

  void run(const Specification& spec) {
    // Procedure layouts first, so any call site can name any callee.
    std::vector<ProcScope> scopes(spec.procedures.size());
    out_.procs_.resize(spec.procedures.size());
    for (size_t i = 0; i < spec.procedures.size(); ++i) {
      const Procedure& p = spec.procedures[i];
      Proc& lp = out_.procs_[i];
      lp.src = &p;
      for (const Param& prm : p.params) {
        scopes[i].emplace(prm.name,
                          static_cast<uint32_t>(lp.local_types.size()));
        lp.local_types.push_back(prm.type);
      }
      for (const auto& [name, type] : p.locals) {
        scopes[i].emplace(name,
                          static_cast<uint32_t>(lp.local_types.size()));
        lp.local_types.push_back(type);
      }
      procs_.emplace(p.name, &lp);
    }
    for (size_t i = 0; i < spec.procedures.size(); ++i) {
      block(spec.procedures[i].body, &scopes[i]);
    }

    const SpecIndex& index = out_.index_;
    out_.child_begin_.reserve(index.size());
    for (uint32_t id = 0; id < index.size(); ++id) {
      const Behavior& b = index.behavior(id);
      out_.child_begin_.push_back(
          static_cast<uint32_t>(out_.child_ids_.size()));
      for (const BehaviorPtr& c : b.children) {
        out_.child_ids_.push_back(index.id_of(c.get()));
      }
      block(b.body, nullptr);
      for (const Transition& t : b.transitions) {
        if (t.guard) expr(*t.guard, nullptr);
      }
    }
    lay_out();
  }

 private:
  void block(const StmtList& stmts, const ProcScope* scope) {
    for (const StmtPtr& s : stmts) stmt(*s, scope);
  }

  void stmt(const Stmt& s, const ProcScope* scope) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        const Ref r = target(s.target, scope);
        add(&s, static_cast<uint32_t>(r.scope), r.slot);
        expr(*s.expr, scope);
        break;
      }
      case Stmt::Kind::SignalAssign: {
        const size_t si = signals_.find(s.target);
        if (si == SIZE_MAX) {
          throw SpecError("simulator: '<=' to unknown signal '" + s.target +
                          "'");
        }
        add(&s, 0, static_cast<uint32_t>(si));
        expr(*s.expr, scope);
        break;
      }
      case Stmt::Kind::If:
        expr(*s.expr, scope);
        block(s.then_block, scope);
        block(s.else_block, scope);
        break;
      case Stmt::Kind::While:
      case Stmt::Kind::Loop:
        if (s.expr) expr(*s.expr, scope);
        block(s.then_block, scope);
        break;
      case Stmt::Kind::Wait: {
        expr(*s.expr, scope);
        const auto first = static_cast<uint32_t>(out_.wait_signals_.size());
        sensitivity(*s.expr, first);
        add(&s, first,
            static_cast<uint32_t>(out_.wait_signals_.size()) - first);
        break;
      }
      case Stmt::Kind::Call: {
        const auto it = procs_.find(s.callee);
        if (it == procs_.end()) {
          throw SpecError("simulator: call to unknown procedure '" + s.callee +
                          "'");
        }
        CallSite site;
        site.proc = it->second;
        const Procedure& proc = *site.proc->src;
        for (size_t i = 0; i < proc.params.size(); ++i) {
          if (proc.params[i].is_out) {
            // Validated call sites pass a plain variable name for an
            // out-param; it resolves where the copy-back runs.
            site.out_binds.emplace_back(static_cast<uint32_t>(i),
                                        target(s.args[i]->name, scope));
          } else {
            expr(*s.args[i], scope);
          }
        }
        add(&s, 0, static_cast<uint32_t>(out_.calls_.size()));
        out_.calls_.push_back(std::move(site));
        break;
      }
      case Stmt::Kind::Delay:
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        break;
    }
  }

  void expr(const Expr& e, const ProcScope* scope) {
    if (e.kind == Expr::Kind::NameRef) {
      Ref r;
      if (!local(e.name, scope, r)) {
        if (const size_t vi = vars_.find(e.name); vi != SIZE_MAX) {
          r = {Ref::Scope::Var, static_cast<uint32_t>(vi)};
        } else if (const size_t si = signals_.find(e.name); si != SIZE_MAX) {
          r = {Ref::Scope::Signal, static_cast<uint32_t>(si)};
        } else {
          throw SpecError("simulator: unresolved name '" + e.name + "'");
        }
      }
      add(&e, static_cast<uint32_t>(r.scope), r.slot);
    }
    for (const ExprPtr& a : e.args) expr(*a, scope);
  }

  // Appends every signal `e` names to wait_signals_ once, in pre-order.
  void sensitivity(const Expr& e, uint32_t first) {
    if (e.kind == Expr::Kind::NameRef) {
      const size_t si = signals_.find(e.name);
      if (si != SIZE_MAX &&
          std::find(out_.wait_signals_.begin() + first,
                    out_.wait_signals_.end(), si) == out_.wait_signals_.end()) {
        out_.wait_signals_.push_back(static_cast<uint32_t>(si));
      }
    }
    for (const ExprPtr& a : e.args) sensitivity(*a, first);
  }

  static bool local(const std::string& name, const ProcScope* scope, Ref& out) {
    if (scope == nullptr) return false;
    const auto it = scope->find(name);
    if (it == scope->end()) return false;
    out = {Ref::Scope::Local, it->second};
    return true;
  }

  Ref target(const std::string& name, const ProcScope* scope) const {
    Ref r;
    if (local(name, scope, r)) return r;
    const size_t vi = vars_.find(name);
    if (vi == SIZE_MAX) {
      throw SpecError("simulator: assignment to unresolved name '" + name +
                      "'");
    }
    return {Ref::Scope::Var, static_cast<uint32_t>(vi)};
  }

  void add(const void* node, uint32_t a, uint32_t b) {
    entries_.push_back({node, a, b});
  }

  void lay_out() {
    uint32_t bits = 1;
    while ((size_t{1} << bits) < 2 * entries_.size()) ++bits;
    out_.table_.assign(size_t{1} << bits, Entry{});
    out_.shift_ = 64 - bits;
    const size_t mask = out_.table_.size() - 1;
    for (const Entry& e : entries_) {
      size_t i = (reinterpret_cast<uintptr_t>(e.node) *
                  0x9E3779B97F4A7C15ULL) >> out_.shift_;
      while (out_.table_[i].node != nullptr) i = (i + 1) & mask;
      out_.table_[i] = e;
    }
  }

  TreeResolution& out_;
  const VarTable& vars_;
  const SignalTable& signals_;
  std::unordered_map<std::string_view, const Proc*> procs_;
  std::vector<Entry> entries_;
};

TreeResolution::TreeResolution(const Specification& spec, const VarTable& vars,
                               const SignalTable& signals)
    : index_(spec) {
  Builder(*this, vars, signals).run(spec);
}

void TreeResolution::unresolved() {
  throw SpecError("internal: the tree tier reached a node its plan did not "
                  "resolve");
}

}  // namespace specsyn
