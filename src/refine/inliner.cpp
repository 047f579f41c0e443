#include "refine/inliner.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spec/builder.h"

namespace specsyn {

namespace {

/// One call site's substitution: in-params map to argument expressions,
/// out-params and hoisted locals to new names. A procedure has a handful of
/// each, so a linear scan of a small vector beats any map; scans run back to
/// front so a later binding of a repeated name wins.
struct Substitution {
  std::vector<std::pair<std::string_view, const Expr*>> in_args;
  std::vector<std::pair<std::string_view, std::string_view>> renames;

  [[nodiscard]] const Expr* in_arg(std::string_view name) const {
    for (auto it = in_args.rbegin(); it != in_args.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return nullptr;
  }
  [[nodiscard]] const std::string_view* rename(std::string_view name) const {
    for (auto it = renames.rbegin(); it != renames.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }
};

/// Rewrites `e` in place: NameRefs matching an in-param are replaced by a
/// clone of the argument expression; NameRefs matching an out-param or a
/// renamed local get the substituted name.
void subst_expr(Expr& e, const Substitution& sub) {
  if (e.kind == Expr::Kind::NameRef) {
    if (const Expr* arg = sub.in_arg(e.name)) {
      e = std::move(*arg->clone());  // replace node wholesale
      return;
    }
    if (const std::string_view* to = sub.rename(e.name)) e.name = *to;
    return;
  }
  for (auto& a : e.args) subst_expr(*a, sub);
}

void subst_block(StmtList& stmts, const Substitution& sub) {
  for (auto& s : stmts) {
    if (s->expr) subst_expr(*s->expr, sub);
    if (!s->target.empty()) {
      if (const std::string_view* to = sub.rename(s->target)) s->target = *to;
      // An assignment to an in-param inside a protocol body would be
      // unsubstitutable; generated procedures never do that.
      if (sub.in_arg(s->target) != nullptr) {
        throw SpecError("inliner: procedure assigns to in-parameter '" +
                        s->target + "'");
      }
    }
    for (auto& a : s->args) subst_expr(*a, sub);
    subst_block(s->then_block, sub);
    subst_block(s->else_block, sub);
  }
}

class Inliner {
 public:
  Inliner(Specification& spec,
          const std::function<bool(const std::string&)>& pred)
      : spec_(spec), pred_(pred), procs_(spec.procedures.size()) {
    // Index the procedures once: each call site then costs one hash lookup,
    // and the predicate runs once per procedure instead of once per site.
    by_name_.reserve(spec.procedures.size());
    for (size_t i = 0; i < spec.procedures.size(); ++i) {
      by_name_.emplace(spec.procedures[i].name, i);
      procs_[i].inlined = pred_(spec.procedures[i].name);
    }
  }

  size_t run() {
    if (spec_.top) {
      spec_.top->for_each([&](Behavior& b) {
        if (b.is_leaf()) {
          holder_ = &b;
          ++holder_stamp_;
          b.body = expand_block(std::move(b.body));
        }
      });
    }
    // Drop procedures that were fully inlined and are no longer called.
    // Expansion left no call to an inlined procedure in any behavior body
    // except inside copies of procedure bodies, so scanning the procedure
    // bodies finds every call still left.
    std::vector<bool> still_called(spec_.procedures.size(), false);
    for (const Procedure& p : spec_.procedures) {
      collect_calls(p.body, still_called);
    }
    std::vector<Procedure> kept;
    for (size_t i = 0; i < spec_.procedures.size(); ++i) {
      if (!procs_[i].inlined || still_called[i]) {
        kept.push_back(std::move(spec_.procedures[i]));
      }
    }
    spec_.procedures = std::move(kept);
    return expanded_;
  }

 private:
  /// Per procedure: whether the predicate selected it, and the names its
  /// locals were hoisted to in the holder numbered `holder_stamp`.
  struct ProcState {
    bool inlined = false;
    uint64_t holder_stamp = 0;
    std::vector<std::string> hoisted;
  };

  /// Index of the procedure called `name`, or SIZE_MAX.
  [[nodiscard]] size_t find(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? SIZE_MAX : it->second;
  }

  void collect_calls(const StmtList& stmts,
                     std::vector<bool>& still_called) const {
    for (const auto& s : stmts) {
      if (s->kind == Stmt::Kind::Call) {
        if (const size_t i = find(s->callee); i != SIZE_MAX) {
          still_called[i] = true;
        }
      }
      collect_calls(s->then_block, still_called);
      collect_calls(s->else_block, still_called);
    }
  }

  /// Index of the procedure `s` calls when the call expands, else SIZE_MAX.
  /// A call to an unknown procedure throws exactly when the predicate
  /// selects its name.
  [[nodiscard]] size_t expansion(const Stmt& s) const {
    if (s.kind != Stmt::Kind::Call) return SIZE_MAX;
    const size_t idx = find(s.callee);
    if (idx != SIZE_MAX) return procs_[idx].inlined ? idx : SIZE_MAX;
    if (pred_(s.callee)) {
      throw SpecError("inliner: call to unknown procedure '" + s.callee + "'");
    }
    return SIZE_MAX;
  }

  StmtList expand_block(StmtList stmts) {
    StmtList out;
    out.reserve(stmts.size());
    for (auto& s : stmts) {
      if (const size_t idx = expansion(*s); idx != SIZE_MAX) {
        expand_call(*s, idx, out);
        continue;
      }
      s->then_block = expand_block(std::move(s->then_block));
      s->else_block = expand_block(std::move(s->else_block));
      out.push_back(std::move(s));
    }
    return out;
  }

  void expand_call(const Stmt& call, size_t idx, StmtList& out) {
    const Procedure& proc = spec_.procedures[idx];
    if (proc.params.size() != call.args.size()) {
      throw SpecError("inliner: arity mismatch calling '" + call.callee + "'");
    }

    Substitution sub;
    for (size_t i = 0; i < proc.params.size(); ++i) {
      const Param& p = proc.params[i];
      if (p.is_out) {
        // Out-params bind by name: writes go straight to the caller target.
        sub.renames.emplace_back(p.name, call.args[i]->name);
      } else {
        sub.in_args.emplace_back(p.name, call.args[i].get());
      }
    }
    // Hoist locals: one shared set per (holder behavior, procedure) — call
    // sites are sequential within one behavior, so reuse is safe.
    ProcState& st = procs_[idx];
    if (st.holder_stamp != holder_stamp_) {
      st.holder_stamp = holder_stamp_;
      st.hoisted.clear();
      for (size_t i = 0; i < proc.locals.size(); ++i) {
        std::string fresh = holder_->name;
        fresh += '_';
        fresh += call.callee;
        fresh += '_';
        fresh += proc.locals[i].first;
        // A repeated local name hoists once.
        if (std::find(st.hoisted.begin(), st.hoisted.end(), fresh) ==
            st.hoisted.end()) {
          holder_->vars.push_back(build::var(fresh, proc.locals[i].second));
        }
        st.hoisted.push_back(std::move(fresh));
      }
    }
    for (size_t i = 0; i < proc.locals.size(); ++i) {
      sub.renames.emplace_back(proc.locals[i].first, st.hoisted[i]);
    }

    StmtList body = Stmt::clone_list(proc.body);
    subst_block(body, sub);
    // Procedure locals start at 0 on every activation; reused hoisted
    // locals must be re-initialized to preserve that semantics.
    for (const std::string& hoisted : st.hoisted) {
      out.push_back(build::assign(hoisted, build::lit(0)));
    }
    for (auto& s : body) out.push_back(std::move(s));
    ++expanded_;
  }

  Specification& spec_;
  const std::function<bool(const std::string&)>& pred_;
  std::unordered_map<std::string_view, size_t> by_name_;
  std::vector<ProcState> procs_;  // by index into spec_.procedures
  Behavior* holder_ = nullptr;
  uint64_t holder_stamp_ = 0;
  size_t expanded_ = 0;
};

}  // namespace

size_t inline_procedure_calls(
    Specification& spec,
    const std::function<bool(const std::string&)>& should_inline) {
  return Inliner(spec, should_inline).run();
}

}  // namespace specsyn
