#include "spec/mutate.h"

#include <set>

namespace specsyn {

namespace {

void visit_blocks(StmtList& list, const std::function<void(StmtList&)>& fn) {
  fn(list);
  // The callback may have mutated `list`; index-based iteration stays valid
  // as long as we re-check the bound each step.
  for (size_t i = 0; i < list.size(); ++i) {
    Stmt& s = *list[i];
    switch (s.kind) {
      case Stmt::Kind::If:
        visit_blocks(s.then_block, fn);
        visit_blocks(s.else_block, fn);
        break;
      case Stmt::Kind::While:
      case Stmt::Kind::Loop:
        visit_blocks(s.then_block, fn);
        break;
      default:
        break;
    }
  }
}

void visit_stmts(StmtList& list, const std::function<void(Stmt&)>& fn) {
  for (auto& sp : list) {
    Stmt& s = *sp;
    fn(s);
    visit_stmts(s.then_block, fn);
    visit_stmts(s.else_block, fn);
  }
}

bool is_trivial_seq(const Behavior& b) {
  return b.kind == BehaviorKind::Sequential && b.children.size() == 1 &&
         b.transitions.empty();
}

/// Takes ownership of a trivial composite and returns its only child, with
/// the composite's declarations moved onto it.
BehaviorPtr splice(BehaviorPtr composite) {
  BehaviorPtr child = std::move(composite->children[0]);
  for (auto& v : composite->vars) child->vars.push_back(std::move(v));
  for (auto& sg : composite->signals) child->signals.push_back(std::move(sg));
  return child;
}

size_t flatten_under(Behavior& b) {
  size_t removed = 0;
  for (auto& c : b.children) removed += flatten_under(*c);
  for (auto& c : b.children) {
    while (is_trivial_seq(*c)) {
      const std::string old_name = c->name;
      c = splice(std::move(c));
      for (Transition& t : b.transitions) {
        if (t.from == old_name) t.from = c->name;
        if (t.to == old_name) t.to = c->name;
      }
      ++removed;
    }
  }
  return removed;
}

}  // namespace

void for_each_block(Specification& spec,
                    const std::function<void(StmtList&)>& fn) {
  spec.top->for_each([&](Behavior& b) {
    if (b.is_leaf()) visit_blocks(b.body, fn);
  });
  for (auto& p : spec.procedures) visit_blocks(p.body, fn);
}

void for_each_stmt(Specification& spec, const std::function<void(Stmt&)>& fn) {
  spec.top->for_each([&](Behavior& b) {
    if (b.is_leaf()) visit_stmts(b.body, fn);
  });
  for (auto& p : spec.procedures) visit_stmts(p.body, fn);
}

bool remove_first_matching_stmt(Specification& spec,
                                const std::function<bool(const Stmt&)>& pred) {
  bool removed = false;
  for_each_block(spec, [&](StmtList& list) {
    if (removed) return;
    for (size_t i = 0; i < list.size(); ++i) {
      if (pred(*list[i])) {
        list.erase(list.begin() + static_cast<ptrdiff_t>(i));
        removed = true;
        return;
      }
    }
  });
  return removed;
}

size_t remove_unused_decls(Specification& spec) {
  std::set<std::string> used;
  std::set<std::string> called;
  auto collect_expr = [&](const Expr& e) {
    std::vector<std::string> names;
    e.collect_names(names);
    used.insert(names.begin(), names.end());
  };
  for_each_stmt(spec, [&](Stmt& s) {
    if (!s.target.empty()) used.insert(s.target);
    if (s.expr) collect_expr(*s.expr);
    for (const auto& a : s.args) collect_expr(*a);
    if (s.kind == Stmt::Kind::Call) called.insert(s.callee);
  });
  spec.top->for_each([&](const Behavior& b) {
    for (const auto& t : b.transitions) {
      if (t.guard) collect_expr(*t.guard);
    }
  });

  size_t removed = 0;
  auto prune_vars = [&](std::vector<VarDecl>& vars) {
    for (size_t i = vars.size(); i-- > 0;) {
      if (!vars[i].is_observable && used.count(vars[i].name) == 0) {
        vars.erase(vars.begin() + static_cast<ptrdiff_t>(i));
        ++removed;
      }
    }
  };
  auto prune_signals = [&](std::vector<SignalDecl>& signals) {
    for (size_t i = signals.size(); i-- > 0;) {
      if (used.count(signals[i].name) == 0) {
        signals.erase(signals.begin() + static_cast<ptrdiff_t>(i));
        ++removed;
      }
    }
  };
  prune_vars(spec.vars);
  prune_signals(spec.signals);
  spec.top->for_each([&](Behavior& b) {
    prune_vars(b.vars);
    prune_signals(b.signals);
  });
  for (size_t i = spec.procedures.size(); i-- > 0;) {
    if (called.count(spec.procedures[i].name) == 0) {
      spec.procedures.erase(spec.procedures.begin() +
                            static_cast<ptrdiff_t>(i));
      ++removed;
    }
  }
  return removed;
}

size_t flatten_trivial_composites(Specification& spec) {
  if (!spec.top) return 0;
  size_t removed = flatten_under(*spec.top);
  while (is_trivial_seq(*spec.top)) {
    spec.top = splice(std::move(spec.top));
    ++removed;
  }
  return removed;
}

}  // namespace specsyn
