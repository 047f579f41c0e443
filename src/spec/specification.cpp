#include "spec/specification.h"

#include <algorithm>

namespace specsyn {

namespace {

// Depth as parser.cpp counts it, accumulated into `max`: behaviors, braced
// blocks, unary operators and printed parentheses each hold a level over
// their text, a primary holds one while it is read, and a binary chain
// reaches the depth it starts at plus its height. Returns the tree height.
size_t expr_nesting(const Expr& e, size_t d, size_t& max) {
  if (e.kind == Expr::Kind::Unary) {  // printed `op(x)`
    return 1 + expr_nesting(*e.args[0], d + 2, max);
  }
  if (e.kind != Expr::Kind::Binary) {
    max = std::max(max, d + 1);
    return 0;
  }
  const int prec = precedence(e.bin_op);
  size_t h = 0;
  for (size_t i = 0; i < 2; ++i) {  // parenthesized as append_expr does
    const Expr& x = *e.args[i];
    const bool parens = x.kind == Expr::Kind::Binary &&
                        (precedence(x.bin_op) < prec ||
                         (i == 1 && precedence(x.bin_op) == prec));
    h = std::max(h, 1 + expr_nesting(x, d + (parens ? 1 : 0), max));
  }
  max = std::max(max, d + h);
  return h;
}

void block_nesting(const StmtList& stmts, size_t d, size_t& max) {
  max = std::max(max, d);
  for (const StmtPtr& s : stmts) {
    if (s->expr) expr_nesting(*s->expr, d, max);
    for (const ExprPtr& a : s->args) expr_nesting(*a, d, max);
    if (s->kind == Stmt::Kind::If || s->kind == Stmt::Kind::While ||
        s->kind == Stmt::Kind::Loop) {
      block_nesting(s->then_block, d + 1, max);
    }
    if (!s->else_block.empty()) block_nesting(s->else_block, d + 1, max);
  }
}

void behavior_nesting(const Behavior& b, size_t d, size_t& max) {
  block_nesting(b.body, d + 1, max);
  for (const Transition& t : b.transitions) {
    if (t.guard) expr_nesting(*t.guard, d + 1, max);
  }
  for (const BehaviorPtr& c : b.children) behavior_nesting(*c, d + 1, max);
}

}  // namespace

size_t nesting_depth(const Specification& spec) {
  size_t max = 0;
  if (spec.top) behavior_nesting(*spec.top, 0, max);
  for (const Procedure& p : spec.procedures) block_nesting(p.body, 0, max);
  return max;
}

Specification Specification::clone() const {
  Specification s;
  s.name = name;
  s.vars = vars;
  s.signals = signals;
  s.procedures.reserve(procedures.size());
  for (const auto& p : procedures) s.procedures.push_back(p.clone());
  if (top) s.top = top->clone();
  return s;
}

const Behavior* Specification::find_behavior(const std::string& n) const {
  if (!top) return nullptr;
  const Behavior* found = nullptr;
  top->for_each([&](const Behavior& b) {
    if (!found && b.name == n) found = &b;
  });
  return found;
}

Behavior* Specification::find_behavior(const std::string& n) {
  return const_cast<Behavior*>(
      static_cast<const Specification*>(this)->find_behavior(n));
}

std::vector<const Behavior*> Specification::all_behaviors() const {
  if (!top) return {};
  return static_cast<const Behavior&>(*top).all_behaviors();
}

std::vector<Behavior*> Specification::all_behaviors() {
  if (!top) return {};
  return top->all_behaviors();
}

const Procedure* Specification::find_procedure(const std::string& n) const {
  for (const auto& p : procedures) {
    if (p.name == n) return &p;
  }
  return nullptr;
}

std::vector<const VarDecl*> Specification::all_vars() const {
  std::vector<const VarDecl*> out;
  for (const auto& v : vars) out.push_back(&v);
  if (top) {
    top->for_each([&](const Behavior& b) {
      for (const auto& v : b.vars) out.push_back(&v);
    });
  }
  return out;
}

std::vector<const SignalDecl*> Specification::all_signals() const {
  std::vector<const SignalDecl*> out;
  for (const auto& s : signals) out.push_back(&s);
  if (top) {
    top->for_each([&](const Behavior& b) {
      for (const auto& s : b.signals) out.push_back(&s);
    });
  }
  return out;
}

size_t Specification::stmt_count() const {
  size_t n = top ? top->stmt_count() : 0;
  for (const auto& p : procedures) {
    for (const auto& s : p.body) n += s->node_count();
  }
  return n;
}

bool Specification::is_fully_sequential() const {
  if (!top) return true;
  bool seq = true;
  top->for_each([&](const Behavior& b) {
    if (b.kind == BehaviorKind::Concurrent) seq = false;
  });
  return seq;
}

}  // namespace specsyn
