#include "graph/access_graph.h"

#include <tuple>

#include "spec/index.h"

namespace specsyn {

namespace {

using Key = std::tuple<std::string, std::string, AccessDir>;

class Builder {
 public:
  explicit Builder(const Specification& spec) : spec_(spec), index_(spec) {}

  void build(std::vector<std::string>& behaviors,
             std::vector<std::string>& variables,
             std::vector<DataChannel>& data,
             std::vector<ControlChannel>& control) {
    if (!spec_.top) return;

    for (const Behavior* b : spec_.top->all_behaviors()) {
      behaviors.push_back(b->name);
    }
    for (const VarDecl* v : spec_.all_vars()) {
      variables.push_back(v->name);
    }

    spec_.top->for_each([&](const Behavior& b) { visit_behavior(b); });

    for (const auto& [key, sites] : counts_) {
      DataChannel c;
      c.behavior = std::get<0>(key);
      c.var = std::get<1>(key);
      c.dir = std::get<2>(key);
      c.sites = sites;
      data.push_back(std::move(c));
    }
    control = std::move(control_);
  }

 private:
  void visit_behavior(const Behavior& b) {
    if (b.is_leaf()) {
      visit_block(b.body, b.name);
      return;
    }
    // Guard reads belong to the composite (Figure 6's non-leaf refinement).
    for (const Transition& t : b.transitions) {
      if (t.guard) add_expr_reads(*t.guard, b.name);
    }
    if (b.kind == BehaviorKind::Sequential) {
      std::set<std::string> explicit_from;
      for (const Transition& t : b.transitions) {
        if (!t.completes()) {
          control_.push_back({t.from, t.to, t.guard != nullptr});
        }
        explicit_from.insert(t.from);
      }
      // Implicit fall-through: child i -> i+1 when i has no arcs at all.
      for (size_t i = 0; i + 1 < b.children.size(); ++i) {
        if (explicit_from.count(b.children[i]->name) == 0) {
          control_.push_back({b.children[i]->name, b.children[i + 1]->name,
                              /*guarded=*/false});
        }
      }
    }
  }

  void visit_block(const StmtList& stmts, const std::string& behavior) {
    for (const auto& s : stmts) visit_stmt(*s, behavior);
  }

  void visit_stmt(const Stmt& s, const std::string& behavior) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        add_access(behavior, s.target, AccessDir::Write);
        add_expr_reads(*s.expr, behavior);
        break;
      case Stmt::Kind::SignalAssign:
        add_expr_reads(*s.expr, behavior);  // target is a signal, not a var
        break;
      case Stmt::Kind::If:
        add_expr_reads(*s.expr, behavior);
        visit_block(s.then_block, behavior);
        visit_block(s.else_block, behavior);
        break;
      case Stmt::Kind::While:
        add_expr_reads(*s.expr, behavior);
        visit_block(s.then_block, behavior);
        break;
      case Stmt::Kind::Loop:
        visit_block(s.then_block, behavior);
        break;
      case Stmt::Kind::Wait:
        add_expr_reads(*s.expr, behavior);
        break;
      case Stmt::Kind::Call: {
        const Procedure* p = spec_.find_procedure(s.callee);
        for (size_t i = 0; i < s.args.size(); ++i) {
          const bool is_out =
              p != nullptr && i < p->params.size() && p->params[i].is_out;
          if (is_out) {
            add_access(behavior, s.args[i]->name, AccessDir::Write);
          } else {
            add_expr_reads(*s.args[i], behavior);
          }
        }
        break;
      }
      case Stmt::Kind::Delay:
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        break;
    }
  }

  void add_expr_reads(const Expr& e, const std::string& behavior) {
    std::vector<std::string> names;
    e.collect_names(names);
    for (const auto& n : names) add_access(behavior, n, AccessDir::Read);
  }

  void add_access(const std::string& behavior, const std::string& name,
                  AccessDir dir) {
    if (index_.find_var(name) == nullptr) return;  // signals etc.
    ++counts_[{behavior, name, dir}];
  }

  const Specification& spec_;
  const SpecIndex index_;
  std::map<Key, size_t> counts_;
  std::vector<ControlChannel> control_;
};

}  // namespace

bool AccessGraph::reads(const std::string& behavior,
                        const std::string& var) const {
  for (const auto& c : data_) {
    if (c.behavior == behavior && c.var == var && c.dir == AccessDir::Read) {
      return true;
    }
  }
  return false;
}

bool AccessGraph::writes(const std::string& behavior,
                         const std::string& var) const {
  for (const auto& c : data_) {
    if (c.behavior == behavior && c.var == var && c.dir == AccessDir::Write) {
      return true;
    }
  }
  return false;
}

size_t AccessGraph::data_channel_pairs() const {
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& c : data_) pairs.emplace(c.behavior, c.var);
  return pairs.size();
}

AccessGraph build_access_graph(const Specification& spec) {
  AccessGraph g;
  Builder(spec).build(g.behaviors_, g.variables_, g.data_, g.control_);
  return g;
}

}  // namespace specsyn
