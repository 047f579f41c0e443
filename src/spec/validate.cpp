// Structural validation of a Specification. Every pass in the library
// documents "valid specification" as its precondition; this is the single
// definition of validity.
//
// Every diagnostic carries a stable [SV0xx] code so tools (and the fuzz
// harness) can match on the failure class instead of the message text:
//   SV001-SV008  specification structure, names, widths
//   SV010-SV011  procedure declarations
//   SV020-SV027  behavior hierarchy and transition arcs
//   SV030-SV041  statements and expressions
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "spec/specification.h"
#include "telemetry/telemetry.h"

namespace specsyn {

namespace {

enum class SymKind { Var, Signal };

// Lexical symbol table with O(1) lookup. Declarations are pushed as scopes
// open and popped (via the journal) as they close; each name keeps a stack of
// kinds so an inner declaration shadows an outer one exactly like the old
// innermost-wins linear scan did. Refined specifications declare thousands of
// names, so lookup cost matters here — validation runs in every Simulator
// constructor.
class Scope {
 public:
  void push(const std::string& n, SymKind k) {
    syms_[n].push_back(k);
    journal_.push_back(&n);
  }

  [[nodiscard]] const SymKind* find(const std::string& n) const {
    auto it = syms_.find(n);
    if (it == syms_.end() || it->second.empty()) return nullptr;
    return &it->second.back();
  }

  [[nodiscard]] size_t mark() const { return journal_.size(); }

  void pop_to(size_t mark) {
    while (journal_.size() > mark) {
      syms_[*journal_.back()].pop_back();
      journal_.pop_back();
    }
  }

 private:
  std::unordered_map<std::string, std::vector<SymKind>> syms_;
  std::vector<const std::string*> journal_;  // push order, for unwinding
};

// Opens a nested lexical scope; pops everything pushed since construction.
class ScopeFrame {
 public:
  explicit ScopeFrame(Scope& s) : scope_(s), mark_(s.mark()) {}
  ~ScopeFrame() { scope_.pop_to(mark_); }
  ScopeFrame(const ScopeFrame&) = delete;
  ScopeFrame& operator=(const ScopeFrame&) = delete;

 private:
  Scope& scope_;
  size_t mark_;
};

// SpecLang keywords: declaring one as a behavior/variable/signal/procedure
// name produces text the canonical printer cannot round-trip (the reparse
// reads the name as a keyword), so validity rejects them up front.
bool is_reserved(const std::string& n) {
  static const std::set<std::string> kw = {
      "behavior", "break", "call",  "complete",    "conc", "delay",
      "else",     "if",    "in",    "leaf",        "loop", "nop",
      "observable", "out", "proc",  "seq",         "signal", "spec",
      "transitions", "var", "wait", "when",        "while"};
  return kw.count(n) != 0;
}

class Validator {
 public:
  Validator(const Specification& spec, DiagnosticSink& diags)
      : spec_(spec), diags_(diags) {}

  void run() {
    if (!spec_.top) {
      err("SV001",
          "specification '" + spec_.name + "' has no top behavior");
      return;
    }
    check_unique_names();
    Scope scope;
    for (const auto& v : spec_.vars) {
      check_type(v.type, "variable '" + v.name + "'");
      scope.push(v.name, SymKind::Var);
    }
    for (const auto& s : spec_.signals) {
      check_type(s.type, "signal '" + s.name + "'");
      scope.push(s.name, SymKind::Signal);
    }
    check_procedures(scope);
    check_behavior(*spec_.top, scope);
  }

 private:
  void err(const char* code, const std::string& msg, SourceLoc loc = {}) {
    diags_.error(std::string("[") + code + "] " + msg, loc);
  }

  void warn(const char* code, const std::string& msg, SourceLoc loc = {}) {
    diags_.warning(std::string("[") + code + "] " + msg, loc);
  }

  void check_type(const Type& t, const std::string& what) {
    if (!t.valid()) {
      err("SV007",
          what + " has invalid width " + std::to_string(t.width));
    }
  }

  void check_reserved(const std::string& n, const std::string& what,
                      const SourceLoc& loc) {
    if (is_reserved(n)) {
      err("SV008", what + " '" + n + "' is a reserved word", loc);
    }
  }

  void check_unique_names() {
    std::set<std::string> behavior_names;
    spec_.top->for_each([&](const Behavior& b) {
      if (b.name.empty()) {
        err("SV002", "behavior with empty name", b.loc);
      } else if (!behavior_names.insert(b.name).second) {
        err("SV003", "duplicate behavior name '" + b.name + "'", b.loc);
      }
      check_reserved(b.name, "behavior name", b.loc);
    });
    std::set<std::string> data_names;
    auto add = [&](const std::string& n, const SourceLoc& loc) {
      if (n.empty()) {
        err("SV004", "declaration with empty name", loc);
      } else if (!data_names.insert(n).second) {
        err("SV005", "duplicate variable/signal name '" + n + "'", loc);
      }
      check_reserved(n, "declaration name", loc);
    };
    for (const auto& v : spec_.vars) add(v.name, {});
    for (const auto& s : spec_.signals) add(s.name, {});
    spec_.top->for_each([&](const Behavior& b) {
      for (const auto& v : b.vars) add(v.name, b.loc);
      for (const auto& s : b.signals) add(s.name, b.loc);
    });
    std::set<std::string> proc_names;
    for (const auto& p : spec_.procedures) {
      if (!proc_names.insert(p.name).second) {
        err("SV006", "duplicate procedure name '" + p.name + "'");
      }
      check_reserved(p.name, "procedure name", {});
    }
  }

  void check_procedures(Scope& outer) {
    for (const auto& p : spec_.procedures) {
      ScopeFrame frame(outer);
      std::set<std::string> local_names;
      for (const auto& prm : p.params) {
        check_type(prm.type, "parameter '" + prm.name + "' of '" + p.name + "'");
        check_reserved(prm.name, "parameter name", {});
        if (!local_names.insert(prm.name).second) {
          err("SV010", "duplicate parameter '" + prm.name +
                           "' in procedure '" + p.name + "'");
        }
        outer.push(prm.name, SymKind::Var);
      }
      for (const auto& [name, type] : p.locals) {
        check_type(type, "local '" + name + "' of '" + p.name + "'");
        check_reserved(name, "local name", {});
        if (!local_names.insert(name).second) {
          err("SV011", "duplicate local '" + name + "' in procedure '" +
                           p.name + "'");
        }
        outer.push(name, SymKind::Var);
      }
      check_block(p.body, outer, /*loop_depth=*/0,
                  "procedure '" + p.name + "'");
    }
  }

  void check_behavior(const Behavior& b, Scope& scope) {
    ScopeFrame frame(scope);
    for (const auto& v : b.vars) {
      check_type(v.type, "variable '" + v.name + "'");
      scope.push(v.name, SymKind::Var);
    }
    for (const auto& s : b.signals) {
      check_type(s.type, "signal '" + s.name + "'");
      scope.push(s.name, SymKind::Signal);
    }

    const std::string where = "behavior '" + b.name + "'";
    switch (b.kind) {
      case BehaviorKind::Leaf:
        if (!b.children.empty()) {
          err("SV020", where + " is a leaf but has children", b.loc);
        }
        if (!b.transitions.empty()) {
          err("SV021", where + " is a leaf but has transitions", b.loc);
        }
        check_block(b.body, scope, 0, where);
        break;
      case BehaviorKind::Sequential:
      case BehaviorKind::Concurrent:
        if (!b.body.empty()) {
          err("SV022", where + " is composite but has a statement body",
              b.loc);
        }
        if (b.children.empty()) {
          err("SV023", where + " is composite but has no children", b.loc);
        }
        if (b.kind == BehaviorKind::Concurrent && !b.transitions.empty()) {
          err("SV024", where + " is concurrent but has transitions", b.loc);
        }
        for (const auto& t : b.transitions) {
          if (!b.find_child(t.from)) {
            err("SV025",
                where + " transition from unknown child '" + t.from + "'",
                b.loc);
          }
          if (!t.completes() && !b.find_child(t.to)) {
            err("SV026",
                where + " transition to unknown child '" + t.to + "'", b.loc);
          }
          // A guarded self-arc is the repeat-while idiom (falls through when
          // the guard goes false); an unguarded one always retakes itself and
          // the composite can never complete.
          if (!t.completes() && t.from == t.to && !t.guard) {
            err("SV027",
                where + " unguarded transition from '" + t.from +
                    "' to itself can never exit",
                b.loc);
          }
          if (t.guard) check_expr(*t.guard, scope, where + " transition guard");
        }
        for (const auto& c : b.children) check_behavior(*c, scope);
        break;
    }
  }

  void check_block(const StmtList& stmts, const Scope& scope, int loop_depth,
                   const std::string& where) {
    for (const auto& s : stmts) check_stmt(*s, scope, loop_depth, where);
  }

  void check_stmt(const Stmt& s, const Scope& scope, int loop_depth,
                  const std::string& where) {
    switch (s.kind) {
      case Stmt::Kind::Assign: {
        const SymKind* k = scope.find(s.target);
        if (!k) {
          err("SV030",
              where + ": assignment to undeclared name '" + s.target + "'",
              s.loc);
        } else if (*k != SymKind::Var) {
          err("SV031",
              where + ": ':=' target '" + s.target +
                  "' is a signal (use '<=')",
              s.loc);
        }
        check_expr(*s.expr, scope, where);
        break;
      }
      case Stmt::Kind::SignalAssign: {
        const SymKind* k = scope.find(s.target);
        if (!k) {
          err("SV032",
              where + ": signal assignment to undeclared name '" + s.target +
                  "'",
              s.loc);
        } else if (*k != SymKind::Signal) {
          err("SV033",
              where + ": '<=' target '" + s.target +
                  "' is a variable (use ':=')",
              s.loc);
        }
        check_expr(*s.expr, scope, where);
        break;
      }
      case Stmt::Kind::If:
        check_expr(*s.expr, scope, where);
        check_block(s.then_block, scope, loop_depth, where);
        check_block(s.else_block, scope, loop_depth, where);
        break;
      case Stmt::Kind::While:
        check_expr(*s.expr, scope, where);
        check_block(s.then_block, scope, loop_depth + 1, where);
        break;
      case Stmt::Kind::Loop:
        check_block(s.then_block, scope, loop_depth + 1, where);
        break;
      case Stmt::Kind::Wait: {
        check_expr(*s.expr, scope, where);
        // A wait whose condition references no signal can never be woken by
        // an event; it only passes if already true on entry.
        std::vector<std::string> names;
        s.expr->collect_names(names);
        bool touches_signal = false;
        for (const auto& n : names) {
          if (const SymKind* k = scope.find(n); k && *k == SymKind::Signal) {
            touches_signal = true;
            break;
          }
        }
        if (!touches_signal) {
          warn("SV034",
               where + ": wait condition references no signal and "
                       "can only pass if initially true",
               s.loc);
        }
        break;
      }
      case Stmt::Kind::Delay:
        break;
      case Stmt::Kind::Call: {
        const Procedure* p = spec_.find_procedure(s.callee);
        if (!p) {
          err("SV035",
              where + ": call to unknown procedure '" + s.callee + "'", s.loc);
          break;
        }
        if (p->params.size() != s.args.size()) {
          std::ostringstream os;
          os << where << ": call to '" << s.callee << "' with "
             << s.args.size() << " args, expected " << p->params.size();
          err("SV036", os.str(), s.loc);
          break;
        }
        for (size_t i = 0; i < s.args.size(); ++i) {
          const Expr& a = *s.args[i];
          if (p->params[i].is_out) {
            if (a.kind != Expr::Kind::NameRef) {
              err("SV037",
                  where + ": out argument " + std::to_string(i) + " of '" +
                      s.callee + "' must be a plain name",
                  s.loc);
              continue;
            }
            const SymKind* k = scope.find(a.name);
            if (!k || *k != SymKind::Var) {
              err("SV038",
                  where + ": out argument '" + a.name + "' of '" + s.callee +
                      "' must name a variable in scope",
                  s.loc);
            }
          } else {
            check_expr(a, scope, where);
          }
        }
        break;
      }
      case Stmt::Kind::Break:
        if (loop_depth == 0) {
          err("SV039", where + ": break outside of loop", s.loc);
        }
        break;
      case Stmt::Kind::Nop:
        break;
    }
  }

  void check_expr(const Expr& e, const Scope& scope, const std::string& where) {
    if (e.kind == Expr::Kind::NameRef) {
      if (!scope.find(e.name)) {
        err("SV040",
            where + ": reference to undeclared name '" + e.name + "'", e.loc);
      }
    }
    if (e.kind == Expr::Kind::IntLit && !e.type.valid()) {
      err("SV041", where + ": literal with invalid type", e.loc);
    }
    for (const auto& a : e.args) check_expr(*a, scope, where);
  }

  const Specification& spec_;
  DiagnosticSink& diags_;
};

}  // namespace

bool validate(const Specification& spec, DiagnosticSink& diags) {
  telemetry::Span span("validate", telemetry::Stability::Stable);
  const size_t before = diags.error_count();
  Validator(spec, diags).run();
  return diags.error_count() == before;
}

void validate_or_throw(const Specification& spec) {
  DiagnosticSink diags;
  if (!validate(spec, diags)) {
    throw SpecError("invalid specification '" + spec.name + "':\n" +
                    diags.str());
  }
}

}  // namespace specsyn
