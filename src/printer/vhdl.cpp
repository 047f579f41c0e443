#include "printer/vhdl.h"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "refine/inliner.h"

namespace specsyn {

namespace {

std::string hex64(uint64_t v) {
  static const char* digits = "0123456789ABCDEF";
  std::string s = "x\"";
  for (int i = 15; i >= 0; --i) s += digits[(v >> (4 * i)) & 0xF];
  s += '"';
  return s;
}

std::string u64lit(uint64_t v) { return "unsigned'(" + hex64(v) + ")"; }

const char* fn_of(BinOp op) {
  switch (op) {
    case BinOp::Add: return "f_add";
    case BinOp::Sub: return "f_sub";
    case BinOp::Mul: return "f_mul";
    case BinOp::Div: return "f_div";
    case BinOp::Mod: return "f_mod";
    case BinOp::And: return "f_band";
    case BinOp::Or: return "f_bor";
    case BinOp::Xor: return "f_bxor";
    case BinOp::Shl: return "f_shl";
    case BinOp::Shr: return "f_shr";
    case BinOp::Lt: return "f_lt";
    case BinOp::Le: return "f_le";
    case BinOp::Gt: return "f_gt";
    case BinOp::Ge: return "f_ge";
    case BinOp::Eq: return "f_eq";
    case BinOp::Ne: return "f_ne";
    case BinOp::LogicalAnd: return "f_land";
    case BinOp::LogicalOr: return "f_lor";
  }
  return "f_add";
}

const char* fn_of(UnOp op) {
  switch (op) {
    case UnOp::LogicalNot: return "f_lnot";
    case UnOp::BitNot: return "f_bnot";
    case UnOp::Neg: return "f_neg";
  }
  return "f_lnot";
}

// Helper-function bodies implementing SpecLang operator semantics on u64.
const char* kHelpers = R"(
  subtype u64 is unsigned(63 downto 0);
  constant U64_ZERO : u64 := (others => '0');
  constant U64_ONE  : u64 := (0 => '1', others => '0');

  function f_bool(c : boolean) return u64 is
  begin
    if c then return U64_ONE; else return U64_ZERO; end if;
  end function;
  function f_wrap(a : u64; w : natural) return u64 is
  begin
    if w >= 64 then return a; end if;
    return a and (shift_left(U64_ONE, w) - 1);
  end function;
  function f_add(a, b : u64) return u64 is begin return a + b; end function;
  function f_sub(a, b : u64) return u64 is begin return a - b; end function;
  function f_mul(a, b : u64) return u64 is
  begin return resize(a * b, 64); end function;
  function f_div(a, b : u64) return u64 is
  begin
    if b = U64_ZERO then return U64_ZERO; end if;
    return a / b;
  end function;
  function f_mod(a, b : u64) return u64 is
  begin
    if b = U64_ZERO then return U64_ZERO; end if;
    return a mod b;
  end function;
  function f_band(a, b : u64) return u64 is begin return a and b; end function;
  function f_bor(a, b : u64) return u64 is begin return a or b; end function;
  function f_bxor(a, b : u64) return u64 is begin return a xor b; end function;
  function f_shl(a, b : u64) return u64 is
  begin return shift_left(a, to_integer(b(5 downto 0))); end function;
  function f_shr(a, b : u64) return u64 is
  begin return shift_right(a, to_integer(b(5 downto 0))); end function;
  function f_lt(a, b : u64) return u64 is begin return f_bool(a < b); end function;
  function f_le(a, b : u64) return u64 is begin return f_bool(a <= b); end function;
  function f_gt(a, b : u64) return u64 is begin return f_bool(a > b); end function;
  function f_ge(a, b : u64) return u64 is begin return f_bool(a >= b); end function;
  function f_eq(a, b : u64) return u64 is begin return f_bool(a = b); end function;
  function f_ne(a, b : u64) return u64 is begin return f_bool(a /= b); end function;
  function f_land(a, b : u64) return u64 is
  begin return f_bool(a /= U64_ZERO and b /= U64_ZERO); end function;
  function f_lor(a, b : u64) return u64 is
  begin return f_bool(a /= U64_ZERO or b /= U64_ZERO); end function;
  function f_lnot(a : u64) return u64 is
  begin return f_bool(a = U64_ZERO); end function;
  function f_bnot(a : u64) return u64 is begin return not a; end function;
  function f_neg(a : u64) return u64 is
  begin return (not a) + 1; end function;
)";

class VhdlEmitter {
 public:
  VhdlEmitter(const Specification& original, VhdlOptions opts)
      : opts_(std::move(opts)) {
    spec_ = original.clone();
    // Procedure activations become VHDL inline code.
    inline_procedure_calls(spec_, [](const std::string&) { return true; });
  }

  std::string run() {
    validate_or_throw(spec_);
    if (spec_.top) flatten_top(*spec_.top);
    emit_header();
    emit_declarations();
    os_ << "begin\n";
    for (const ProcInfo& p : procs_) emit_process(p);
    os_ << "end architecture " << opts_.architecture << ";\n";
    return os_.str();
  }

 private:
  struct ProcInfo {
    const Behavior* root = nullptr;
    const Behavior* join_parent = nullptr;  // non-null => forked child
  };

  // ---- process decomposition ------------------------------------------------

  void flatten_top(const Behavior& b) {
    if (b.kind == BehaviorKind::Concurrent) {
      for (const VarDecl& v : b.vars) shared_.push_back(&v);
      for (const auto& c : b.children) flatten_top(*c);
    } else {
      add_root(b, nullptr);
    }
  }

  void add_root(const Behavior& b, const Behavior* join_parent) {
    procs_.push_back({&b, join_parent});
    collect_forks(b, /*is_root=*/true);
  }

  /// Finds Concurrent composites inside a process's local subtree; their
  /// children become forked processes and their variables shared state.
  void collect_forks(const Behavior& b, bool is_root) {
    if (b.kind == BehaviorKind::Concurrent) {
      for (const VarDecl& v : b.vars) shared_.push_back(&v);
      for (const auto& c : b.children) add_root(*c, &b);
      return;  // children own everything deeper
    }
    (void)is_root;
    for (const auto& c : b.children) collect_forks(*c, false);
  }

  /// Behaviors belonging to this process: the subtree cut at Concurrent
  /// composites (which fork).
  void local_subtree(const Behavior& b, std::vector<const Behavior*>& out) const {
    out.push_back(&b);
    if (b.kind == BehaviorKind::Concurrent) return;
    for (const auto& c : b.children) local_subtree(*c, out);
  }

  // ---- emission ---------------------------------------------------------------

  void emit_header() {
    os_ << "-- Generated by specsyn-refine: VHDL-93 export of specification '"
        << spec_.name << "'.\n"
        << "-- One process per concurrent execution context; SpecLang\n"
        << "-- operator semantics are provided by the f_* helper functions.\n"
        << "library ieee;\nuse ieee.numeric_std.all;\n\n"
        << "entity " << spec_.name << " is\nend entity " << spec_.name
        << ";\n\n"
        << "architecture " << opts_.architecture << " of " << spec_.name
        << " is\n"
        << kHelpers << "\n"
        << "  constant CYCLE : time := " << opts_.cycle_time << ";\n";
  }

  void emit_declarations() {
    // Signals: specification level, behavior level, fork/join handshakes.
    for (const SignalDecl* s : spec_.all_signals()) {
      os_ << "  signal " << s->name << " : u64 := " << u64lit(s->init)
          << ";  -- " << s->type.str() << "\n";
      widths_.try_emplace(s->name, s->type.width);
    }
    for (const ProcInfo& p : procs_) {
      if (p.join_parent != nullptr) {
        fork_go_.emplace(p.join_parent->name, p.join_parent->name + "_go");
        os_ << "  signal " << p.root->name << "_jdone : u64 := "
            << u64lit(0) << ";\n";
      }
    }
    for (const auto& [conc, go] : fork_go_) {
      (void)conc;
      os_ << "  signal " << go << " : u64 := " << u64lit(0) << ";\n";
    }
    // Shared variables: specification level + conc-composite storage.
    for (const VarDecl& v : spec_.vars) {
      emit_shared_var(v);
    }
    for (const VarDecl* v : shared_) emit_shared_var(*v);
  }

  void emit_shared_var(const VarDecl& v) {
    os_ << "  shared variable " << v.name << " : u64 := " << u64lit(v.init)
        << ";  -- " << v.type.str()
        << (v.is_observable ? ", observable" : "") << "\n";
    widths_[v.name] = v.type.width;
  }

  void emit_process(const ProcInfo& p) {
    std::vector<const Behavior*> locals;
    local_subtree(*p.root, locals);

    os_ << "\n  P_" << p.root->name << " : process\n";
    for (const Behavior* b : locals) {
      if (b != p.root && b->kind == BehaviorKind::Concurrent) continue;
      for (const VarDecl& v : b->vars) {
        os_ << "    variable " << v.name << " : u64 := " << u64lit(v.init)
            << ";  -- " << v.type.str()
            << (v.is_observable ? ", observable" : "") << "\n";
        widths_[v.name] = v.type.width;
      }
      if (b->kind == BehaviorKind::Sequential) {
        os_ << "    variable " << b->name << "_state : integer := 0;\n";
      }
    }
    os_ << "  begin\n";
    level_ = 2;

    if (p.join_parent != nullptr) {
      const std::string go = fork_go_.at(p.join_parent->name);
      const std::string done = p.root->name + "_jdone";
      line("loop");
      ++level_;
      line("wait until " + go + " /= U64_ZERO;");
      emit_behavior(*p.root);
      line(done + " <= U64_ONE;");
      line("wait until " + go + " = U64_ZERO;");
      line(done + " <= U64_ZERO;");
      --level_;
      line("end loop;");
    } else {
      emit_behavior(*p.root);
      line("wait;  -- process complete");
    }
    os_ << "  end process P_" << p.root->name << ";\n";
  }

  void emit_behavior(const Behavior& b) {
    switch (b.kind) {
      case BehaviorKind::Leaf:
        line("-- behavior " + b.name + " : leaf");
        emit_block(b.body);
        break;
      case BehaviorKind::Sequential:
        emit_seq(b);
        break;
      case BehaviorKind::Concurrent:
        emit_fork_join(b);
        break;
    }
  }

  void emit_seq(const Behavior& b) {
    const std::string st = b.name + "_state";
    line("-- behavior " + b.name + " : seq");
    line(st + " := 0;");
    line("while " + st + " >= 0 loop");
    ++level_;
    line("case " + st + " is");
    ++level_;
    for (size_t i = 0; i < b.children.size(); ++i) {
      line("when " + std::to_string(i) + " =>  -- " + b.children[i]->name);
      ++level_;
      emit_behavior(*b.children[i]);
      emit_next_state(b, i, st);
      --level_;
    }
    line("when others => " + st + " := -1;");
    --level_;
    line("end case;");
    --level_;
    line("end loop;");
  }

  void emit_next_state(const Behavior& b, size_t child, const std::string& st) {
    const std::string& name = b.children[child]->name;
    const std::string fallthrough =
        child + 1 < b.children.size() ? std::to_string(child + 1) : "-1";
    std::vector<const Transition*> arcs;
    for (const Transition& t : b.transitions) {
      if (t.from == name) arcs.push_back(&t);
    }
    if (arcs.empty()) {
      line(st + " := " + fallthrough + ";");
      return;
    }
    bool first = true;
    bool closed = false;  // an unconditional arc ends the chain
    for (const Transition* t : arcs) {
      std::string target =
          t->completes() ? "-1"
                         : std::to_string(b.child_index(t->to));
      if (t->guard) {
        line(std::string(first ? "if " : "elsif ") + expr(*t->guard) +
             " /= U64_ZERO then");
        ++level_;
        line(st + " := " + target + ";");
        --level_;
        first = false;
      } else {
        if (first) {
          line(st + " := " + target + ";");
        } else {
          line("else");
          ++level_;
          line(st + " := " + target + ";");
          --level_;
          line("end if;");
        }
        closed = true;
        break;
      }
    }
    if (!closed && !first) {
      line("else");
      ++level_;
      line(st + " := " + fallthrough + ";");
      --level_;
      line("end if;");
    }
  }

  void emit_fork_join(const Behavior& b) {
    const std::string go = fork_go_.at(b.name);
    line("-- fork/join of concurrent composite " + b.name);
    line(go + " <= U64_ONE;");
    std::string all_done, all_idle;
    for (const auto& c : b.children) {
      if (!all_done.empty()) {
        all_done += " and ";
        all_idle += " and ";
      }
      all_done += c->name + "_jdone /= U64_ZERO";
      all_idle += c->name + "_jdone = U64_ZERO";
    }
    line("wait until " + all_done + ";");
    line(go + " <= U64_ZERO;");
    line("wait until " + all_idle + ";");
  }

  void emit_block(const StmtList& stmts) {
    for (const auto& s : stmts) emit_stmt(*s);
  }

  void emit_stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        line(s.target + " := " + wrapped(s.target, expr(*s.expr)) + ";");
        break;
      case Stmt::Kind::SignalAssign:
        line(s.target + " <= " + wrapped(s.target, expr(*s.expr)) + ";");
        break;
      case Stmt::Kind::If:
        line("if " + expr(*s.expr) + " /= U64_ZERO then");
        ++level_;
        if (s.then_block.empty()) line("null;");
        emit_block(s.then_block);
        --level_;
        if (!s.else_block.empty()) {
          line("else");
          ++level_;
          emit_block(s.else_block);
          --level_;
        }
        line("end if;");
        break;
      case Stmt::Kind::While:
        line("while " + expr(*s.expr) + " /= U64_ZERO loop");
        ++level_;
        emit_block(s.then_block);
        --level_;
        line("end loop;");
        break;
      case Stmt::Kind::Loop:
        line("loop");
        ++level_;
        emit_block(s.then_block);
        --level_;
        line("end loop;");
        break;
      case Stmt::Kind::Wait:
        line("wait until (" + expr(*s.expr) + ") /= U64_ZERO;");
        break;
      case Stmt::Kind::Delay:
        line("wait for " + std::to_string(s.delay) + " * CYCLE;");
        break;
      case Stmt::Kind::Call:
        // Unreachable: constructor inlined all procedures.
        throw SpecError("vhdl: unexpected residual call to '" + s.callee + "'");
      case Stmt::Kind::Break:
        line("exit;");
        break;
      case Stmt::Kind::Nop:
        line("null;");
        break;
    }
  }

  /// Masks a value to the declared width of `name` (no-op for 64-bit and
  /// for names without a recorded width, e.g. integers we emitted).
  std::string wrapped(const std::string& name, std::string value) {
    const auto it = widths_.find(name);
    const uint32_t w = it != widths_.end() ? it->second : 64;
    if (w >= 64) return value;
    return "f_wrap(" + std::move(value) + ", " + std::to_string(w) + ")";
  }

  std::string expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return u64lit(e.int_value);
      case Expr::Kind::NameRef:
        return e.name;
      case Expr::Kind::Unary:
        return std::string(fn_of(e.un_op)) + "(" + expr(*e.args[0]) + ")";
      case Expr::Kind::Binary:
        return std::string(fn_of(e.bin_op)) + "(" + expr(*e.args[0]) + ", " +
               expr(*e.args[1]) + ")";
    }
    return "U64_ZERO";
  }

  void line(const std::string& text) {
    for (int i = 0; i < level_ * 2; ++i) os_ << ' ';
    os_ << text << '\n';
  }

  Specification spec_;
  VhdlOptions opts_;
  std::ostringstream os_;
  int level_ = 0;
  std::vector<ProcInfo> procs_;
  std::vector<const VarDecl*> shared_;
  std::map<std::string, std::string> fork_go_;  // conc name -> go signal
  std::map<std::string, uint32_t> widths_;      // declared widths
};

}  // namespace

std::string to_vhdl(const Specification& spec, const VhdlOptions& opts) {
  return VhdlEmitter(spec, opts).run();
}

}  // namespace specsyn
