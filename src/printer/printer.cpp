#include "printer/printer.h"

#include <charconv>
#include <cstdint>
#include <string_view>

namespace specsyn {

namespace {

void append_number(std::string& out, uint64_t v) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

// Expression printing with minimal parentheses: a child is parenthesized
// when its binding is weaker than (or, for right operands of left-
// associative operators, equal to) the parent's.
void append_expr(std::string& out, const Expr& e, int parent_prec,
                 bool is_right) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      append_number(out, e.int_value);
      return;
    case Expr::Kind::NameRef:
      out += e.name;
      return;
    case Expr::Kind::Unary:
      out += to_string(e.un_op);
      out += '(';
      append_expr(out, *e.args[0], 0, false);
      out += ')';
      return;
    case Expr::Kind::Binary: {
      const int prec = precedence(e.bin_op);
      const bool parens =
          prec < parent_prec || (prec == parent_prec && is_right);
      if (parens) out += '(';
      append_expr(out, *e.args[0], prec, false);
      out += ' ';
      out += to_string(e.bin_op);
      out += ' ';
      append_expr(out, *e.args[1], prec, true);
      if (parens) out += ')';
      return;
    }
  }
  out += '?';
}

/// An expression handed to a sink, which decides how to print it.
struct ExprText {
  const Expr& e;
};

/// Builds the printed text in one string; expressions are appended in place.
class TextSink {
 public:
  TextSink& operator<<(std::string_view s) {
    out_ += s;
    return *this;
  }
  TextSink& operator<<(char c) {
    out_ += c;
    return *this;
  }
  TextSink& operator<<(uint64_t v) {
    append_number(out_, v);
    return *this;
  }
  TextSink& operator<<(ExprText x) {
    append_expr(out_, x.e, /*parent_prec=*/0, /*is_right=*/false);
    return *this;
  }
  void spaces(int n) {
    if (n > 0) out_.append(static_cast<size_t>(n), ' ');
  }
  /// The text at its exact size: callers often keep it while they work.
  std::string take() {
    out_.shrink_to_fit();
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// Counts the non-blank lines the text sink would produce, building no text.
/// Numbers are digits and an expression always follows content on its line,
/// so both only mark the line non-blank.
class LineSink {
 public:
  LineSink& operator<<(std::string_view s) {
    for (char c : s) *this << c;
    return *this;
  }
  LineSink& operator<<(char c) {
    if (c == '\n') {
      if (nonblank_) ++lines_;
      nonblank_ = false;
    } else if (c != ' ' && c != '\t' && c != '\r') {
      nonblank_ = true;
    }
    return *this;
  }
  LineSink& operator<<(uint64_t) {
    nonblank_ = true;
    return *this;
  }
  LineSink& operator<<(ExprText) {
    nonblank_ = true;
    return *this;
  }
  void spaces(int) {}
  [[nodiscard]] size_t lines() const { return lines_ + (nonblank_ ? 1 : 0); }

 private:
  size_t lines_ = 0;
  bool nonblank_ = false;
};

template <typename Sink>
class Printer {
 public:
  explicit Printer(const PrintOptions& opts) : opts_(opts) {}

  Sink& sink() { return out_; }

  void print_spec(const Specification& spec) {
    out_ << "spec " << spec.name << ";\n\n";
    for (const auto& v : spec.vars) print_var(v);
    for (const auto& s : spec.signals) print_signal(s);
    if (!spec.vars.empty() || !spec.signals.empty()) out_ << "\n";
    for (const auto& p : spec.procedures) {
      print_proc(p);
      out_ << "\n";
    }
    if (spec.top) print_behavior(*spec.top);
  }

  void print_behavior(const Behavior& b) {
    indent();
    out_ << "behavior " << b.name << " : " << to_string(b.kind) << " {";
    if (opts_.annotate) {
      out_ << "  // " << static_cast<uint64_t>(b.children.size())
           << " children";
    }
    out_ << "\n";
    ++level_;
    for (const auto& v : b.vars) print_var(v);
    for (const auto& s : b.signals) print_signal(s);
    if (b.is_leaf()) {
      print_block_body(b.body);
    } else {
      for (const auto& c : b.children) print_behavior(*c);
      if (!b.transitions.empty()) {
        indent();
        out_ << "transitions {\n";
        ++level_;
        for (const auto& t : b.transitions) {
          indent();
          out_ << t.from << " -> " << (t.completes() ? "complete" : t.to);
          if (t.guard) out_ << " when " << expr(*t.guard);
          out_ << ";\n";
        }
        --level_;
        indent();
        out_ << "}\n";
      }
    }
    --level_;
    indent();
    out_ << "}\n";
  }

  void print_stmt(const Stmt& s) {
    indent();
    switch (s.kind) {
      case Stmt::Kind::Assign:
        out_ << s.target << " := " << expr(*s.expr) << ";\n";
        break;
      case Stmt::Kind::SignalAssign:
        out_ << s.target << " <= " << expr(*s.expr) << ";\n";
        break;
      case Stmt::Kind::If:
        out_ << "if " << expr(*s.expr) << " {\n";
        ++level_;
        print_block_body(s.then_block);
        --level_;
        indent();
        if (s.else_block.empty()) {
          out_ << "}\n";
        } else {
          out_ << "} else {\n";
          ++level_;
          print_block_body(s.else_block);
          --level_;
          indent();
          out_ << "}\n";
        }
        break;
      case Stmt::Kind::While:
        out_ << "while " << expr(*s.expr) << " {\n";
        ++level_;
        print_block_body(s.then_block);
        --level_;
        indent();
        out_ << "}\n";
        break;
      case Stmt::Kind::Loop:
        out_ << "loop {\n";
        ++level_;
        print_block_body(s.then_block);
        --level_;
        indent();
        out_ << "}\n";
        break;
      case Stmt::Kind::Wait:
        out_ << "wait " << expr(*s.expr) << ";\n";
        break;
      case Stmt::Kind::Delay:
        out_ << "delay " << s.delay << ";\n";
        break;
      case Stmt::Kind::Call: {
        out_ << "call " << s.callee << "(";
        for (size_t i = 0; i < s.args.size(); ++i) {
          if (i) out_ << ", ";
          out_ << expr(*s.args[i]);
        }
        out_ << ");\n";
        break;
      }
      case Stmt::Kind::Break:
        out_ << "break;\n";
        break;
      case Stmt::Kind::Nop:
        out_ << "nop;\n";
        break;
    }
  }

  void print_proc(const Procedure& p) {
    indent();
    out_ << "proc " << p.name << "(";
    for (size_t i = 0; i < p.params.size(); ++i) {
      if (i) out_ << ", ";
      const Param& prm = p.params[i];
      if (prm.is_out) out_ << "out ";
      out_ << prm.name << " : " << prm.type.str();
    }
    out_ << ") {\n";
    ++level_;
    for (const auto& [name, type] : p.locals) {
      indent();
      out_ << "var " << name << " : " << type.str() << ";\n";
    }
    print_block_body(p.body);
    --level_;
    indent();
    out_ << "}\n";
  }

 private:
  void print_block_body(const StmtList& stmts) {
    for (const auto& s : stmts) print_stmt(*s);
  }

  void print_var(const VarDecl& v) {
    indent();
    if (v.is_observable) out_ << "observable ";
    out_ << "var " << v.name << " : " << v.type.str();
    // Print the value the simulator actually starts from: an unwrapped init
    // (possible when the decl was built programmatically) would reparse as a
    // different constant and break the print->parse->print fixpoint.
    if (v.type.wrap(v.init) != 0) out_ << " := " << v.type.wrap(v.init);
    out_ << ";\n";
  }

  void print_signal(const SignalDecl& s) {
    indent();
    out_ << "signal " << s.name << " : " << s.type.str();
    if (s.type.wrap(s.init) != 0) out_ << " := " << s.type.wrap(s.init);
    out_ << ";\n";
  }

  void indent() { out_.spaces(level_ * opts_.indent); }

  static ExprText expr(const Expr& e) { return {e}; }

  PrintOptions opts_;
  Sink out_;
  int level_ = 0;
};

}  // namespace

std::string print(const Specification& spec, const PrintOptions& opts) {
  Printer<TextSink> p(opts);
  p.print_spec(spec);
  return p.sink().take();
}

std::string print(const Behavior& b, const PrintOptions& opts) {
  Printer<TextSink> p(opts);
  p.print_behavior(b);
  return p.sink().take();
}

std::string print(const Expr& e) {
  std::string out;
  append_expr(out, e, 0, false);
  return out;
}

std::string print(const Stmt& s, const PrintOptions& opts) {
  Printer<TextSink> p(opts);
  p.print_stmt(s);
  return p.sink().take();
}

std::string print(const Procedure& proc, const PrintOptions& opts) {
  Printer<TextSink> p(opts);
  p.print_proc(proc);
  return p.sink().take();
}

size_t count_lines(const Specification& spec) {
  Printer<LineSink> p(PrintOptions{});
  p.print_spec(spec);
  return p.sink().lines();
}

size_t count_lines(const std::string& text) {
  LineSink lines;
  lines << text;
  return lines.lines();
}

}  // namespace specsyn
