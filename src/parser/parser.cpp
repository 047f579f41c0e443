#include "parser/parser.h"

#include <algorithm>
#include <charconv>

#include "parser/lexer.h"
#include "telemetry/telemetry.h"

namespace specsyn {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticSink& diags)
      : toks_(std::move(tokens)), diags_(diags) {}

  std::optional<Specification> parse_specification() {
    Specification spec;
    if (!expect_keyword("spec")) return std::nullopt;
    spec.name = expect_ident("specification name");
    if (!expect(Tok::Semi)) return std::nullopt;

    while (!failed_ && (at_keyword("var") || at_keyword("signal") ||
                        at_keyword("observable"))) {
      parse_decl(spec.vars, spec.signals);
    }
    while (!failed_ && at_keyword("proc")) {
      spec.procedures.push_back(parse_proc());
    }
    if (failed_) return std::nullopt;
    if (!at_keyword("behavior")) {
      err("expected top behavior");
      return std::nullopt;
    }
    spec.top = parse_behavior();
    if (failed_) return std::nullopt;
    if (peek().kind != Tok::End) {
      err("trailing input after top behavior");
      return std::nullopt;
    }
    return spec;
  }

  ExprPtr parse_only_expr() {
    ExprPtr e = parse_expr();
    if (!failed_ && peek().kind != Tok::End) err("trailing input after expression");
    return failed_ ? nullptr : std::move(e);
  }

  [[nodiscard]] bool failed() const { return failed_; }

 private:
  // -- token plumbing ---------------------------------------------------------
  const Token& peek(size_t k = 0) const {
    const size_t i = pos_ + k;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }

  bool at(Tok k) const { return peek().kind == k; }
  bool at_keyword(std::string_view kw) const {
    return peek().kind == Tok::Ident && peek().text == kw;
  }

  void err(const std::string& msg) {
    if (!failed_) diags_.error(msg, peek().loc);
    failed_ = true;
  }

  // Fails the parse with SP002 once `extra` levels below the current
  // nesting would pass kMaxNestingDepth.
  void check_depth(size_t extra) {
    if (depth_ + extra > kMaxNestingDepth) {
      err("[SP002] nesting deeper than " + std::to_string(kMaxNestingDepth) +
          " levels");
    }
  }

  // One level of recursive nesting, held for a scope. Callers stop
  // recursing once failed() is set, so a hostile input never gets deeper
  // than the limit.
  class Nest {
   public:
    explicit Nest(Parser& p) : p_(p) {
      ++p_.depth_;
      p_.check_depth(0);
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& p_;
  };

  bool expect(Tok k) {
    if (failed_) return false;
    if (!at(k)) {
      err(std::string("expected ") + to_string(k) + ", found " +
          describe(peek()));
      return false;
    }
    advance();
    return true;
  }

  bool expect_keyword(std::string_view kw) {
    if (failed_) return false;
    if (!at_keyword(kw)) {
      err("expected '" + std::string(kw) + "', found " + describe(peek()));
      return false;
    }
    advance();
    return true;
  }

  // The spelling views the source; callers copy it only where the AST
  // stores a name.
  std::string_view expect_ident(std::string_view what) {
    if (failed_) return {};
    if (!at(Tok::Ident)) {
      err("expected " + std::string(what) + ", found " + describe(peek()));
      return {};
    }
    return advance().text;
  }

  uint64_t expect_int(std::string_view what) {
    if (failed_) return 0;
    if (!at(Tok::Int)) {
      err("expected " + std::string(what) + ", found " + describe(peek()));
      return 0;
    }
    return advance().int_value;
  }

  static std::string describe(const Token& t) {
    if (t.kind == Tok::Ident) return "'" + std::string(t.text) + "'";
    if (t.kind == Tok::Int) return "integer " + std::to_string(t.int_value);
    return to_string(t.kind);
  }

  // -- grammar ----------------------------------------------------------------
  Type parse_type() {
    const SourceLoc loc = peek().loc;
    const std::string_view t = expect_ident("type");
    if (failed_) return Type::u32();
    if (t == "bit") return Type::bit();
    if (t.size() > 3 && t.substr(0, 3) == "int") {
      uint32_t w = 0;
      const char* b = t.data() + 3;
      const char* e = t.data() + t.size();
      auto [p, ec] = std::from_chars(b, e, w);
      if (ec == std::errc() && p == e && Type{w}.valid()) return Type{w};
    }
    // Covers zero and out-of-range widths too (int0, int65): Type::valid()
    // rejects them above, so they fail here with a coded diagnostic.
    diags_.error("[SP001] unknown type '" + std::string(t) + "'", loc);
    failed_ = true;
    return Type::u32();
  }

  void parse_decl(std::vector<VarDecl>& vars, std::vector<SignalDecl>& signals) {
    bool observable = false;
    if (at_keyword("observable")) {
      advance();
      observable = true;
    }
    if (at_keyword("var")) {
      advance();
      VarDecl v;
      v.is_observable = observable;
      v.name = expect_ident("variable name");
      expect(Tok::Colon);
      v.type = parse_type();
      if (at(Tok::Assign)) {
        advance();
        v.init = v.type.wrap(expect_int("initial value"));
      }
      expect(Tok::Semi);
      vars.push_back(std::move(v));
      return;
    }
    if (observable) {
      err("'observable' must be followed by 'var'");
      return;
    }
    if (at_keyword("signal")) {
      advance();
      SignalDecl s;
      s.name = expect_ident("signal name");
      expect(Tok::Colon);
      s.type = parse_type();
      if (at(Tok::Assign)) {
        advance();
        s.init = s.type.wrap(expect_int("initial value"));
      }
      expect(Tok::Semi);
      signals.push_back(std::move(s));
      return;
    }
    err("expected declaration");
  }

  Procedure parse_proc() {
    Procedure p;
    expect_keyword("proc");
    p.name = expect_ident("procedure name");
    expect(Tok::LParen);
    if (!at(Tok::RParen)) {
      while (!failed_) {
        Param prm;
        if (at_keyword("out")) {
          advance();
          prm.is_out = true;
        }
        prm.name = expect_ident("parameter name");
        expect(Tok::Colon);
        prm.type = parse_type();
        p.params.push_back(std::move(prm));
        if (at(Tok::Comma)) {
          advance();
          continue;
        }
        break;
      }
    }
    expect(Tok::RParen);
    expect(Tok::LBrace);
    while (!failed_ && at_keyword("var")) {
      advance();
      std::string name(expect_ident("local name"));
      expect(Tok::Colon);
      Type t = parse_type();
      expect(Tok::Semi);
      p.locals.emplace_back(std::move(name), t);
    }
    p.body = parse_stmts_until_rbrace();
    expect(Tok::RBrace);
    return p;
  }

  BehaviorPtr parse_behavior() {
    const Nest nest(*this);
    expect_keyword("behavior");
    const SourceLoc loc = peek().loc;
    std::string name(expect_ident("behavior name"));
    expect(Tok::Colon);
    const std::string_view kind = expect_ident("behavior kind");
    BehaviorKind k = BehaviorKind::Leaf;
    if (kind == "leaf") {
      k = BehaviorKind::Leaf;
    } else if (kind == "seq") {
      k = BehaviorKind::Sequential;
    } else if (kind == "conc") {
      k = BehaviorKind::Concurrent;
    } else if (!failed_) {
      err("behavior kind must be leaf, seq or conc; found '" +
          std::string(kind) + "'");
    }
    expect(Tok::LBrace);

    auto b = std::make_unique<Behavior>();
    b->name = std::move(name);
    b->kind = k;
    b->loc = loc;

    while (!failed_ && (at_keyword("var") || at_keyword("signal") ||
                        at_keyword("observable"))) {
      parse_decl(b->vars, b->signals);
    }
    if (k == BehaviorKind::Leaf) {
      b->body = parse_stmts_until_rbrace();
    } else {
      while (!failed_ && at_keyword("behavior")) {
        b->children.push_back(parse_behavior());
      }
      if (!failed_ && at_keyword("transitions")) {
        advance();
        expect(Tok::LBrace);
        while (!failed_ && !at(Tok::RBrace)) {
          Transition t;
          t.from = expect_ident("transition source");
          expect(Tok::Arrow);
          const std::string_view to = expect_ident("transition target");
          if (to != "complete") t.to = to;
          if (at_keyword("when")) {
            advance();
            t.guard = parse_expr();
          }
          expect(Tok::Semi);
          b->transitions.push_back(std::move(t));
        }
        expect(Tok::RBrace);
      }
    }
    expect(Tok::RBrace);
    return b;
  }

  StmtList parse_stmts_until_rbrace() {
    StmtList out;
    while (!failed_ && !at(Tok::RBrace) && !at(Tok::End)) {
      out.push_back(parse_stmt());
    }
    return out;
  }

  StmtList parse_braced_block() {
    const Nest nest(*this);
    expect(Tok::LBrace);
    StmtList b = parse_stmts_until_rbrace();
    expect(Tok::RBrace);
    return b;
  }

  StmtPtr parse_stmt() {
    const SourceLoc loc = peek().loc;
    StmtPtr s;
    if (at_keyword("if")) {
      advance();
      ExprPtr cond = parse_expr();
      StmtList then_b = parse_braced_block();
      StmtList else_b;
      if (at_keyword("else")) {
        advance();
        else_b = parse_braced_block();
      }
      s = Stmt::if_(std::move(cond), std::move(then_b), std::move(else_b));
    } else if (at_keyword("while")) {
      advance();
      ExprPtr cond = parse_expr();
      s = Stmt::while_(std::move(cond), parse_braced_block());
    } else if (at_keyword("loop")) {
      advance();
      s = Stmt::loop(parse_braced_block());
    } else if (at_keyword("wait")) {
      advance();
      s = Stmt::wait(parse_expr());
      expect(Tok::Semi);
    } else if (at_keyword("delay")) {
      advance();
      s = Stmt::delay_for(expect_int("delay cycle count"));
      expect(Tok::Semi);
    } else if (at_keyword("call")) {
      advance();
      std::string callee(expect_ident("procedure name"));
      expect(Tok::LParen);
      std::vector<ExprPtr> args;
      if (!at(Tok::RParen)) {
        while (!failed_) {
          args.push_back(parse_expr());
          if (at(Tok::Comma)) {
            advance();
            continue;
          }
          break;
        }
      }
      expect(Tok::RParen);
      expect(Tok::Semi);
      s = Stmt::call(std::move(callee), std::move(args));
    } else if (at_keyword("break")) {
      advance();
      expect(Tok::Semi);
      s = Stmt::break_();
    } else if (at_keyword("nop")) {
      advance();
      expect(Tok::Semi);
      s = Stmt::nop();
    } else if (at(Tok::Ident)) {
      std::string target(advance().text);
      if (at(Tok::Assign)) {
        advance();
        s = Stmt::assign(std::move(target), parse_expr());
      } else if (at(Tok::Le)) {
        advance();
        s = Stmt::signal_assign(std::move(target), parse_expr());
      } else {
        err("expected ':=' or '<=' after '" + target + "'");
        s = Stmt::nop();
      }
      expect(Tok::Semi);
    } else {
      err("expected statement, found " + describe(peek()));
      s = Stmt::nop();
      if (!at(Tok::End)) advance();  // make progress
    }
    s->loc = loc;
    return s;
  }

  ExprPtr parse_expr() {
    size_t height = 0;
    return parse_expr_prec(0, height);
  }

  // Precedence climbing. min_prec of 0 accepts any expression. `height`
  // receives the height of the returned tree: the parser does not recurse
  // down a left-deep chain, but every later pass does.
  ExprPtr parse_expr_prec(int min_prec, size_t& height) {
    ExprPtr lhs = parse_unary(height);
    while (!failed_) {
      BinOp op;
      if (!binop_of(peek().kind, op)) break;
      const int prec = precedence(op);
      if (prec < min_prec) break;
      advance();
      // All operators are left-associative: the right operand must bind
      // strictly tighter.
      size_t rhs_height = 0;
      ExprPtr rhs = parse_expr_prec(prec + 1, rhs_height);
      lhs = Expr::binary(op, std::move(lhs), std::move(rhs));
      height = 1 + std::max(height, rhs_height);
      check_depth(height);
    }
    return lhs;
  }

  static bool binop_of(Tok t, BinOp& op) {
    switch (t) {
      case Tok::Plus: op = BinOp::Add; return true;
      case Tok::Minus: op = BinOp::Sub; return true;
      case Tok::Star: op = BinOp::Mul; return true;
      case Tok::Slash: op = BinOp::Div; return true;
      case Tok::Percent: op = BinOp::Mod; return true;
      case Tok::Amp: op = BinOp::And; return true;
      case Tok::Pipe: op = BinOp::Or; return true;
      case Tok::Caret: op = BinOp::Xor; return true;
      case Tok::Shl: op = BinOp::Shl; return true;
      case Tok::Shr: op = BinOp::Shr; return true;
      case Tok::Lt: op = BinOp::Lt; return true;
      case Tok::Le: op = BinOp::Le; return true;
      case Tok::Gt: op = BinOp::Gt; return true;
      case Tok::Ge: op = BinOp::Ge; return true;
      case Tok::EqEq: op = BinOp::Eq; return true;
      case Tok::Ne: op = BinOp::Ne; return true;
      case Tok::AmpAmp: op = BinOp::LogicalAnd; return true;
      case Tok::PipePipe: op = BinOp::LogicalOr; return true;
      default: return false;
    }
  }

  // Parentheses and unary operators are the expression grammar's only
  // unbounded recursion, so each call holds one nesting level.
  ExprPtr parse_unary(size_t& height) {
    const SourceLoc loc = peek().loc;
    const Nest nest(*this);
    height = 0;
    ExprPtr e;
    if (failed_) {
      e = Expr::lit(0);
    } else if (at(Tok::Bang)) {
      advance();
      e = Expr::unary(UnOp::LogicalNot, parse_unary(height));
      ++height;
    } else if (at(Tok::Tilde)) {
      advance();
      e = Expr::unary(UnOp::BitNot, parse_unary(height));
      ++height;
    } else if (at(Tok::Minus)) {
      advance();
      e = Expr::unary(UnOp::Neg, parse_unary(height));
      ++height;
    } else if (at(Tok::Int)) {
      e = Expr::lit(advance().int_value, Type::u64());
    } else if (at(Tok::Ident)) {
      e = Expr::ref(std::string(advance().text));
    } else if (at(Tok::LParen)) {
      advance();
      e = parse_expr_prec(0, height);
      expect(Tok::RParen);
    } else {
      err("expected expression, found " + describe(peek()));
      e = Expr::lit(0);
    }
    e->loc = loc;
    return e;
  }

  std::vector<Token> toks_;
  DiagnosticSink& diags_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // nesting levels currently held (see Nest)
  bool failed_ = false;
};

}  // namespace

std::optional<Specification> parse_spec(std::string_view source,
                                        DiagnosticSink& diags) {
  telemetry::Span span("parse", telemetry::Stability::Stable);
  std::vector<Token> toks = lex(source, diags);
  if (diags.has_errors()) return std::nullopt;
  Parser p(std::move(toks), diags);
  auto spec = p.parse_specification();
  if (p.failed()) return std::nullopt;
  return spec;
}

ExprPtr parse_expr(std::string_view source, DiagnosticSink& diags) {
  std::vector<Token> toks = lex(source, diags);
  if (diags.has_errors()) return nullptr;
  Parser p(std::move(toks), diags);
  return p.parse_only_expr();
}

}  // namespace specsyn
