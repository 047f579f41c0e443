// Unit tests for the SpecLang lexer/parser, including print->parse round-trips.
#include <gtest/gtest.h>

#include "fuzz/generator.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Lexer, TokenKinds) {
  DiagnosticSink diags;
  auto toks = lex("x := 42; a -> b <= < << ( ) && & != !", diags);
  ASSERT_FALSE(diags.has_errors()) << diags.str();
  std::vector<Tok> kinds;
  for (const auto& t : toks) kinds.push_back(t.kind);
  const std::vector<Tok> expect = {
      Tok::Ident, Tok::Assign, Tok::Int, Tok::Semi, Tok::Ident, Tok::Arrow,
      Tok::Ident, Tok::Le, Tok::Lt, Tok::Shl, Tok::LParen, Tok::RParen,
      Tok::AmpAmp, Tok::Amp, Tok::Ne, Tok::Bang, Tok::End};
  EXPECT_EQ(kinds, expect);
}

TEST(Lexer, CommentsAndLocations) {
  DiagnosticSink diags;
  auto toks = lex("// comment\n  ident", diags);
  ASSERT_FALSE(diags.has_errors());
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "ident");
  EXPECT_EQ(toks[0].loc.line, 2u);
  EXPECT_EQ(toks[0].loc.column, 3u);
}

// Columns count bytes from 1, a tab included; runs of blanks, comments and
// identifiers longer than the small-string buffer all advance the column by
// their byte length, and a newline inside none of them resets it.
TEST(Lexer, LocationsAfterTabsIndentationCommentsAndLongNames) {
  DiagnosticSink diags;
  const std::string src =
      "\tspec\t\tTop;\n" +
      std::string(32, ' ') + "x_very_long_identifier_name := 1; // note\n" +
      "\t  y<=2;//c\n"
      "//only\n"
      "z";
  const auto toks = lex(src, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.str();
  struct Expect {
    Tok kind;
    const char* text;
    uint32_t line;
    uint32_t column;
  };
  const std::vector<Expect> expect = {
      {Tok::Ident, "spec", 1, 2},
      {Tok::Ident, "Top", 1, 8},
      {Tok::Semi, "", 1, 11},
      {Tok::Ident, "x_very_long_identifier_name", 2, 33},
      {Tok::Assign, "", 2, 61},
      {Tok::Int, "", 2, 64},
      {Tok::Semi, "", 2, 65},
      {Tok::Ident, "y", 3, 4},
      {Tok::Le, "", 3, 5},
      {Tok::Int, "", 3, 7},
      {Tok::Semi, "", 3, 8},
      {Tok::Ident, "z", 5, 1},
      {Tok::End, "", 5, 2},
  };
  ASSERT_EQ(toks.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(toks[i].kind, expect[i].kind);
    EXPECT_EQ(toks[i].text, expect[i].text);
    EXPECT_EQ(toks[i].loc.line, expect[i].line);
    EXPECT_EQ(toks[i].loc.column, expect[i].column);
  }

  // A diagnostic past a tab and a long identifier carries the same column.
  DiagnosticSink bad;
  (void)lex("\n\tabcdefghijklmnopq @", bad);
  ASSERT_EQ(bad.all().size(), 1u);
  EXPECT_EQ(bad.all()[0].loc.line, 2u);
  EXPECT_EQ(bad.all()[0].loc.column, 20u);
  EXPECT_EQ(bad.all()[0].message, "unexpected character '@'");
}

TEST(Lexer, RejectsBareEquals) {
  DiagnosticSink diags;
  (void)lex("a = b", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, RejectsUnknownChar) {
  DiagnosticSink diags;
  (void)lex("a @ b", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(Lexer, IntegerOverflowDiagnosed) {
  DiagnosticSink diags;
  (void)lex("99999999999999999999999", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(ParseExpr, Precedence) {
  DiagnosticSink diags;
  ExprPtr e = parse_expr("1 + 2 * 3 == 7 && x < 4", diags);
  ASSERT_NE(e, nullptr) << diags.str();
  EXPECT_EQ(print(*e), "1 + 2 * 3 == 7 && x < 4");
  ASSERT_EQ(e->kind, Expr::Kind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::LogicalAnd);
}

TEST(ParseExpr, ParensAndUnary) {
  DiagnosticSink diags;
  ExprPtr e = parse_expr("!(a) + ~(b) * -(2)", diags);
  ASSERT_NE(e, nullptr) << diags.str();
  EXPECT_EQ(print(*e), "!(a) + ~(b) * -(2)");
}

TEST(ParseExpr, LeftAssociativity) {
  DiagnosticSink diags;
  ExprPtr e = parse_expr("a - b - c", diags);
  ASSERT_NE(e, nullptr);
  // ((a-b)-c): top right child is plain ref c
  EXPECT_EQ(e->args[1]->kind, Expr::Kind::NameRef);
}

TEST(ParseExpr, TrailingInputRejected) {
  DiagnosticSink diags;
  EXPECT_EQ(parse_expr("a + b c", diags), nullptr);
  EXPECT_TRUE(diags.has_errors());
}

TEST(ParseSpec, MinimalSpec) {
  DiagnosticSink diags;
  auto s = parse_spec("spec S;\nbehavior T : leaf {\n nop;\n}\n", diags);
  ASSERT_TRUE(s.has_value()) << diags.str();
  EXPECT_EQ(s->name, "S");
  ASSERT_NE(s->top, nullptr);
  EXPECT_EQ(s->top->name, "T");
  EXPECT_TRUE(s->top->is_leaf());
}

TEST(ParseSpec, DeclsTypesAndInits) {
  const char* text =
      "spec S;\n"
      "observable var x : int16 := 7;\n"
      "var y : bit;\n"
      "signal go : bit := 1;\n"
      "behavior T : leaf { x := x + 1; }\n";
  DiagnosticSink diags;
  auto s = parse_spec(text, diags);
  ASSERT_TRUE(s.has_value()) << diags.str();
  ASSERT_EQ(s->vars.size(), 2u);
  EXPECT_TRUE(s->vars[0].is_observable);
  EXPECT_EQ(s->vars[0].init, 7u);
  EXPECT_EQ(s->vars[0].type, Type::u16());
  EXPECT_EQ(s->vars[1].type, Type::bit());
  ASSERT_EQ(s->signals.size(), 1u);
  EXPECT_EQ(s->signals[0].init, 1u);
}

TEST(ParseSpec, HierarchyAndTransitions) {
  const char* text =
      "spec S;\n"
      "var x : int8;\n"
      "behavior Main : seq {\n"
      "  behavior A : leaf { x := 2; }\n"
      "  behavior B : leaf { x := 3; }\n"
      "  transitions {\n"
      "    A -> B when x > 1;\n"
      "    B -> complete;\n"
      "  }\n"
      "}\n";
  DiagnosticSink diags;
  auto s = parse_spec(text, diags);
  ASSERT_TRUE(s.has_value()) << diags.str();
  EXPECT_EQ(s->top->kind, BehaviorKind::Sequential);
  ASSERT_EQ(s->top->transitions.size(), 2u);
  EXPECT_EQ(s->top->transitions[0].to, "B");
  ASSERT_NE(s->top->transitions[0].guard, nullptr);
  EXPECT_TRUE(s->top->transitions[1].completes());
}

TEST(ParseSpec, SignalAssignVsComparison) {
  // `s <= 1;` at statement level is a signal assignment; `a <= b` inside an
  // expression is less-or-equal.
  const char* text =
      "spec S;\n"
      "var a : int8;\n"
      "signal s : bit;\n"
      "behavior T : leaf {\n"
      "  s <= 1;\n"
      "  if a <= 3 { a := 1; }\n"
      "}\n";
  DiagnosticSink diags;
  auto s = parse_spec(text, diags);
  ASSERT_TRUE(s.has_value()) << diags.str();
  EXPECT_EQ(s->top->body[0]->kind, Stmt::Kind::SignalAssign);
  EXPECT_EQ(s->top->body[1]->kind, Stmt::Kind::If);
  EXPECT_EQ(s->top->body[1]->expr->bin_op, BinOp::Le);
}

TEST(ParseSpec, ProceduresWithOutParams) {
  const char* text =
      "spec S;\n"
      "var x : int16;\n"
      "proc P(a : int8, out r : int16) {\n"
      "  var t : int16;\n"
      "  t := a + 1;\n"
      "  r := t;\n"
      "}\n"
      "behavior T : leaf { call P(3, x); }\n";
  DiagnosticSink diags;
  auto s = parse_spec(text, diags);
  ASSERT_TRUE(s.has_value()) << diags.str();
  ASSERT_EQ(s->procedures.size(), 1u);
  const Procedure& p = s->procedures[0];
  EXPECT_FALSE(p.params[0].is_out);
  EXPECT_TRUE(p.params[1].is_out);
  ASSERT_EQ(p.locals.size(), 1u);
  EXPECT_EQ(p.locals[0].first, "t");
  DiagnosticSink v;
  EXPECT_TRUE(validate(*s, v)) << v.str();
}

TEST(ParseSpec, Errors) {
  DiagnosticSink d1;
  EXPECT_FALSE(parse_spec("behavior T : leaf { }", d1).has_value());
  DiagnosticSink d2;
  EXPECT_FALSE(parse_spec("spec S; behavior T : blob { }", d2).has_value());
  DiagnosticSink d3;
  EXPECT_FALSE(
      parse_spec("spec S; behavior T : leaf { x 1; }", d3).has_value());
  DiagnosticSink d4;
  EXPECT_FALSE(
      parse_spec("spec S; var v : int99; behavior T : leaf { nop; }", d4)
          .has_value());
  DiagnosticSink d5;
  EXPECT_FALSE(
      parse_spec("spec S; behavior T : leaf { nop; } trailing", d5).has_value());
}

// ---------------------------------------------------------------------------
// Round-trip: print -> parse -> print is a fixpoint.
// ---------------------------------------------------------------------------

void expect_roundtrip(const Specification& s) {
  const std::string text = print(s);
  DiagnosticSink diags;
  auto reparsed = parse_spec(text, diags);
  ASSERT_TRUE(reparsed.has_value()) << diags.str() << "\n" << text;
  EXPECT_EQ(print(*reparsed), text);
}

TEST(RoundTrip, AbcSpec) { expect_roundtrip(testing::abc_spec(3)); }

TEST(RoundTrip, SpecWithEverything) {
  Specification s;
  s.name = "Everything";
  s.vars.push_back(var("g", Type::u32(), 5, true));
  s.signals.push_back(signal("clk", Type::bit()));
  s.signals.push_back(signal("dbus", Type::u16(), 3));
  Procedure p;
  p.name = "Proto";
  p.params.push_back(in_param("a", Type::u8()));
  p.params.push_back(out_param("r", Type::u16()));
  p.locals.emplace_back("t", Type::u16());
  p.body = block(assign("t", add(ref("a"), lit(1))),
                 wait(eq(ref("clk"), lit(1))), assign("r", ref("t")));
  s.procedures.push_back(std::move(p));

  auto inner = leaf("Inner", block(loop(block(
      if_(gt(ref("g"), lit(10)), block(break_()), block(nop())),
      assign("g", add(ref("g"), lit(1)))))));
  auto w = leaf("Worker",
                block(while_(lt(ref("g"), lit(20)),
                             block(assign("g", add(ref("g"), lit(2))))),
                      sassign("dbus", ref("g")), Stmt::delay_for(3),
                      call("Proto", args(lit(2), ref("g")))));
  auto par = conc("Par", behaviors(std::move(inner), std::move(w)));
  auto fin = leaf("Fin", block(assign("g", lit(0))));
  std::vector<Transition> ts;
  ts.push_back(on("Par", gt(ref("g"), lit(5)), "Fin"));
  ts.push_back(done("Fin"));
  s.top = seq("Top", behaviors(std::move(par), std::move(fin)), std::move(ts));
  s.top->vars.push_back(var("scoped", Type::u8()));

  DiagnosticSink diags;
  ASSERT_TRUE(validate(s, diags)) << diags.str();
  expect_roundtrip(s);
}

// ---------------------------------------------------------------------------
// nesting_depth counts what the parser counts: raised to exactly
// kMaxNestingDepth a spec's text parses, one level more and it fails SP002.
// ---------------------------------------------------------------------------

Specification wrapped(const Specification& s, size_t levels) {
  Specification out = s.clone();
  for (size_t i = 0; i < levels; ++i) {
    out.top = seq("Wrap" + std::to_string(i), behaviors(std::move(out.top)));
  }
  return out;
}

bool parses(const Specification& s) {
  DiagnosticSink diags;
  const bool ok = parse_spec(print(s), diags).has_value();
  EXPECT_EQ(ok, diags.str().find("[SP002]") == std::string::npos)
      << diags.str();
  return ok;
}

/// `s`'s deepest point lies in its behavior tree: wrapping raises it one
/// level per wrapper, and the parser's verdict flips exactly at the limit.
void expect_exact_at_limit(const Specification& s) {
  const size_t d = nesting_depth(s);
  ASSERT_LT(d, kMaxNestingDepth);
  const Specification at = wrapped(s, kMaxNestingDepth - d);
  EXPECT_EQ(nesting_depth(at), kMaxNestingDepth) << print(s);
  EXPECT_TRUE(parses(at)) << print(s);
  const Specification over = wrapped(s, kMaxNestingDepth - d + 1);
  EXPECT_EQ(nesting_depth(over), kMaxNestingDepth + 1);
  EXPECT_FALSE(parses(over)) << print(s);
}

Specification one_leaf(StmtList body) {
  Specification s;
  s.name = "N";
  s.vars = {var("x"), var("y")};
  s.signals = {signal("g")};
  Procedure p;  // `call P(...)`: arguments count at the call's depth
  p.name = "P";
  p.params = {in_param("a"), in_param("b")};
  p.body = block(nop());
  s.procedures.push_back(std::move(p));
  s.top = leaf("T", std::move(body));
  return s;
}

TEST(NestingDepth, ExpressionShapesMatchParserAtLimit) {
  // Left- and right-nested chains, mixed precedence (parenthesized and
  // not), nested unary operators and every statement that holds one.
  std::vector<StmtList> bodies;
  bodies.push_back(block(assign("x", lit(1))));
  bodies.push_back(block(assign("x", add(add(add(ref("x"), lit(1)), lit(2)),
                                         lit(3)))));
  bodies.push_back(block(assign(
      "x", sub(ref("x"), sub(ref("y"), sub(lit(1), sub(lit(2), lit(3))))))));
  bodies.push_back(block(assign(
      "x", mul(add(ref("x"), lit(1)), add(mul(ref("y"), lit(2)), lit(3))))));
  bodies.push_back(block(assign(
      "x", add(mul(ref("x"), mul(ref("y"), lit(2))), lit(3)))));
  bodies.push_back(block(assign(
      "x", neg(bnot(lnot(add(ref("x"), lit(1))))))));
  bodies.push_back(block(assign("x", add(lit(1), neg(neg(ref("y")))))));
  bodies.push_back(
      block(assign("x", sub(ref("x"), sub(ref("y"), neg(lit(1)))))));
  bodies.push_back(block(call("P", args(neg(neg(ref("y"))), lit(2)))));
  bodies.push_back(block(sassign("g", land(lt(ref("x"), lit(1)),
                                            lor(ref("y"), lnot(ref("x")))))));
  bodies.push_back(block(wait(eq(add(ref("g"), lit(1)), lit(2)))));
  bodies.push_back(block(if_(gt(ref("x"), lit(1)), block(nop()),
                             block(while_(ref("y"), block(loop(block(
                                 assign("x", neg(ref("y"))), break_()))))))));
  bodies.push_back(block(loop(block()), if_(ref("x"), block())));
  for (StmtList& body : bodies) expect_exact_at_limit(one_leaf(std::move(body)));
}

TEST(NestingDepth, GuardsAndGeneratedSpecsMatchParserAtLimit) {
  Specification abc = testing::abc_spec(3);
  abc.top->transitions[0].guard = lnot(lnot(gt(ref("x"), lit(1))));
  expect_exact_at_limit(abc);
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    fuzz::GenOptions opts;
    opts.seed = seed;
    const Specification s = fuzz::generate_spec(opts);
    if (nesting_depth(wrapped(s, 1)) == nesting_depth(s) + 1) {
      expect_exact_at_limit(s);
      ++checked;
    }
  }
  EXPECT_GE(checked, 6u);
  // Refined models: inlined protocol loops, serve loops and arbiters.
  const Specification orig = testing::abc_spec(3);
  const AccessGraph graph = build_access_graph(orig);
  Partition part(orig, Allocation::proc_plus_asic());
  part.assign_behavior("B", 1);
  part.auto_assign_vars(graph);
  for (const ProtocolStyle style :
       {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
    RefineConfig cfg;
    cfg.model = ImplModel::Model4;
    cfg.protocol = style;
    expect_exact_at_limit(refine(part, graph, cfg).refined);
  }
}

TEST(NestingDepth, ProcedureBodiesCountFromZero) {
  for (const size_t loops : {kMaxNestingDepth - 1, kMaxNestingDepth}) {
    Specification s = one_leaf(block(nop()));
    Procedure p;
    p.name = "Deep";
    p.body = block(assign("x", lit(1)));
    for (size_t i = 0; i < loops; ++i) p.body = block(loop(std::move(p.body)));
    s.procedures.push_back(std::move(p));
    EXPECT_EQ(nesting_depth(s), loops + 1);
    EXPECT_EQ(parses(s), loops + 1 <= kMaxNestingDepth);
  }
}

}  // namespace
}  // namespace specsyn
