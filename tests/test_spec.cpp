// Unit tests for the spec IR: construction, cloning, lookup, validation.
#include <gtest/gtest.h>

#include "printer/printer.h"
#include "spec/builder.h"
#include "spec/index.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Type, WrapAndMask) {
  EXPECT_EQ(Type::bit().mask(), 1u);
  EXPECT_EQ(Type::u8().mask(), 0xFFu);
  EXPECT_EQ(Type::u64().mask(), ~uint64_t{0});
  EXPECT_EQ(Type::u8().wrap(0x1FF), 0xFFu);
  EXPECT_EQ(Type::of_width(3).wrap(9), 1u);
  EXPECT_TRUE(Type::of_width(64).valid());
  EXPECT_FALSE(Type::of_width(0).valid());
  EXPECT_FALSE(Type::of_width(65).valid());
}

TEST(Type, Spelling) {
  EXPECT_EQ(Type::bit().str(), "bit");
  EXPECT_EQ(Type::u16().str(), "int16");
  EXPECT_EQ(Type::of_width(17).str(), "int17");
}

TEST(Expr, FactoriesAndClone) {
  ExprPtr e = add(ref("x"), mul(lit(3), ref("y")));
  ASSERT_EQ(e->kind, Expr::Kind::Binary);
  EXPECT_EQ(e->bin_op, BinOp::Add);
  ExprPtr c = e->clone();
  EXPECT_EQ(print(*c), print(*e));
  // Deep: mutating the clone must not touch the original.
  c->args[0]->name = "z";
  EXPECT_NE(print(*c), print(*e));
}

TEST(Expr, CollectNamesAndReferences) {
  ExprPtr e = land(gt(ref("a"), lit(1)), eq(ref("b"), ref("a")));
  std::vector<std::string> names;
  e->collect_names(names);
  EXPECT_EQ(names.size(), 3u);
  EXPECT_TRUE(e->references("a"));
  EXPECT_TRUE(e->references("b"));
  EXPECT_FALSE(e->references("c"));
}

TEST(Stmt, CloneIsDeep) {
  StmtPtr s = if_(gt(ref("x"), lit(0)),
                  block(assign("y", lit(1))),
                  block(assign("y", lit(2))));
  StmtPtr c = s->clone();
  EXPECT_EQ(print(*c), print(*s));
  c->then_block[0]->target = "z";
  EXPECT_NE(print(*c), print(*s));
}

TEST(Stmt, NodeCount) {
  StmtPtr s = while_(lt(ref("i"), lit(4)),
                     block(assign("i", add(ref("i"), lit(1))), nop()));
  EXPECT_EQ(s->node_count(), 3u);
}

TEST(Behavior, HierarchyHelpers) {
  auto b = seq("Top",
               behaviors(leaf("A", block(nop())), leaf("B", block(nop()))),
               arcs(on("A", "B")));
  EXPECT_NE(b->find_child("A"), nullptr);
  EXPECT_EQ(b->find_child("Z"), nullptr);
  EXPECT_EQ(b->child_index("B"), 1u);
  EXPECT_EQ(b->child_index("Z"), 2u);
  EXPECT_EQ(b->all_behaviors().size(), 3u);
  EXPECT_EQ(b->stmt_count(), 2u);
}

TEST(Behavior, CloneIsDeep) {
  auto b = conc("Top", behaviors(leaf("A", block(assign("x", lit(1)))),
                                 leaf("B", block(nop()))));
  auto c = b->clone();
  c->children[0]->name = "A2";
  EXPECT_EQ(b->children[0]->name, "A");
  EXPECT_EQ(print(*c->children[0]->body[0]), print(*b->children[0]->body[0]));
}

TEST(Specification, LookupAcrossHierarchy) {
  Specification s = testing::abc_spec(3);
  EXPECT_NE(s.find_behavior("B"), nullptr);
  EXPECT_EQ(s.find_behavior("nope"), nullptr);
  const SpecIndex index(s);
  ASSERT_NE(index.parent_of(s.find_behavior("B")), nullptr);
  EXPECT_EQ(index.parent_of(s.find_behavior("B"))->name, "Main");
  EXPECT_EQ(index.parent_of(s.find_behavior("Main")), nullptr);
  const SpecIndex::Id x = index.var_id("x");
  ASSERT_NE(x, SpecIndex::kNone);
  EXPECT_EQ(index.var(x).owner, SpecIndex::kNone);  // declared at spec level
  EXPECT_EQ(s.all_vars().size(), 2u);
  EXPECT_EQ(s.all_behaviors().size(), 4u);
}

TEST(Specification, CloneIsDeep) {
  Specification s = testing::abc_spec(3);
  Specification c = s.clone();
  c.find_behavior("A")->name = "A2";
  EXPECT_NE(s.find_behavior("A"), nullptr);
  EXPECT_EQ(print(c.clone()), print(c));
}

TEST(Specification, FullySequentialDetection) {
  EXPECT_TRUE(testing::abc_spec(3).is_fully_sequential());
  Specification s;
  s.name = "C";
  s.top = conc("T", behaviors(leaf("A", block(nop())), leaf("B", block(nop()))));
  EXPECT_FALSE(s.is_fully_sequential());
}

// ---------------------------------------------------------------------------
// validate()
// ---------------------------------------------------------------------------

TEST(Validate, AcceptsWellFormedSpec) {
  DiagnosticSink diags;
  EXPECT_TRUE(validate(testing::abc_spec(0), diags)) << diags.str();
}

TEST(Validate, RejectsMissingTop) {
  Specification s;
  s.name = "Empty";
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, RejectsDuplicateBehaviorNames) {
  Specification s;
  s.name = "Dup";
  s.top = seq("T", build::behaviors(leaf("A", block(nop())),
                                    leaf("A", block(nop()))));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
  EXPECT_NE(diags.str().find("duplicate behavior name"), std::string::npos);
}

TEST(Validate, RejectsDuplicateDataNamesAcrossKinds) {
  Specification s;
  s.name = "Dup";
  s.vars.push_back(var("x"));
  s.signals.push_back(signal("x"));
  s.top = leaf("T", block(nop()));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, RejectsUndeclaredReference) {
  Specification s;
  s.name = "S";
  s.top = leaf("T", block(assign("ghost", lit(1))));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, RejectsAssignKindMismatch) {
  Specification s;
  s.name = "S";
  s.vars.push_back(var("v"));
  s.signals.push_back(signal("sg"));
  s.top = leaf("T", block(assign("sg", lit(1)), sassign("v", lit(1))));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
  EXPECT_EQ(diags.error_count(), 2u);
}

TEST(Validate, RejectsOutOfScopeReference) {
  // Variable declared in sibling A is not visible in B.
  Specification s;
  s.name = "S";
  auto a = leaf("A", block(nop()));
  a->vars.push_back(var("hidden"));
  auto b = leaf("B", block(assign("hidden", lit(1))));
  s.top = seq("T", build::behaviors(std::move(a), std::move(b)));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, AcceptsParentScopeReference) {
  Specification s;
  s.name = "S";
  auto parent = seq("P", build::behaviors(leaf("A", block(assign("x", lit(1))))));
  parent->vars.push_back(var("x"));
  s.top = std::move(parent);
  DiagnosticSink diags;
  EXPECT_TRUE(validate(s, diags)) << diags.str();
}

TEST(Validate, RejectsBadTransitions) {
  Specification s;
  s.name = "S";
  s.top = seq("T", build::behaviors(leaf("A", block(nop()))),
              arcs(on("A", "Ghost"), on("Ghost", "A")));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
  EXPECT_EQ(diags.error_count(), 2u);
}

TEST(Validate, RejectsLeafWithChildrenShape) {
  Specification s;
  s.name = "S";
  auto bad = std::make_unique<Behavior>();
  bad->name = "L";
  bad->kind = BehaviorKind::Leaf;
  bad->children.push_back(leaf("C", block(nop())));
  s.top = std::move(bad);
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, RejectsEmptyComposite) {
  Specification s;
  s.name = "S";
  s.top = seq("T", {});
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, RejectsBreakOutsideLoop) {
  Specification s;
  s.name = "S";
  s.top = leaf("T", block(break_()));
  DiagnosticSink diags;
  EXPECT_FALSE(validate(s, diags));
}

TEST(Validate, AcceptsBreakInsideLoop) {
  Specification s;
  s.name = "S";
  s.top = leaf("T", block(loop(block(break_()))));
  DiagnosticSink diags;
  EXPECT_TRUE(validate(s, diags)) << diags.str();
}

TEST(Validate, CallChecks) {
  Specification s;
  s.name = "S";
  s.vars.push_back(var("x"));
  Procedure p;
  p.name = "P";
  p.params.push_back(in_param("a"));
  p.params.push_back(out_param("r"));
  p.body = block(assign("r", add(ref("a"), lit(1))));
  s.procedures.push_back(std::move(p));

  // good call
  s.top = leaf("T", block(call("P", args(lit(1), ref("x")))));
  DiagnosticSink d1;
  EXPECT_TRUE(validate(s, d1)) << d1.str();

  // arity mismatch
  s.top = leaf("T", block(call("P", args(lit(1)))));
  DiagnosticSink d2;
  EXPECT_FALSE(validate(s, d2));

  // out arg must be a name
  s.top = leaf("T", block(call("P", args(lit(1), lit(2)))));
  DiagnosticSink d3;
  EXPECT_FALSE(validate(s, d3));

  // unknown callee
  s.top = leaf("T", block(call("Q", args())));
  DiagnosticSink d4;
  EXPECT_FALSE(validate(s, d4));
}

TEST(Validate, WarnsOnSignalFreeWait) {
  Specification s;
  s.name = "S";
  s.vars.push_back(var("x"));
  s.top = leaf("T", block(wait(gt(ref("x"), lit(0)))));
  DiagnosticSink diags;
  EXPECT_TRUE(validate(s, diags));  // warning, not error
  EXPECT_NE(diags.str().find("wait condition references no signal"),
            std::string::npos);
}

TEST(Validate, ValidateOrThrowThrowsWithDiagnostics) {
  Specification s;
  s.name = "Broken";
  s.top = leaf("T", block(assign("ghost", lit(1))));
  EXPECT_THROW(validate_or_throw(s), SpecError);
}

}  // namespace
}  // namespace specsyn
