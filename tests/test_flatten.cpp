// Tests for trivial-composite flattening (spec/mutate.h), the one
// semantics-preserving rewrite the fuzz reducer uses, including semantics
// preservation via simulation.
#include <gtest/gtest.h>

#include "spec/builder.h"
#include "spec/mutate.h"
#include "workloads/synthetic.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Flatten, TrivialChainCollapses) {
  Specification s;
  s.name = "FL";
  s.vars = {var("x", Type::u8(), 0, true)};
  BehaviorPtr b = leaf("L", block(assign("x", lit(7))));
  for (int i = 0; i < 5; ++i) {
    b = seq("W" + std::to_string(i), behaviors(std::move(b)));
  }
  b->vars.push_back(var("scoped", Type::u8()));
  s.top = std::move(b);
  SimResult before = testing::run(s);
  size_t removed = flatten_trivial_composites(s);
  EXPECT_EQ(removed, 5u);
  testing::expect_valid(s);
  EXPECT_TRUE(s.top->is_leaf());
  // The composite-scoped declaration moved onto the surviving behavior.
  ASSERT_EQ(s.top->vars.size(), 1u);
  EXPECT_EQ(s.top->vars[0].name, "scoped");
  SimResult after = testing::run(s);
  EXPECT_EQ(before.final_vars.at("x"), after.final_vars.at("x"));
}

TEST(Flatten, KeepsMeaningfulComposites) {
  Specification s = testing::abc_spec(3);
  EXPECT_EQ(flatten_trivial_composites(s), 0u);
  Specification m = testing::medical_like_spec();
  EXPECT_EQ(flatten_trivial_composites(m), 0u);
}

TEST(Flatten, UpdatesParentTransitions) {
  Specification s;
  s.name = "FT";
  s.vars = {var("n", Type::u8(), 0, true)};
  auto wrapped = seq("Wrap", behaviors(leaf("Inner",
                                            block(assign("n",
                                                         add(ref("n"),
                                                             lit(1)))))));
  s.top = seq("Top", behaviors(std::move(wrapped)),
              arcs(on("Wrap", lt(ref("n"), lit(3)), "Wrap"), done("Wrap")));
  SimResult before = testing::run(s);
  EXPECT_EQ(flatten_trivial_composites(s), 1u);
  testing::expect_valid(s);
  // Arcs now reference the spliced child.
  EXPECT_EQ(s.top->transitions[0].from, "Inner");
  EXPECT_EQ(s.top->transitions[0].to, "Inner");
  SimResult after = testing::run(s);
  EXPECT_EQ(before.final_vars.at("n"), after.final_vars.at("n"));
}

TEST(Transform, PipelineOnSyntheticPreservesSemantics) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticOptions opts;
    opts.seed = seed;
    Specification s = make_synthetic_spec(opts);
    SimResult before = testing::run(s);
    flatten_trivial_composites(s);
    testing::expect_valid(s);
    SimResult after = testing::run(s);
    EXPECT_EQ(before.final_vars, after.final_vars) << "seed " << seed;
  }
}

}  // namespace
}  // namespace specsyn
