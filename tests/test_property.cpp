// Property-based tests: seeded random specifications x random partitions x
// all four implementation models must preserve functional equivalence.
// This is the library's strongest correctness statement — refinement is a
// semantics-preserving source-to-source transformation on *any* valid input,
// not just the curated examples.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "printer/printer.h"
#include "parser/parser.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "workloads/synthetic.h"
#include "test_util.h"

namespace specsyn {
namespace {

struct PropertyCase {
  uint64_t seed;
  ImplModel model;
  ProtocolStyle protocol;
};

// Without a printer gtest dumps the parameter's bytes, padding included, and
// the dump ends each discovered test name (`ctest -N`), so the names changed
// from build to build. This prints the same dump with the padding zeroed:
// the names keep their form and become deterministic.
void PrintTo(const PropertyCase& pc, std::ostream* os) {
  unsigned char bytes[sizeof(PropertyCase)] = {};
  std::memcpy(bytes + offsetof(PropertyCase, seed), &pc.seed, sizeof pc.seed);
  std::memcpy(bytes + offsetof(PropertyCase, model), &pc.model,
              sizeof pc.model);
  std::memcpy(bytes + offsetof(PropertyCase, protocol), &pc.protocol,
              sizeof pc.protocol);
  *os << sizeof bytes << "-byte object <";
  for (size_t i = 0; i < sizeof bytes; ++i) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << (i == 0 ? "" : i % 2 == 0 ? " " : "-") << hex;
  }
  *os << '>';
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_" +
         to_string(info.param.model) + "_" +
         (info.param.protocol == ProtocolStyle::FullHandshake ? "hs" : "bs");
}

class RefineProperty : public ::testing::TestWithParam<PropertyCase> {};

class RefinePropertyP3 : public ::testing::TestWithParam<PropertyCase> {};

// Three-component allocation: exercises Model3's dedicated-bus mesh and
// Model4's multi-interface routing harder than the two-chip setup.
TEST_P(RefinePropertyP3, EquivalenceHolds) {
  const PropertyCase& pc = GetParam();
  SyntheticOptions opts;
  opts.seed = pc.seed;
  opts.leaf_behaviors = 6 + pc.seed % 4;
  opts.variables = 9 + pc.seed % 4;
  opts.conc_percent = (pc.seed % 2 == 0) ? 30 : 0;
  Specification spec = make_synthetic_spec(opts);
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::asics(3));
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  for (size_t i = 0; i < leaves.size(); ++i) {
    part.assign_behavior(leaves[i], (i + pc.seed) % 3);
  }
  part.auto_assign_vars(graph);
  RefineConfig cfg;
  cfg.model = pc.model;
  cfg.protocol = pc.protocol;
  RefineResult r = refine(part, graph, cfg);
  EquivalenceOptions eq_opts;
  eq_opts.compare_write_traces = keeps_write_sequences(pc.protocol);
  EquivalenceReport rep = check_equivalence(spec, r.refined, eq_opts);
  EXPECT_TRUE(rep.equivalent)
      << "p3 seed=" << pc.seed << " model=" << to_string(pc.model) << "\n"
      << rep.summary();
}

std::vector<PropertyCase> make_p3_cases() {
  std::vector<PropertyCase> cases;
  const ImplModel models[] = {ImplModel::Model1, ImplModel::Model2,
                              ImplModel::Model3, ImplModel::Model4};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (ImplModel m : models) {
      cases.push_back({seed, m, ProtocolStyle::FullHandshake});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SweepP3, RefinePropertyP3,
                         ::testing::ValuesIn(make_p3_cases()), case_name);

TEST_P(RefineProperty, EquivalenceHolds) {
  const PropertyCase& pc = GetParam();
  SyntheticOptions opts;
  opts.seed = pc.seed;
  opts.leaf_behaviors = 5 + pc.seed % 5;
  opts.variables = 6 + pc.seed % 6;
  opts.conc_percent = (pc.seed % 3 == 0) ? 35 : 0;
  Specification spec = make_synthetic_spec(opts);
  testing::expect_valid(spec);

  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  // Deterministic pseudo-random leaf assignment derived from the seed.
  uint64_t h = pc.seed * 2654435761u + 17;
  size_t assigned_to_1 = 0;
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  for (const std::string& name : leaves) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((h >> 33) & 1) {
      part.assign_behavior(name, 1);
      ++assigned_to_1;
    }
  }
  if (assigned_to_1 == 0) part.assign_behavior(leaves.front(), 1);
  if (assigned_to_1 == leaves.size()) part.assign_behavior(leaves.front(), 0);
  part.auto_assign_vars(graph);

  RefineConfig cfg;
  cfg.model = pc.model;
  cfg.protocol = pc.protocol;
  cfg.leaf_scheme =
      pc.seed % 2 == 0 ? LeafScheme::LoopLeaf : LeafScheme::WrapperSeq;
  cfg.inline_protocols = pc.seed % 3 != 1;  // sweep both emission modes
  RefineResult r = refine(part, graph, cfg);

  EquivalenceOptions eq_opts;
  // Byte-serial commits per beat; write traces are only comparable for the
  // full-handshake protocol.
  eq_opts.compare_write_traces = keeps_write_sequences(pc.protocol);
  EquivalenceReport rep = check_equivalence(spec, r.refined, eq_opts);
  EXPECT_TRUE(rep.equivalent)
      << "seed=" << pc.seed << " model=" << to_string(pc.model) << "\n"
      << rep.summary();
}

TEST_P(RefineProperty, RefinedSpecRoundTripsThroughParser) {
  const PropertyCase& pc = GetParam();
  SyntheticOptions opts;
  opts.seed = pc.seed;
  Specification spec = make_synthetic_spec(opts);
  AccessGraph graph = build_access_graph(spec);
  Partition part(spec, Allocation::proc_plus_asic());
  std::vector<std::string> leaves;
  spec.top->for_each([&](const Behavior& b) {
    if (b.is_leaf()) leaves.push_back(b.name);
  });
  part.assign_behavior(leaves.back(), 1);
  part.auto_assign_vars(graph);
  RefineConfig cfg;
  cfg.model = pc.model;
  cfg.protocol = pc.protocol;
  RefineResult r = refine(part, graph, cfg);

  const std::string text = print(r.refined);
  DiagnosticSink diags;
  auto reparsed = parse_spec(text, diags);
  ASSERT_TRUE(reparsed.has_value()) << diags.str();
  EXPECT_EQ(print(*reparsed), text);
  DiagnosticSink vd;
  EXPECT_TRUE(validate(*reparsed, vd)) << vd.str();
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  const ImplModel models[] = {ImplModel::Model1, ImplModel::Model2,
                              ImplModel::Model3, ImplModel::Model4};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (ImplModel m : models) {
      cases.push_back({seed, m, ProtocolStyle::FullHandshake});
    }
  }
  // A lighter byte-serial sweep.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (ImplModel m : models) {
      cases.push_back({seed, m, ProtocolStyle::ByteSerial});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RefineProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

TEST(SyntheticGenerator, DeterministicPerSeed) {
  SyntheticOptions opts;
  opts.seed = 42;
  Specification a = make_synthetic_spec(opts);
  Specification b = make_synthetic_spec(opts);
  EXPECT_EQ(print(a), print(b));
  opts.seed = 43;
  EXPECT_NE(print(make_synthetic_spec(opts)), print(a));
}

TEST(SyntheticGenerator, SpecsAreValidAndTerminate) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SyntheticOptions opts;
    opts.seed = seed;
    opts.conc_percent = 30;
    Specification s = make_synthetic_spec(opts);
    DiagnosticSink diags;
    ASSERT_TRUE(validate(s, diags)) << "seed " << seed << "\n" << diags.str();
    SimResult r = testing::run(s);
    EXPECT_EQ(r.status, SimResult::Status::Quiescent) << "seed " << seed;
    EXPECT_TRUE(r.root_completed) << "seed " << seed;
  }
}

}  // namespace
}  // namespace specsyn
