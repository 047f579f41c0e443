// Unit tests for allocation, partition assignment, variable classification
// and the ratio-driven partitioner.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "fuzz/generator.h"
#include "partition/partitioner.h"
#include "spec/builder.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

using namespace build;

TEST(Allocation, Factories) {
  Allocation a = Allocation::proc_plus_asic();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.components[0].kind, ComponentKind::Processor);
  EXPECT_EQ(a.components[1].kind, ComponentKind::Asic);
  EXPECT_EQ(a.find("ASIC"), 1u);
  EXPECT_EQ(a.find("nope"), SIZE_MAX);

  Allocation b = Allocation::asics(3);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.components[2].name, "ASIC3");
}

TEST(Partition, BehaviorInheritance) {
  Specification s = testing::abc_spec(3);
  Partition p(s, Allocation::proc_plus_asic());
  // Unpinned: everything on component 0.
  EXPECT_EQ(p.component_of_behavior("Main"), 0u);
  EXPECT_EQ(p.component_of_behavior("B"), 0u);
  p.assign_behavior("B", 1);
  EXPECT_EQ(p.component_of_behavior("B"), 1u);
  EXPECT_EQ(p.component_of_behavior("A"), 0u);
  EXPECT_TRUE(p.is_cut_behavior("B"));
  EXPECT_FALSE(p.is_cut_behavior("A"));
  EXPECT_FALSE(p.is_cut_behavior("Main"));
  auto cuts = p.cut_behaviors();
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], "B");
}

TEST(Partition, SubtreeInheritsPin) {
  Specification s;
  s.name = "T";
  s.vars = {var("x")};
  auto inner = seq("Inner", behaviors(leaf("L1", block(assign("x", lit(1)))),
                                      leaf("L2", block(nop()))));
  s.top = seq("Top", behaviors(std::move(inner), leaf("L3", block(nop()))));
  Partition p(s, Allocation::proc_plus_asic());
  p.assign_behavior("Inner", 1);
  EXPECT_EQ(p.component_of_behavior("L1"), 1u);
  EXPECT_EQ(p.component_of_behavior("L2"), 1u);
  EXPECT_EQ(p.component_of_behavior("L3"), 0u);
  // Only the subtree root is a cut.
  auto cuts = p.cut_behaviors();
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], "Inner");
}

TEST(Partition, UnknownNamesThrow) {
  Specification s = testing::abc_spec(3);
  Partition p(s, Allocation::proc_plus_asic());
  EXPECT_THROW(p.assign_behavior("ghost", 0), SpecError);
  EXPECT_THROW(p.assign_behavior("B", 5), SpecError);
  EXPECT_THROW(p.assign_var("ghost", 0), SpecError);
  EXPECT_THROW((void)p.component_of_var("ghost"), SpecError);
}

TEST(Partition, VarPlacementAndClassification) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  Partition p(s, Allocation::proc_plus_asic());
  p.assign_behavior("B", 1);
  p.auto_assign_vars(g);
  // x is accessed by Main/A (comp 0) and B (comp 1): global wherever placed.
  auto placements = p.classify_vars(g);
  const VarPlacement* x = nullptr;
  const VarPlacement* r = nullptr;
  for (const auto& vp : placements) {
    if (vp.var == "x") x = &vp;
    if (vp.var == "r") r = &vp;
  }
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->is_global);
  EXPECT_EQ(x->accessor_components.size(), 2u);
  // r is written by B (comp 1) and C (comp 0): also global.
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->is_global);
}

TEST(Partition, LocalClassification) {
  Specification s;
  s.name = "T";
  s.vars = {var("a"), var("b")};
  s.top = seq("Top", behaviors(leaf("L1", block(assign("a", lit(1)))),
                               leaf("L2", block(assign("b", lit(2))))));
  AccessGraph g = build_access_graph(s);
  Partition p(s, Allocation::proc_plus_asic());
  p.assign_behavior("L2", 1);
  p.auto_assign_vars(g);
  EXPECT_EQ(p.component_of_var("a"), 0u);
  EXPECT_EQ(p.component_of_var("b"), 1u);
  auto [local, global] = p.local_global_counts(g);
  EXPECT_EQ(local, 2u);
  EXPECT_EQ(global, 0u);
}

TEST(Partition, MisplacedVarBecomesGlobal) {
  Specification s;
  s.name = "T";
  s.vars = {var("a")};
  s.top = seq("Top", behaviors(leaf("L1", block(assign("a", lit(1)))),
                               leaf("L2", block(nop()))));
  AccessGraph g = build_access_graph(s);
  Partition p(s, Allocation::proc_plus_asic());
  p.assign_var("a", 1);  // stored away from its only accessor
  auto placements = p.classify_vars(g);
  EXPECT_TRUE(placements[0].is_global);
}

TEST(Partition, CheckReportsProblems) {
  Specification s = testing::abc_spec(3);
  Partition p(s, Allocation::proc_plus_asic());
  DiagnosticSink diags;
  p.check(diags);
  // component 1 hosts nothing -> warning but not error
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NE(diags.str().find("hosts no behaviors"), std::string::npos);
}

TEST(Partitioner, GoalsProduceRequestedRatios) {
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);

  PartitionerOptions balanced;
  balanced.goal = RatioGoal::Balanced;
  auto r1 = make_ratio_partition(s, g, Allocation::proc_plus_asic(), balanced);

  PartitionerOptions more_local;
  more_local.goal = RatioGoal::MoreLocal;
  auto r2 = make_ratio_partition(s, g, Allocation::proc_plus_asic(), more_local);

  PartitionerOptions more_global;
  more_global.goal = RatioGoal::MoreGlobal;
  auto r3 =
      make_ratio_partition(s, g, Allocation::proc_plus_asic(), more_global);

  EXPECT_GT(r2.local_vars, r2.global_vars);
  EXPECT_GT(r2.global_vars, 0u);
  EXPECT_GT(r3.global_vars, r3.local_vars);
  EXPECT_LE(static_cast<size_t>(
                std::abs(static_cast<long>(r1.local_vars) -
                         static_cast<long>(r1.global_vars))),
            static_cast<size_t>(
                std::abs(static_cast<long>(r2.local_vars) -
                         static_cast<long>(r2.global_vars))));
}

TEST(Partitioner, DeterministicAcrossRuns) {
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);
  PartitionerOptions opts;
  opts.goal = RatioGoal::Balanced;
  auto a = make_ratio_partition(s, g, Allocation::proc_plus_asic(), opts);
  auto b = make_ratio_partition(s, g, Allocation::proc_plus_asic(), opts);
  EXPECT_EQ(a.local_vars, b.local_vars);
  EXPECT_EQ(a.global_vars, b.global_vars);
  for (const char* bn : {"L0", "L1", "L2", "L3"}) {
    if (s.find_behavior(bn)) {
      EXPECT_EQ(a.partition.component_of_behavior(bn),
                b.partition.component_of_behavior(bn));
    }
  }
}

TEST(Partitioner, GreedyPathForManyComponents) {
  Specification s = testing::medical_like_spec();
  AccessGraph g = build_access_graph(s);
  PartitionerOptions opts;
  opts.goal = RatioGoal::Balanced;
  auto r = make_ratio_partition(s, g, Allocation::asics(3), opts);
  DiagnosticSink diags;
  r.partition.check(diags);
  EXPECT_TRUE(diags.str().empty()) << diags.str();  // every ASIC hosts some
}

TEST(Partitioner, RejectsDegenerateInputs) {
  Specification s = testing::abc_spec(3);
  AccessGraph g = build_access_graph(s);
  EXPECT_THROW(
      make_ratio_partition(s, g, Allocation::asics(1), PartitionerOptions{}),
      SpecError);
  Specification tiny;
  tiny.name = "T";
  tiny.top = build::leaf("Solo", build::block(build::nop()));
  AccessGraph tg = build_access_graph(tiny);
  EXPECT_THROW(make_ratio_partition(tiny, tg, Allocation::proc_plus_asic(),
                                    PartitionerOptions{}),
               SpecError);
}

// -- the candidate scorer against the Partition it replaces -------------------

/// The partition a candidate got before the channel table: leaves pinned by
/// name, every variable pinned by a name-keyed vote over the graph's
/// channels.
Partition reference_partition(const Specification& s, const AccessGraph& g,
                              const Allocation& alloc,
                              const std::vector<std::string>& leaves,
                              const std::vector<size_t>& assign) {
  Partition part(s, alloc);
  for (size_t i = 0; i < leaves.size(); ++i) {
    part.assign_behavior(leaves[i], assign[i]);
  }
  for (const VarDecl* v : s.all_vars()) {
    std::vector<size_t> votes(alloc.size(), 0);
    for (const DataChannel& c : g.data_channels()) {
      if (c.var == v->name) {
        votes[part.component_of_behavior(c.behavior)] += c.sites;
      }
    }
    size_t best = 0;
    for (size_t i = 1; i < votes.size(); ++i) {
      if (votes[i] > votes[best]) best = i;
    }
    part.assign_var(v->name, best);
  }
  return part;
}

/// The score a candidate got before the channel table: the reference
/// partition, each variable classified by its accessors' components, then
/// the goal formula.
AssignmentScorer::Score reference_score(const Specification& s,
                                        const AccessGraph& g,
                                        const Allocation& alloc,
                                        const PartitionerOptions& opts,
                                        const std::vector<std::string>& leaves,
                                        const std::vector<size_t>& assign) {
  const Partition part = reference_partition(s, g, alloc, leaves, assign);
  size_t local = 0, global = 0;
  for (const VarDecl* v : s.all_vars()) {
    bool is_global = false;
    for (const DataChannel& c : g.data_channels()) {
      is_global |= c.var == v->name && part.component_of_behavior(c.behavior) !=
                                           part.component_of_var(v->name);
    }
    (is_global ? global : local) += 1;
  }

  std::vector<size_t> load(alloc.size(), 0);
  for (size_t c : assign) ++load[c];
  size_t max_load = 0, min_load = SIZE_MAX;
  for (size_t l : load) {
    max_load = std::max(max_load, l);
    min_load = std::min(min_load, l);
  }
  const double imbalance =
      static_cast<double>(max_load - min_load) * opts.balance_weight;
  const double l = static_cast<double>(local);
  const double gl = static_cast<double>(global);
  double score = -1e9;
  switch (opts.goal) {
    case RatioGoal::Balanced:
      score = -std::abs(l - gl) - imbalance;
      break;
    case RatioGoal::MoreLocal:
      if (global != 0) {
        score = (l - gl) - imbalance + (local > global ? 100.0 : 0.0);
      }
      break;
    case RatioGoal::MoreGlobal:
      score = (gl - l) - imbalance;
      if (local != 0 && global > local) score += 100.0;
      break;
  }
  return {score, local, global};
}

/// One specification and allocation under test, with the search's leaves.
struct ScoringCase {
  const Specification& spec;
  const AccessGraph& graph;
  Allocation alloc;
  PartitionerOptions opts;
  std::vector<std::string> leaves;

  ScoringCase(const Specification& s, const AccessGraph& g, Allocation a,
              PartitionerOptions o)
      : spec(s), graph(g), alloc(std::move(a)), opts(o) {
    s.top->for_each([&](const Behavior& b) {
      if (b.is_leaf()) leaves.push_back(b.name);
    });
  }

  /// Variables whose component differs between `part` and the reference
  /// partition of `assign`.
  size_t misplaced_vars(const Partition& part,
                        const std::vector<size_t>& assign) const {
    const Partition ref =
        reference_partition(spec, graph, alloc, leaves, assign);
    size_t misplaced = 0;
    for (const VarDecl* v : spec.all_vars()) {
      misplaced += part.component_of_var(v->name) !=
                   ref.component_of_var(v->name);
    }
    return misplaced;
  }

  /// Scores `assign` with the scorer and the reference and checks that they
  /// agree; also checks Partition's own placement and counts against the
  /// reference. (A vote tie never changes a count: tied components both
  /// host accessors, so the variable is global either way.)
  AssignmentScorer::Score check(AssignmentScorer& scorer,
                                const std::vector<size_t>& assign) const {
    const AssignmentScorer::Score want =
        reference_score(spec, graph, alloc, opts, leaves, assign);
    const AssignmentScorer::Score got = scorer.score(assign);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.local_vars, want.local_vars);
    EXPECT_EQ(got.global_vars, want.global_vars);
    Partition part(spec, alloc);
    for (size_t i = 0; i < leaves.size(); ++i) {
      part.assign_behavior(leaves[i], assign[i]);
    }
    part.auto_assign_vars(graph);
    EXPECT_EQ(misplaced_vars(part, assign), 0u);
    EXPECT_EQ(part.local_global_counts(graph),
              std::make_pair(want.local_vars, want.global_vars));
    return want;
  }

  /// The search make_ratio_partition ran before the channel table, scored
  /// by the reference (and cross-checked against the scorer): exhaustive for
  /// two components and few leaves, else round-robin plus hill climbing.
  std::pair<std::vector<size_t>, double> reference_search() const {
    const SpecIndex index(spec);
    AssignmentScorer scorer(index, graph, alloc.size(), opts);
    EXPECT_EQ(scorer.leaves().size(), leaves.size());
    const size_t n = leaves.size(), p = alloc.size();
    std::vector<size_t> best;
    double best_score = -1e18;
    if (p == 2 && n <= opts.exhaustive_limit) {
      std::vector<size_t> assign(n);
      for (uint64_t mask = 1; mask + 1 < (uint64_t{1} << n); ++mask) {
        for (size_t i = 0; i < n; ++i) assign[i] = (mask >> i) & 1;
        const double s = check(scorer, assign).score;
        if (s > best_score) best_score = s, best = assign;
      }
      return {best, best_score};
    }
    for (size_t i = 0; i < n; ++i) best.push_back(i % p);
    best_score = check(scorer, best).score;
    for (bool improved = true; improved;) {
      improved = false;
      for (size_t i = 0; i < n; ++i) {
        const size_t orig = best[i];
        for (size_t c = 0; c < p; ++c) {
          if (c == orig) continue;
          std::vector<size_t> trial = best;
          trial[i] = c;
          const double s = check(scorer, trial).score;
          if (s > best_score) best_score = s, best = trial, improved = true;
        }
      }
    }
    return {best, best_score};
  }

  /// Runs make_ratio_partition and checks its winner, score and counts.
  void check_search() const {
    const auto [want_assign, want_score] = reference_search();
    const PartitionerResult r =
        make_ratio_partition(spec, graph, alloc, opts);
    std::vector<size_t> got_assign;
    for (const std::string& l : leaves) {
      got_assign.push_back(r.partition.component_of_behavior(l));
    }
    EXPECT_EQ(got_assign, want_assign);
    EXPECT_EQ(r.score, want_score);
    // The Design3 flip pass moves variables on purpose.
    if (opts.goal != RatioGoal::MoreGlobal) {
      EXPECT_EQ(misplaced_vars(r.partition, want_assign), 0u);
    }
    EXPECT_EQ(std::make_pair(r.local_vars, r.global_vars),
              r.partition.local_global_counts(graph));
  }
};

constexpr RatioGoal kGoals[] = {RatioGoal::Balanced, RatioGoal::MoreLocal,
                                RatioGoal::MoreGlobal};

TEST(Partitioner, TableScoresMatchPartitionScores) {
  const Specification med = make_medical_system();
  const AccessGraph mg = build_access_graph(med);
  // Exhaustive: every one of the 2^11 - 2 masks, for each goal.
  for (const RatioGoal goal : kGoals) {
    PartitionerOptions opts;
    opts.goal = goal;
    opts.balance_weight = 2.0;  // make_medical_design's weight
    const ScoringCase c(med, mg, Allocation::proc_plus_asic(), opts);
    ASSERT_EQ(c.leaves.size(), 11u);
    c.check_search();
  }
  for (int design = 1; design <= 3; ++design) {
    const PartitionerResult r = make_medical_design(med, mg, design);
    EXPECT_EQ(std::make_pair(r.local_vars, r.global_vars),
              r.partition.local_global_counts(mg));
  }
  // Hill climbing: three and four components.
  for (const size_t p : {3u, 4u}) {
    for (const RatioGoal goal : kGoals) {
      PartitionerOptions opts;
      opts.goal = goal;
      ScoringCase(med, mg, Allocation::asics(p), opts).check_search();
    }
  }
  // Generated specifications, both search paths.
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    fuzz::GenOptions gen;
    gen.seed = seed;
    const Specification s = fuzz::generate_spec(gen);
    const AccessGraph g = build_access_graph(s);
    for (const RatioGoal goal : kGoals) {
      PartitionerOptions opts;
      opts.goal = goal;
      const ScoringCase two(s, g, Allocation::proc_plus_asic(), opts);
      if (two.leaves.size() < 2) break;
      two.check_search();
      ScoringCase(s, g, Allocation::asics(3), opts).check_search();
      ++checked;
    }
  }
  EXPECT_GE(checked, 30u);
}

TEST(Partitioner, CountsCandidatesUnderOneSpan) {
  const Specification med = make_medical_system();
  const AccessGraph mg = build_access_graph(med);
  for (int design = 1; design <= 3; ++design) {
    telemetry::reset();
    telemetry::enable(/*stats=*/true, /*trace=*/false);
    (void)make_medical_design(med, mg, design);
    const telemetry::Snapshot snap = telemetry::snapshot();
    telemetry::enable(false, false);
    telemetry::reset();
    ASSERT_EQ(snap.counters.count("partition.candidates"), 1u);
    EXPECT_EQ(snap.counters.at("partition.candidates").value, 2046u);
    EXPECT_EQ(snap.counters.at("partition.candidates").stability,
              telemetry::Stability::Stable);
    ASSERT_EQ(snap.spans.count("partition"), 1u);
    EXPECT_EQ(snap.spans.at("partition").count, 1u);
    EXPECT_EQ(snap.spans.at("partition").stability,
              telemetry::Stability::Stable);
  }
}

// -- SpecIndex and Partition against brute-force references -------------------

/// `depth` single-child seq behaviors S0..S{depth-1} around one leaf; every
/// third level declares a variable and a signal.
Specification deep_chain(size_t depth) {
  Specification s;
  s.name = "Chain";
  s.vars.push_back(var("g"));
  BehaviorPtr b = leaf("Leaf", block(assign("g", lit(1))));
  for (size_t i = depth; i-- > 0;) {
    b = seq("S" + std::to_string(i), behaviors(std::move(b)));
    if (i % 3 == 0) {
      b->vars.push_back(var("v" + std::to_string(i)));
      b->signals.push_back(signal("s" + std::to_string(i)));
    }
  }
  s.top = std::move(b);
  return s;
}

/// A seq root over `width` concurrent groups of `fan` leaves each.
Specification fan_out(size_t width, size_t fan) {
  Specification s;
  s.name = "Fan";
  s.signals.push_back(signal("top_sig"));
  std::vector<BehaviorPtr> groups;
  for (size_t i = 0; i < width; ++i) {
    std::vector<BehaviorPtr> leaves;
    for (size_t j = 0; j < fan; ++j) {
      const std::string n = std::to_string(i) + "_" + std::to_string(j);
      leaves.push_back(leaf("L" + n, block(nop())));
      if (j % 4 == 0) leaves.back()->vars.push_back(var("w" + n));
    }
    groups.push_back(conc("G" + std::to_string(i), std::move(leaves)));
    groups.back()->signals.push_back(signal("gs" + std::to_string(i)));
  }
  s.top = seq("Root", std::move(groups));
  return s;
}

/// The answers the index gives, recomputed the slow way: a parent is found
/// by scanning every behavior's child list, a declaration by scanning the
/// specification level and then every behavior in pre-order.
struct BruteForce {
  explicit BruteForce(const Specification& s) : all(s.all_behaviors()) {
    for (const Behavior* b : all) {
      size_t parent = kTop;
      for (size_t p = 0; p < all.size(); ++p) {
        for (const auto& c : all[p]->children) {
          if (c.get() == b) parent = p;
        }
      }
      parents.push_back(parent);
    }
  }
  [[nodiscard]] const Behavior* parent(size_t i) const {
    return parents[i] == kTop ? nullptr : all[parents[i]];
  }
  /// Declaring behavior of `name` (nullptr: spec level); false if unknown.
  template <typename D>
  bool owner(const std::string& name, std::vector<D> Behavior::*list,
             const std::vector<D>& top, const Behavior*& out) const {
    for (const D& d : top) {
      if (d.name == name) return out = nullptr, true;
    }
    for (const Behavior* b : all) {
      for (const D& d : b->*list) {
        if (d.name == name) return out = b, true;
      }
    }
    return false;
  }

  static constexpr size_t kTop = SIZE_MAX;
  std::vector<const Behavior*> all;  // pre-order
  std::vector<size_t> parents;       // pre-order positions; kTop for the top
};

void expect_index_matches(const Specification& s) {
  const SpecIndex index(s);
  const BruteForce ref(s);
  ASSERT_EQ(index.size(), ref.all.size());
  size_t wrong_parent = 0, wrong_ancestor = 0;
  std::vector<bool> is_anc(ref.all.size());
  for (size_t d = 0; d < ref.all.size(); ++d) {
    const Behavior* b = ref.all[d];
    ASSERT_EQ(index.id_of(b->name), d);
    ASSERT_EQ(index.id_of(b), d);
    if (index.parent_of(b) != ref.parent(d)) ++wrong_parent;
    std::fill(is_anc.begin(), is_anc.end(), false);
    for (size_t a = d; a != BruteForce::kTop; a = ref.parents[a]) {
      is_anc[a] = true;
    }
    for (size_t a = 0; a < ref.all.size(); ++a) {
      const auto ia = static_cast<SpecIndex::Id>(a);
      const auto id = static_cast<SpecIndex::Id>(d);
      if (index.is_ancestor(ia, id) != is_anc[a]) ++wrong_ancestor;
    }
  }
  EXPECT_EQ(wrong_parent, 0u);
  EXPECT_EQ(wrong_ancestor, 0u);

  const auto owner_of = [&](SpecIndex::Id id) {
    return id == SpecIndex::kNone ? nullptr : &index.behavior(id);
  };
  size_t vars = 0, signals = 0;
  for (const VarDecl* v : s.all_vars()) {
    const Behavior* want = nullptr;
    ASSERT_TRUE(ref.owner(v->name, &Behavior::vars, s.vars, want));
    const SpecIndex::Id id = index.var_id(v->name);
    ASSERT_NE(id, SpecIndex::kNone) << v->name;
    EXPECT_EQ(index.var(id).decl, v);
    EXPECT_EQ(owner_of(index.var(id).owner), want) << v->name;
    ++vars;
  }
  for (const SignalDecl* sd : s.all_signals()) {
    const Behavior* want = nullptr;
    ASSERT_TRUE(ref.owner(sd->name, &Behavior::signals, s.signals, want));
    EXPECT_EQ(index.signal(sd->name).decl, sd);
    EXPECT_EQ(owner_of(index.signal(sd->name).owner), want) << sd->name;
    ++signals;
  }
  EXPECT_EQ(index.var_count(), vars);
  EXPECT_GT(signals, 1u);
  EXPECT_EQ(index.id_of("nope"), SpecIndex::kNone);
  EXPECT_EQ(index.find_var("nope"), nullptr);
  EXPECT_EQ(index.signal("nope").decl, nullptr);
}

TEST(SpecIndex, DeepChainMatchesBruteForce) {
  expect_index_matches(deep_chain(1000));
}

TEST(SpecIndex, WideFanOutMatchesBruteForce) {
  expect_index_matches(fan_out(40, 25));
}

/// Pins every other level of the tree, alternating components, and checks
/// every behavior's component and the cut list against a naive climb.
void expect_partition_matches(const Specification& s) {
  const BruteForce ref(s);
  Partition part(s, Allocation::asics(3));
  std::map<size_t, size_t> pins;  // pre-order position -> component
  std::vector<size_t> level(ref.all.size(), 0);
  for (size_t i = 1; i < ref.all.size(); ++i) {
    level[i] = level[ref.parents[i]] + 1;
    if (level[i] % 2 == 0) {
      pins[i] = level[i] / 2 % 3;
      part.assign_behavior(ref.all[i]->name, pins[i]);
    }
  }
  const auto naive = [&](size_t i) -> size_t {
    for (; i != BruteForce::kTop; i = ref.parents[i]) {
      if (const auto it = pins.find(i); it != pins.end()) return it->second;
    }
    return 0;
  };
  std::vector<std::string> cuts;
  std::vector<bool> hosts(part.allocation().size(), false);
  size_t wrong = 0;
  for (size_t i = 0; i < ref.all.size(); ++i) {
    const size_t want = naive(i);
    hosts[want] = true;
    if (part.component_of_behavior(ref.all[i]->name) != want) ++wrong;
    if (i != 0 && naive(ref.parents[i]) != want) {
      cuts.push_back(ref.all[i]->name);
    }
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(part.cut_behaviors(), cuts);
  EXPECT_GT(cuts.size(), 1u);
  // check() warns exactly about the components the reference leaves empty.
  std::string warnings;
  for (size_t c = 0; c < hosts.size(); ++c) {
    if (!hosts[c]) {
      warnings += "warning: component '" +
                  part.allocation().components[c].name +
                  "' hosts no behaviors\n";
    }
  }
  DiagnosticSink diags;
  part.check(diags);
  EXPECT_EQ(diags.str(), warnings);
}

TEST(Partition, DeepChainComponentsMatchNaiveClimb) {
  expect_partition_matches(deep_chain(1000));
}

TEST(Partition, WideFanOutComponentsMatchNaiveClimb) {
  expect_partition_matches(fan_out(40, 25));
}

}  // namespace
}  // namespace specsyn
