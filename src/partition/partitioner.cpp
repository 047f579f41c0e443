#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>

#include "telemetry/telemetry.h"

namespace specsyn {

const char* to_string(RatioGoal g) {
  switch (g) {
    case RatioGoal::Balanced: return "local=global";
    case RatioGoal::MoreLocal: return "local>global";
    case RatioGoal::MoreGlobal: return "local<global";
  }
  return "?";
}

namespace {

double goal_score(RatioGoal goal, size_t local, size_t global,
                  double imbalance) {
  const double l = static_cast<double>(local);
  const double g = static_cast<double>(global);
  switch (goal) {
    case RatioGoal::Balanced:
      return -std::abs(l - g) - imbalance;
    case RatioGoal::MoreLocal:
      // Communication must still exist: demand at least one global variable.
      if (global == 0) return -1e9;
      return (l - g) - imbalance + (local > global ? 100.0 : 0.0);
    case RatioGoal::MoreGlobal:
      if (local == 0) return (g - l) - imbalance;  // acceptable, not ideal
      return (g - l) - imbalance + (global > local ? 100.0 : 0.0);
  }
  return -1e9;
}

}  // namespace

AssignmentScorer::AssignmentScorer(const SpecIndex& index,
                                   const AccessGraph& graph,
                                   size_t components,
                                   const PartitionerOptions& opts)
    : table_(index, graph),
      opts_(opts),
      component_(index.size(), 0),
      votes_(components),
      load_(components) {
  for (SpecIndex::Id id = 0; id < index.size(); ++id) {
    if (index.behavior(id).is_leaf()) leaves_.push_back(id);
  }
}

AssignmentScorer::Score AssignmentScorer::score(
    std::span<const size_t> assign) {
  // Only leaves are pinned, so every composite stays on component 0.
  std::fill(load_.begin(), load_.end(), 0);
  for (size_t i = 0; i < leaves_.size(); ++i) {
    component_[leaves_[i]] = assign[i];
    ++load_[assign[i]];
  }
  size_t local = 0, global = 0;
  for (SpecIndex::Id v = 0; v < table_.var_count(); ++v) {
    const size_t home = table_.majority_component(v, component_, votes_);
    (table_.is_global(v, home, component_) ? global : local) += 1;
  }

  const auto [min_load, max_load] =
      std::minmax_element(load_.begin(), load_.end());
  const double imbalance =
      static_cast<double>(*max_load - *min_load) * opts_.balance_weight;
  return {goal_score(opts_.goal, local, global, imbalance), local, global};
}

PartitionerResult make_ratio_partition(const Specification& spec,
                                       const AccessGraph& graph,
                                       Allocation alloc,
                                       const PartitionerOptions& opts) {
  telemetry::Span span("partition", telemetry::Stability::Stable);
  const size_t p = alloc.size();
  if (p < 2) throw SpecError("ratio partitioner needs at least 2 components");
  // The winner's partition; its index also serves the search.
  Partition best(spec, std::move(alloc));
  AssignmentScorer scorer(best.index(), graph, p, opts);
  const std::vector<SpecIndex::Id>& leaves = scorer.leaves();
  const size_t n = leaves.size();
  if (n < 2) throw SpecError("ratio partitioner needs at least 2 leaf behaviors");

  std::vector<size_t> best_assign;
  AssignmentScorer::Score best_score{-1e18};
  uint64_t candidates = 0;

  if (p == 2 && n <= opts.exhaustive_limit) {
    // Exhaustive over 2^n two-component assignments (both sides non-empty).
    const uint64_t limit = uint64_t{1} << n;
    std::vector<size_t> assign(n, 0);
    for (uint64_t mask = 1; mask + 1 < limit; ++mask) {
      for (size_t i = 0; i < n; ++i) assign[i] = (mask >> i) & 1;
      const AssignmentScorer::Score s = scorer.score(assign);
      ++candidates;
      if (s.score > best_score.score) {
        best_score = s;
        best_assign = assign;
      }
    }
  } else {
    // Deterministic greedy: round-robin seed, then single-move hill climbing.
    best_assign.resize(n);
    for (size_t i = 0; i < n; ++i) best_assign[i] = i % p;
    best_score = scorer.score(best_assign);
    ++candidates;
    bool improved = true;
    while (improved) {
      improved = false;
      for (size_t i = 0; i < n; ++i) {
        const size_t orig = best_assign[i];
        for (size_t c = 0; c < p; ++c) {
          if (c == orig) continue;
          const size_t kept = best_assign[i];
          best_assign[i] = c;
          const AssignmentScorer::Score s = scorer.score(best_assign);
          ++candidates;
          if (s.score > best_score.score) {
            best_score = s;
            improved = true;
          } else {
            best_assign[i] = kept;
          }
        }
      }
    }
  }
  SPECSYN_TM_COUNT("partition.candidates", telemetry::Stability::Stable,
                   candidates);

  for (size_t i = 0; i < n; ++i) {
    best.assign_behavior(best.index().behavior(leaves[i]).name,
                         best_assign[i]);
  }
  best.auto_assign_vars(graph);
  size_t best_local = best_score.local_vars;
  size_t best_global = best_score.global_vars;

  // The behavior split alone cannot make a single-accessor variable global —
  // it is local wherever its accessor lives. The paper's Design3
  // (local < global) therefore also *stores* variables away from their
  // accessors; emulate that with a flip pass: move local variables with the
  // fewest static accesses to another component until global > local.
  if (opts.goal == RatioGoal::MoreGlobal && p >= 2) {
    auto counts = best.local_global_counts(graph);
    while (counts.second <= counts.first) {
      // Cheapest still-local variable.
      std::string pick;
      size_t pick_sites = SIZE_MAX;
      size_t pick_comp = 0;
      for (const VarPlacement& vp : best.classify_vars(graph)) {
        if (vp.is_global) continue;
        size_t sites = 0;
        for (const DataChannel& c : graph.data_channels()) {
          if (c.var == vp.var) sites += c.sites;
        }
        if (sites < pick_sites) {
          pick_sites = sites;
          pick = vp.var;
          pick_comp = vp.component;
        }
      }
      if (pick.empty()) break;  // nothing left to flip
      best.assign_var(pick, (pick_comp + 1) % p);
      counts = best.local_global_counts(graph);
    }
    best_local = counts.first;
    best_global = counts.second;
  }

  return {std::move(best), best_local, best_global, best_score.score};
}

}  // namespace specsyn
