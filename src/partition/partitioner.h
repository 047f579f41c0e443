// Ratio-driven automatic partitioner.
//
// The paper's experiments (Section 5) derive three partitions of the medical
// system that differ in the ratio of local to global variables:
//   Design1: local ≈ global,  Design2: local > global,  Design3: local < global.
// This partitioner searches assignments of the *leaf* behaviors to two (or
// more) components to hit a requested ratio class while keeping component
// loads balanced; variables are then auto-assigned to their majority
// accessor component. For two components and up to `kExhaustiveLeafLimit`
// leaves the search is exhaustive (exact, 2^leaves - 2 candidates); beyond
// that it deals the leaves round-robin and then hill-climbs, taking every
// single-leaf move to another component that raises the score until no move
// does.
//
// A candidate costs two passes over the rows of the search's ChannelTable
// (partition/channel_table.h): per-variable vote arrays place each variable,
// then the locality rule counts local and global variables. No Partition,
// string or set is built per candidate; one Partition is built for the
// winner.
//
// Allocation/partitioning *quality* is outside the paper's scope (it defers
// to SpecSyn [5]); this component exists to reproduce the experimental
// setups.
#pragma once

#include <array>
#include <span>

#include "partition/channel_table.h"
#include "partition/partition.h"

namespace specsyn {

enum class RatioGoal : uint8_t {
  Balanced,   // |local - global| minimal          (Design1)
  MoreLocal,  // maximize local - global, global>0 (Design2)
  MoreGlobal, // maximize global - local           (Design3)
};

[[nodiscard]] const char* to_string(RatioGoal g);

/// The CLI's `--ratio` spellings, indexed by value.
inline constexpr std::array<const char*, 3> kRatioGoalNames = {
    "balanced", "local", "global"};

/// Most leaves searched exhaustively (2^leaves - 2 two-component
/// candidates); larger or multi-component searches hill-climb.
inline constexpr size_t kExhaustiveLeafLimit = 18;

struct PartitionerOptions {
  RatioGoal goal = RatioGoal::Balanced;
  /// Weight of the component-size imbalance penalty.
  double balance_weight = 0.5;
};

struct PartitionerResult {
  Partition partition;
  size_t local_vars = 0;
  size_t global_vars = 0;
  double score = 0.0;
};

/// Scores candidate leaf assignments of one specification from one
/// ChannelTable. Scoring allocates nothing.
class AssignmentScorer {
 public:
  struct Score {
    double score = 0.0;
    size_t local_vars = 0;
    size_t global_vars = 0;
  };

  AssignmentScorer(const SpecIndex& index, const AccessGraph& graph,
                   size_t components, const PartitionerOptions& opts);

  /// The leaf behaviors in pre-order.
  [[nodiscard]] const std::vector<SpecIndex::Id>& leaves() const {
    return leaves_;
  }

  /// The candidate that puts leaves()[i] on component `assign[i]`, every
  /// other behavior on component 0 and every variable on its majority
  /// component.
  [[nodiscard]] Score score(std::span<const size_t> assign);

 private:
  ChannelTable table_;
  PartitionerOptions opts_;
  std::vector<SpecIndex::Id> leaves_;
  std::vector<size_t> component_;  ///< by behavior id
  std::vector<size_t> votes_;      ///< by component
  std::vector<size_t> load_;       ///< by component
};

/// Searches for a partition of `spec` over `alloc` matching the goal.
/// Requires at least two components and at least two leaf behaviors.
[[nodiscard]] PartitionerResult make_ratio_partition(
    const Specification& spec, const AccessGraph& graph, Allocation alloc,
    const PartitionerOptions& opts = {});

}  // namespace specsyn
