// Channel table: an access graph's data channels as integer rows.
//
// Each row is (variable id, behavior id, sites) over one SpecIndex, with the
// read and write channels of a (behavior, variable) pair merged into one row
// and the rows grouped by variable. Component placements are passed in as a
// component per behavior id, so the two rules that decide variable placement
// and locality run without a name lookup, a string compare or an allocation:
//
//   vote rule      a variable goes to the component whose behaviors perform
//                  the most static accesses to it; the lowest index breaks
//                  ties (component 0 for a variable nothing accesses);
//   locality rule  a variable is global iff some accessor lives on another
//                  component than the variable's storage.
//
// Partition applies both rules through this table, and so does the ratio
// partitioner's candidate scorer; neither has a copy of its own.
#pragma once

#include <span>
#include <vector>

#include "graph/access_graph.h"
#include "spec/index.h"

namespace specsyn {

class ChannelTable {
 public:
  struct Row {
    SpecIndex::Id behavior = SpecIndex::kNone;
    size_t sites = 0;  // read and write sites together
  };

  /// `graph` must come from the specification `index` describes; a channel
  /// naming a behavior or variable unknown to the index is dropped.
  ChannelTable(const SpecIndex& index, const AccessGraph& graph);

  [[nodiscard]] size_t var_count() const { return first_.size() - 1; }

  /// The rows of variable `var`, by ascending behavior id.
  [[nodiscard]] std::span<const Row> rows(SpecIndex::Id var) const {
    return {rows_.data() + first_[var], rows_.data() + first_[var + 1]};
  }

  /// The vote rule. `component` holds a component per behavior id; `votes`
  /// is scratch space with one entry per component.
  [[nodiscard]] size_t majority_component(SpecIndex::Id var,
                                          std::span<const size_t> component,
                                          std::span<size_t> votes) const;

  /// The locality rule for `var` stored on component `home`.
  [[nodiscard]] bool is_global(SpecIndex::Id var, size_t home,
                               std::span<const size_t> component) const;

 private:
  std::vector<size_t> first_;  ///< var_count() + 1 offsets into rows_
  std::vector<Row> rows_;
};

}  // namespace specsyn
