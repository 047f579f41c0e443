#include "partition/channel_table.h"

#include <algorithm>
#include <tuple>

namespace specsyn {

ChannelTable::ChannelTable(const SpecIndex& index, const AccessGraph& graph)
    : first_(index.var_count() + 1, 0) {
  struct Entry {
    SpecIndex::Id var, behavior;
    size_t sites;
  };
  std::vector<Entry> entries;
  entries.reserve(graph.data_channels().size());
  for (const DataChannel& c : graph.data_channels()) {
    const SpecIndex::Id v = index.var_id(c.var);
    const SpecIndex::Id b = index.id_of(c.behavior);
    if (v != SpecIndex::kNone && b != SpecIndex::kNone) {
      entries.push_back({v, b, c.sites});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.var, a.behavior) < std::tie(b.var, b.behavior);
            });
  rows_.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i > 0 && entries[i - 1].var == e.var &&
        entries[i - 1].behavior == e.behavior) {
      rows_.back().sites += e.sites;  // the pair's other direction
      continue;
    }
    rows_.push_back({e.behavior, e.sites});
    ++first_[e.var + 1];
  }
  for (size_t v = 0; v + 1 < first_.size(); ++v) first_[v + 1] += first_[v];
}

size_t ChannelTable::majority_component(SpecIndex::Id var,
                                        std::span<const size_t> component,
                                        std::span<size_t> votes) const {
  std::fill(votes.begin(), votes.end(), 0);
  for (const Row& r : rows(var)) votes[component[r.behavior]] += r.sites;
  size_t best = 0;
  for (size_t i = 1; i < votes.size(); ++i) {
    if (votes[i] > votes[best]) best = i;
  }
  return best;
}

bool ChannelTable::is_global(SpecIndex::Id var, size_t home,
                             std::span<const size_t> component) const {
  const std::span<const Row> rs = rows(var);
  return std::any_of(rs.begin(), rs.end(), [&](const Row& r) {
    return component[r.behavior] != home;
  });
}

}  // namespace specsyn
