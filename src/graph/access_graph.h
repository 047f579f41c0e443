// Access graph: the paper's Section 2 representation of a specification.
//
// Nodes are behaviors and variables; edges are *channels*:
//   - data-access channels between a behavior and a variable it reads or
//     writes (including reads performed by a sequential composite when it
//     evaluates transition guards — the case Figure 6 refines specially),
//   - control channels between sibling behaviors of a sequential composite
//     (its transition arcs plus the implicit fall-through successors).
//
// A channel here is an abstract communication medium, not a bus: the whole
// point of refinement is to map these onto buses/protocols. The graph also
// records the number of static access *sites* per data channel; dynamic
// access counts come from profiling (estimate/profile.h).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "spec/specification.h"

namespace specsyn {

enum class AccessDir : uint8_t { Read, Write };

/// A data-access channel: `behavior` accesses `var` in direction `dir` at
/// `sites` distinct statement/guard positions.
struct DataChannel {
  std::string behavior;
  std::string var;
  AccessDir dir = AccessDir::Read;
  size_t sites = 0;

  friend bool operator<(const DataChannel& a, const DataChannel& b) {
    return std::tie(a.behavior, a.var, a.dir) <
           std::tie(b.behavior, b.var, b.dir);
  }
};

/// A control channel: execution may flow from `from` to `to` (sibling
/// behaviors of the same sequential composite). `guarded` marks arcs with a
/// transition guard.
struct ControlChannel {
  std::string from;
  std::string to;
  bool guarded = false;

  friend bool operator<(const ControlChannel& a, const ControlChannel& b) {
    return std::tie(a.from, a.to) < std::tie(b.from, b.to);
  }
};

class AccessGraph {
 public:
  [[nodiscard]] const std::vector<DataChannel>& data_channels() const {
    return data_;
  }
  [[nodiscard]] const std::vector<ControlChannel>& control_channels() const {
    return control_;
  }
  [[nodiscard]] const std::vector<std::string>& behaviors() const {
    return behaviors_;
  }
  [[nodiscard]] const std::vector<std::string>& variables() const {
    return variables_;
  }

  [[nodiscard]] bool reads(const std::string& behavior,
                           const std::string& var) const;
  [[nodiscard]] bool writes(const std::string& behavior,
                            const std::string& var) const;

  /// Number of distinct (behavior, var) data-access pairs, the count the
  /// paper reports as "data-access channels" (52 for the medical system).
  [[nodiscard]] size_t data_channel_pairs() const;

 private:
  friend AccessGraph build_access_graph(const Specification& spec);
  std::vector<DataChannel> data_;
  std::vector<ControlChannel> control_;
  std::vector<std::string> behaviors_;
  std::vector<std::string> variables_;
};

/// Derives the access graph of a valid specification. Reads performed inside
/// a called procedure body are attributed to the *calling* behavior (call
/// arguments are analyzed; procedure bodies themselves access only their
/// parameters/locals plus whatever the refiner wired in explicitly).
[[nodiscard]] AccessGraph build_access_graph(const Specification& spec);

}  // namespace specsyn
