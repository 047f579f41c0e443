// Static (simulation-free) estimation of channel activity.
//
// SpecSyn estimated performance without executing the specification
// (references [7] "Fast timing analysis…" and [8] "Software estimation from
// executable specifications"). This module provides the same: a
// ProfileResult — access counts per (behavior, variable) channel and
// behavior lifetimes — derived purely from the specification's structure:
//
//   * statement latency = 1 cycle (matching SimConfig's default),
//   * `if` branches weighted by `kStaticBranchProbability`,
//   * `while` loops bounded by pattern analysis (condition `i < N` with a
//     literal bound and a literal-stride increment of `i` in the body),
//     falling back to `kStaticLoopIters`,
//   * sequential-composite back arcs (transitions to an earlier or same
//     child) treated as loops of `kStaticLoopIters` iterations,
//   * concurrent children overlap (duration = max of children).
//
// The result plugs into bus_rates() exactly like a simulated profile, so
// static and dynamic estimates can be compared directly (bench_static).
#pragma once

#include "estimate/profile.h"
#include "graph/access_graph.h"

namespace specsyn {

inline constexpr double kStaticBranchProbability = 0.5;  // then-branch weight
inline constexpr uint64_t kStaticLoopIters = 4;  // unbounded while/loop guess
inline constexpr uint64_t kStaticWaitLatency = 2;  // cycles charged per wait

/// Estimates without simulating. `spec` must be valid.
[[nodiscard]] ProfileResult static_profile(const Specification& spec);

}  // namespace specsyn
