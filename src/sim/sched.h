// Replayable schedule witnesses.
//
// A witness pins down one interleaving of a specification so a diagnostic
// produced by schedule exploration (src/analysis/schedules) can be handed to
// `specsyn simulate --replay-witness` and reproduced byte-for-byte on any
// execution tier. Its one spelling is a pick trace:
//
//   picks:1,0,2   entry i is the ready-set index taken at decision point i
//                 (SimConfig::sched_picks). "picks:" with no entries is the
//                 canonical schedule.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

/// Renders a pick trace in the "picks:..." witness form, without its
/// trailing 0 picks: replay treats an exhausted trace as canonical (pick 0),
/// so the shortened witness reproduces the same run.
std::string format_witness(const std::vector<uint32_t>& picks);

/// Parses a "picks:..." witness into `cfg->sched_picks`. Returns false on
/// malformed input, leaving `cfg` untouched.
bool apply_witness(const std::string& witness, SimConfig* cfg);

}  // namespace specsyn
