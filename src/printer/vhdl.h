// VHDL-93 export of a specification.
//
// The paper's refined specifications were SpecCharts, whose purpose was to
// feed VHDL-based behavioral synthesis and simulation ("it can serve as an
// input for functional verification, behavioral synthesis or software
// compilation tools"). This emitter renders any valid SpecLang
// specification — functional or refined — as one self-contained VHDL-93
// design unit:
//
//   * every concurrent execution context becomes a process; nested
//     Concurrent composites reachable from the top without intervening
//     sequential context are flattened into sibling processes (exactly the
//     shape refined specifications have: SYS -> component tops -> servers /
//     memories / arbiters), while a Concurrent composite underneath
//     sequential context gets fork/join go/done handshake signals;
//   * sequential composites become state-variable loops whose case arms are
//     the children and whose next-state logic encodes the transition arcs;
//   * variables local to one process become process variables; variables
//     visible to several processes (specification level, or declared on a
//     flattened/forked composite, e.g. a multi-port memory's storage)
//     become shared variables;
//   * all values are a 64-bit unsigned subtype; writes mask to the declared
//     width, and SpecLang operator semantics (wrapping arithmetic, /0 -> 0,
//     shift mod 64, 0/1 comparisons) are provided by emitted helper
//     functions, so the VHDL matches the simulator bit-for-bit;
//   * procedure calls are expanded first (the emitter inlines a clone).
//
// The output is well-formed VHDL-93; it is an export for hand-off, not
// compiled by this repository's test suite (no VHDL tool in the loop).
#pragma once

#include <string>

#include "spec/specification.h"

namespace specsyn {

/// Emits `spec` (must be valid) as a single VHDL-93 design unit whose
/// architecture is named `refined`; `delay N` becomes `wait for N * CYCLE`
/// with a 10 ns CYCLE.
[[nodiscard]] std::string to_vhdl(const Specification& spec);

}  // namespace specsyn
