// Delta-debugging spec reducer: shrinks a failing specification to a minimal
// reproducer while preserving the failure.
//
// The reducer knows nothing about *why* a spec fails — the caller supplies a
// predicate (typically "run_oracles under this config still reports issues").
// Each candidate shrink is validated structurally before the predicate runs,
// so the predicate only ever sees valid specifications; a candidate is kept
// when it still fails. Passes run to fixpoint:
//
//   1. promote a child subtree to the top behavior
//   2. delete a child of a composite (arcs touching it are dropped; composites
//      are never emptied) and flatten trivial single-child composites
//   3. delete a transition arc / erase a guard (arc becomes unconditional)
//   4. delete a statement (any block, innermost first)
//   5. hoist a compound statement's body in place of the statement
//   6. simplify an expression to one of its operands or a literal 0/1
//   7. drop unused declarations and uncalled procedures
//
// Greedy first-improvement with deterministic order: the same failing spec
// and predicate reduce to the same reproducer on every run.
#pragma once

#include <functional>

#include "spec/specification.h"

namespace specsyn::fuzz {

/// Returns true when the candidate still exhibits the failure being chased.
using FailPredicate = std::function<bool(const Specification&)>;

struct ReduceStats {
  size_t rounds = 0;
  size_t candidates_tried = 0;
  size_t candidates_kept = 0;
  size_t initial_lines = 0;  // count_lines(input)
  size_t final_lines = 0;
};

/// Shrinks `failing` (which must be valid and satisfy `still_fails`) to a
/// smaller spec that is still valid and still satisfies `still_fails`.
/// Throws SpecError if the input does not fail to begin with.
[[nodiscard]] Specification reduce_spec(const Specification& failing,
                                        const FailPredicate& still_fails,
                                        ReduceStats* stats = nullptr);

}  // namespace specsyn::fuzz
