// Structural mutation helpers shared by the differential fuzzer (src/fuzz):
// block/statement enumeration for the delta-debugging reducer, targeted
// statement surgery for planted-bug injection, dead-declaration cleanup and
// trivial-composite flattening.
//
// Apart from flatten_trivial_composites these are *not* semantics-preserving
// — they exist precisely to break or shrink specifications — so nothing here
// re-validates. Callers (the reducer loop, the oracle's bug injector) run
// validate() on the result before using it.
#pragma once

#include <functional>

#include "spec/specification.h"

namespace specsyn {

/// Visits every statement list in the specification that can hold executable
/// code: leaf behavior bodies, procedure bodies, and the then/else/body
/// blocks of nested If/While/Loop statements, outermost first. The callback
/// may mutate the list (insert/erase); nested blocks of erased statements
/// are simply never visited.
void for_each_block(Specification& spec,
                    const std::function<void(StmtList&)>& fn);

/// Pre-order visit of every statement node in the specification.
void for_each_stmt(Specification& spec, const std::function<void(Stmt&)>& fn);

/// Removes the first statement (pre-order over for_each_block) matching
/// `pred` and returns true; false when nothing matched.
bool remove_first_matching_stmt(Specification& spec,
                                const std::function<bool(const Stmt&)>& pred);

/// Drops variable/signal declarations (specification- and behavior-level)
/// whose names are referenced nowhere, and procedures that are never called.
/// Returns the number of declarations removed. Observable variables count as
/// referenced (their final value is part of the spec's observable behavior).
size_t remove_unused_decls(Specification& spec);

/// Splices single-child, transition-free sequential composites into their
/// parents, repeatedly and bottom-up; the composite's declarations move onto
/// the surviving child, and parent transitions are renamed to it. Returns
/// the number of composites removed. The top behavior is replaced (not
/// spliced) if it is itself trivial. Preserves semantics and validity.
size_t flatten_trivial_composites(Specification& spec);

}  // namespace specsyn
