// Internal definitions of the simulator's activation records and its
// one-cycle scheduling primitives. Shared by simulator.cpp (kernel) and the
// three statement interpreters; not part of the public API.
#pragma once

#include <vector>

#include "sim/bytecode.h"
#include "sim/program.h"
#include "sim/simulator.h"
#include "sim/tree_resolution.h"

namespace specsyn {

/// One activation record of a process's control stack. All three interpreter
/// tiers drive the same frame machine; a frame belongs to one of the worlds
/// and uses the source-IR fields (stmts/behavior/tcall), their lowered
/// counterparts (lstmts/lbehavior/lproc), or the bytecode fields
/// (bbehavior/bproc/bsite; a Code frame's `idx` is its program counter).
/// Every tier keeps a Call frame's params and locals in `dlocals`.
struct Simulator::Frame {
  enum class Kind : uint8_t {
    Block,     // executing a statement list (leaf body, branch, loop body…)
    Seq,       // running a Sequential composite's children via transitions
    Conc,      // joining a Concurrent composite's forked children
    Call,      // a procedure activation (locals live here)
    Behavior,  // entering/leaving one behavior (profiling events fire here)
    Code,      // bytecode tier: executing a flat code unit; idx = pc
  };

  Kind kind;
  /// Behavior and Seq: the interned behavior id (pre-order, every tier).
  uint32_t id = 0;

  // Block
  const StmtList* stmts = nullptr;
  size_t idx = 0;
  const Stmt* owner = nullptr;  // While/Loop statement to re-check, or null
  const LBlock* lstmts = nullptr;
  const LStmt* lowner = nullptr;

  // Seq / Behavior / Conc
  const Behavior* behavior = nullptr;
  const LBehavior* lbehavior = nullptr;
  const BBehavior* bbehavior = nullptr;  // bytecode tier
  /// Behavior: entered (the innermost started one is the process's
  /// attribution, Simulator::innermost_behavior_id). Seq: first child entered.
  bool started = false;
  size_t child = 0;     // Seq: index of the currently running child
  int remaining = 0;    // Conc: children still running

  // Call (tree): the resolved call site (callee layout and out-binds).
  const TreeResolution::CallSite* tcall = nullptr;
  // Call (lowered): dense activation record.
  const LProc* lproc = nullptr;
  const LStmt* lcall_site = nullptr;  // lowered out-binds live at the site
  std::vector<uint64_t> dlocals;      // dense params + locals (also bytecode)
  // Call (bytecode)
  const BProc* bproc = nullptr;
  const BCallSite* bsite = nullptr;
  uint32_t prev_call = 0;  // caller's Process::call_idx, restored on pop
};

struct Simulator::Process {
  uint64_t id = 0;
  enum class Status : uint8_t { Ready, Blocked, Done } status = Status::Ready;
  std::vector<Frame> stack;
  const Expr* wait_cond = nullptr;  // set while blocked on a `wait`
  const BWaitSite* bwait = nullptr;  // bytecode tier's blocked-wait marker
  // 1-based index into `stack` of the innermost Call frame; 0 = none.
  // Maintained by the bytecode tier (Call push / leave_frame pop) so local
  // accesses are one array index instead of a stack walk; the other tiers
  // leave it at 0 and keep walking.
  uint32_t call_idx = 0;
  uint64_t wait_epoch = 0;          // invalidates stale waiter-list entries
  Process* parent = nullptr;        // forking process (Conc), or null
};

// The innermost procedure activation, whose dense locals every local
// reference of the tree and lowered tiers reads.
inline Simulator::Frame& Simulator::innermost_call(Process& p) {
  for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it) {
    if (it->kind == Frame::Kind::Call) return *it;
  }
  throw SpecError("internal: local reference outside a procedure activation");
}

// A statement costs one cycle: the process's next step lands in the next
// instant's bucket.
inline void Simulator::rearm_step(Process& p) {
  p.status = Process::Status::Ready;
  fb_next_->runs.push_back(&p);
}

// A `<=` becomes visible one cycle later, committed before that instant's
// steps in issue order.
inline void Simulator::schedule_signal(size_t idx, uint64_t value) {
  fb_next_->sigs.push_back({static_cast<uint32_t>(idx), value});
}

}  // namespace specsyn
