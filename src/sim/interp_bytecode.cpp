// Bytecode interpreter: executes one scheduling step of one process against
// the flat BytecodeProgram (sim/bytecode.h). Drives the same frame machine as
// the other two tiers — same enqueue points, same costs, bit-identical
// SimResults — but the steady state runs register micro-ops and fused
// statement terminals off a linear instruction array instead of walking
// block/statement trees: control flow is pc jumps, so only Behavior/Seq/Conc
// boundaries and procedure calls still push frames.
//
// Dispatch is computed goto on GNU-compatible compilers (one indirect branch
// per instruction, which branch predictors specialize per preceding opcode);
// define SPECSYN_BYTECODE_SWITCH_DISPATCH to force the portable switch loop.
//
// This file also owns the bucket-scheduler event loop (run_fast_loop) so the
// whole hot path — event loop, frame dispatch, VM — is one translation unit
// and inlines end to end.
#include <algorithm>

#include "sim/frames.h"
#include "sim/value.h"

#if !defined(SPECSYN_BYTECODE_SWITCH_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPECSYN_BC_CGOTO 1
#endif

namespace specsyn {

// Re-arms p for its next step at now_ + stmt_cost. chain_ok_ (stmt_cost == 1)
// licenses the direct fb_next_ push — the enqueue(now_ + 1) fast path without
// the call.
inline void Simulator::rearm_step(Process& p) {
  p.status = Process::Status::Ready;
  if (chain_ok_) {
    fb_next_->runs.push_back(&p);
    return;
  }
  enqueue(p, now_ + cfg_.stmt_cost);
}

// O(1) innermost-call access off the index the Call handler maintains; the
// walking fallback covers (and throws for) a genuinely absent call frame.
inline Simulator::Frame& Simulator::bcall_frame(Process& p) {
  if (p.call_idx != 0) return p.stack[p.call_idx - 1];
  return innermost_call(p);
}

void Simulator::benter_behavior(const BBehavior& b, Process& p) {
  Frame f;
  f.kind = Frame::Kind::Behavior;
  f.bbehavior = &b;
  p.stack.push_back(std::move(f));
}

void Simulator::bblock_on(Process& p, const BWaitSite& site) {
  p.status = Process::Status::Blocked;
  p.bwait = &site;
  ++p.wait_epoch;
  for (uint32_t si : site.signals) waiters_[si].push_back(&p);
}

// Statement chaining. The scheduler round-trip after a successful step is a
// no-op whenever the stepping process is the only pending work in the
// simulation at now_ + 1: the event loop would advance time by one and
// immediately re-step the same process. This helper proves that (no entries
// left in either bucket, nothing at or before now_ + 1 in the overflow
// heaps), advances now_/steps_ inline, and lets the caller keep executing
// without leaving the VM.
//
// A pending *signal commit* at now_ + 1 does not break the chain: the loop
// would commit it before re-stepping this process, so the helper retires the
// commit instant inline — rolls the buckets, commits in FIFO order, and only
// ends the chain later if a commit woke another process (the woken entries
// land in fb_cur_ at index 0+, where the caller's cursor loop drains them
// after this process's current step — the same order the scheduler would
// have produced, since this process re-armed first).
//
// Any doubt returns false and falls back to the scheduler, including the
// max_cycles boundaries, where the loop's exact termination bookkeeping must
// run. Precondition: fast_sched_. chain_ok_ (stmt_cost == 1) guarantees a
// successful statement re-arms into fb_next_.
template <bool Obs>
inline bool Simulator::chain_advance() {
  if (!chain_ok_ || fb_run_next_ != fb_cur_->runs.size() ||
      !fb_cur_->sigs.empty() || !fb_next_->runs.empty() ||
      (!run_q_.empty() && run_q_.top().time <= now_ + 1) ||
      (!sig_q_.empty() && sig_q_.top().time <= now_ + 1) ||
      steps_ >= cfg_.max_cycles || now_ >= cfg_.max_cycles) {
    return false;
  }
  ++now_;
  ++steps_;
  if (!fb_next_->sigs.empty()) {
    // Retire the commit instant: roll to it and commit in issue order.
    fb_cur_->runs.clear();  // every entry was already stepped
    std::swap(fb_cur_, fb_next_);
    fb_run_next_ = 0;  // resynchronize the caller loop's cursor
    for (size_t i = 0; i < fb_cur_->sigs.size(); ++i) {
      const FastSig ev = fb_cur_->sigs[i];
      commit_signal(ev.signal, ev.value, Obs);
    }
    fb_cur_->sigs.clear();
  }
  return true;
}

template <bool Obs>
void Simulator::bwrite_var(uint32_t slot, uint64_t value, Process& p) {
  vars_.set(slot, value);
  if constexpr (Obs) notify_var_write(slot, p);
  if (observable_[slot] != 0) {
    raw_writes_.push_back({slot, vars_.get(slot), now_});
  }
}

// Postfix fallback for expressions deeper than the register file; identical
// evaluation (and observer-read) order to the register path.
template <bool Obs>
uint64_t Simulator::beval_spill(const BInstr& ins, Process& p) {
  uint64_t* const base = eval_stack_.data();
  uint64_t* sp = base;
  Frame* call = nullptr;
  const LOp* op = bprog_->spill_ops().data() + ins.slot;
  for (const LOp* const end = op + ins.aux; op != end; ++op) {
    switch (op->kind) {
      case LOp::Kind::PushLit:
        *sp++ = op->lit;
        break;
      case LOp::Kind::PushVar:
        if constexpr (Obs) notify_var_read(op->slot, p);
        *sp++ = vars_.get(op->slot);
        break;
      case LOp::Kind::PushSignal:
        *sp++ = signals_.get(op->slot);
        break;
      case LOp::Kind::PushLocal:
        if (call == nullptr) call = &bcall_frame(p);
        *sp++ = call->dlocals[op->slot];
        break;
      case LOp::Kind::Unary:
        sp[-1] = apply_unop(static_cast<UnOp>(op->op), sp[-1]);
        break;
      case LOp::Kind::Binary: {
        const uint64_t rhs = *--sp;
        sp[-1] = apply_binop(static_cast<BinOp>(op->op), sp[-1], rhs);
        break;
      }
    }
  }
  return sp[-1];
}

// Transition guards are GuardEnd-terminated micro-op units evaluated inline
// during a Seq-advance step (never entered by a Code frame's control flow).
template <bool Obs>
uint64_t Simulator::beval_guard(uint32_t pc, Process& p) {
  uint64_t* const regs = regs_.data();
  Frame* call = nullptr;
  for (;; ++pc) {
    const BInstr& i = bcode_[pc];
    switch (i.op) {
      case BOp::LoadLit:
        regs[i.a] = i.imm;
        break;
      case BOp::LoadVar:
        if constexpr (Obs) notify_var_read(i.slot, p);
        regs[i.a] = vars_.get(i.slot);
        break;
      case BOp::LoadSig:
        regs[i.a] = signals_.get(i.slot);
        break;
      case BOp::LoadLoc:
        if (call == nullptr) call = &bcall_frame(p);
        regs[i.a] = call->dlocals[i.slot];
        break;
      case BOp::UnApply:
        regs[i.a] = apply_unop(static_cast<UnOp>(i.aux), regs[i.b]);
        break;
      case BOp::BinApply:
        regs[i.a] =
            apply_binop(static_cast<BinOp>(i.aux), regs[i.b], regs[i.c]);
        break;
      case BOp::BinApplyImm:
        regs[i.a] = apply_binop(static_cast<BinOp>(i.aux), regs[i.b], i.imm);
        break;
      case BOp::SigBinImm:
        regs[i.a] = apply_binop(static_cast<BinOp>(i.aux),
                                signals_.get(i.slot), i.imm);
        break;
      case BOp::SigBinImmBin:
        regs[i.a] = apply_binop(
            static_cast<BinOp>(i.aux >> 8), regs[i.b],
            apply_binop(static_cast<BinOp>(i.aux & 0xff),
                        signals_.get(i.slot), i.imm));
        break;
      case BOp::EvalSpill:
        regs[i.a] = beval_spill<Obs>(i, p);
        break;
      case BOp::GuardEnd:
        return regs[i.b];
      default:
        throw SpecError("internal: non-expression op in a guard unit");
    }
  }
}

// Runs scheduling steps of a Code frame: micro-ops from f.idx up to the
// statement terminal that ends the step. f.idx advances only when the
// terminal succeeds — a blocked wait leaves it at the step start, so the
// wake-up re-runs the condition micro-ops (identical re-evaluation, and
// observer-read re-fire, to the other tiers).
//
// Returns true when a frame-changing terminal (Call, EndUnit, DelayStep)
// charged its step via chain_advance: the caller (bstep's loop) must
// re-dispatch on the new top frame immediately. Same-frame terminals chain
// internally and never surface. Returns false when the process was re-armed
// into the scheduler or blocked.
template <bool Obs>
bool Simulator::bexec(Process& p) {
  Frame& f = p.stack.back();
  const BInstr* const code = bcode_;
  uint64_t* const regs = regs_.data();
  uint32_t pc = static_cast<uint32_t>(f.idx);
  Frame* call = nullptr;  // innermost Call frame, fetched lazily once

// Successful same-frame statement terminal: commit the next pc, charge the
// step — chaining straight into the next statement's micro-ops when this
// process is provably alone (chain_advance), else re-arming into fb_next_
// (the enqueue(now_ + 1) fast path, licensed by chain_ok_) or the scheduler.
#define SPECSYN_BC_STEP_END(npc)                                    \
  do {                                                              \
    const uint32_t npc_ = (npc);                                    \
    f.idx = npc_;                                                   \
    if (chain_ok_) {                                                \
      if (chain_advance<Obs>()) {                                   \
        pc = npc_;                                                  \
        SPECSYN_BC_NEXT();                                          \
      }                                                             \
      p.status = Process::Status::Ready;                            \
      fb_next_->runs.push_back(&p);                                 \
      return false;                                                 \
    }                                                               \
    enqueue(p, now_ + cfg_.stmt_cost);                              \
    return false;                                                   \
  } while (0)

// Opcode/opcode-pair profiling (SPECSYN_OPCODE_STATS builds only): runs on
// every dispatch, so it is compile-time gated rather than enabled()-checked —
// a branch per micro-op would cost the exact overhead the telemetry layer
// promises not to add. Counts land in Simulator arrays and are flushed to the
// registry at the end of run().
#ifdef SPECSYN_OPCODE_STATS
  static_assert(kBOpCount <= 64, "op_counts_ arrays are sized for 64 opcodes");
#define SPECSYN_BC_OPSTAT()                                               \
  do {                                                                    \
    const uint8_t opstat_cur_ = static_cast<uint8_t>(code[pc].op);        \
    ++op_counts_[opstat_cur_];                                            \
    if (op_prev_ != kOpStatNone)                                          \
      ++op_pair_counts_[static_cast<size_t>(op_prev_) * 64u + opstat_cur_]; \
    op_prev_ = opstat_cur_;                                               \
  } while (0)
#else
#define SPECSYN_BC_OPSTAT() \
  do {                      \
  } while (0)
#endif

#ifdef SPECSYN_BC_CGOTO
  // Label table indexed by BOp value; must mirror the enum order exactly.
  static const void* const kLabels[] = {
      &&op_LoadLit,       &&op_LoadVar,   &&op_LoadSig,  &&op_LoadLoc,
      &&op_UnApply,       &&op_BinApply,  &&op_EvalSpill, &&op_ArgStage,
      &&op_GuardEnd,      &&op_BinApplyImm, &&op_SigBinImm, &&op_SigBinImmBin,
      &&op_StVar,     &&op_StLoc,    &&op_StSig,
      &&op_AssignImmVar,  &&op_AssignImmLoc, &&op_AssignLoad, &&op_SigImm,
      &&op_SigLoad,       &&op_Jump,      &&op_BrFalse,  &&op_BrTrue,
      &&op_SigBrFalse,    &&op_SigBrTrue,
      &&op_WaitTrue,      &&op_WaitSigEq, &&op_WaitSigNz, &&op_WaitSigExpr,
      &&op_DelayStep,     &&op_Call,      &&op_EndUnit,  &&op_NopStmt};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kBOpCount);
#define SPECSYN_BC_OP(name) op_##name:
#define SPECSYN_BC_NEXT()                             \
  do {                                                \
    SPECSYN_BC_OPSTAT();                              \
    goto* kLabels[static_cast<uint8_t>(code[pc].op)]; \
  } while (0)
  SPECSYN_BC_NEXT();
#else
// A label, not a loop: SPECSYN_BC_NEXT must redispatch from inside the
// statement chain in SPECSYN_BC_STEP_END, where a `continue` would bind to
// the macro's own do-while instead of the dispatch loop.
#define SPECSYN_BC_OP(name) case BOp::name:
#define SPECSYN_BC_NEXT() goto specsyn_bc_dispatch
specsyn_bc_dispatch:
  SPECSYN_BC_OPSTAT();
  switch (code[pc].op) {
#endif

  // ---- expression micro-ops -----------------------------------------------
  SPECSYN_BC_OP(LoadLit) {
    const BInstr& i = code[pc];
    regs[i.a] = i.imm;
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(LoadVar) {
    const BInstr& i = code[pc];
    if constexpr (Obs) notify_var_read(i.slot, p);
    regs[i.a] = vars_.get(i.slot);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(LoadSig) {
    const BInstr& i = code[pc];
    regs[i.a] = signals_.get(i.slot);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(LoadLoc) {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    regs[i.a] = call->dlocals[i.slot];
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(UnApply) {
    const BInstr& i = code[pc];
    regs[i.a] = apply_unop(static_cast<UnOp>(i.aux), regs[i.b]);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(BinApply) {
    const BInstr& i = code[pc];
    regs[i.a] = apply_binop(static_cast<BinOp>(i.aux), regs[i.b], regs[i.c]);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(EvalSpill) {
    const BInstr& i = code[pc];
    regs[i.a] = beval_spill<Obs>(i, p);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(ArgStage) {
    const BInstr& i = code[pc];
    staging_[i.slot] = regs[i.b];
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(GuardEnd) {
    throw SpecError("internal: guard unit entered by control flow");
  }

  SPECSYN_BC_OP(BinApplyImm) {
    const BInstr& i = code[pc];
    regs[i.a] = apply_binop(static_cast<BinOp>(i.aux), regs[i.b], i.imm);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(SigBinImm) {
    const BInstr& i = code[pc];
    regs[i.a] =
        apply_binop(static_cast<BinOp>(i.aux), signals_.get(i.slot), i.imm);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  SPECSYN_BC_OP(SigBinImmBin) {
    const BInstr& i = code[pc];
    const uint64_t inner = apply_binop(static_cast<BinOp>(i.aux & 0xff),
                                       signals_.get(i.slot), i.imm);
    regs[i.a] =
        apply_binop(static_cast<BinOp>(i.aux >> 8), regs[i.b], inner);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  // ---- statement terminals ------------------------------------------------
  SPECSYN_BC_OP(StVar) {
    const BInstr& i = code[pc];
    bwrite_var<Obs>(i.slot, regs[i.b], p);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(StLoc) {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    call->dlocals[i.slot] = call->bproc->local_types[i.slot].wrap(regs[i.b]);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(StSig) {
    const BInstr& i = code[pc];
    const uint64_t v = regs[i.b];
    if constexpr (Obs) notify_signal_schedule(i.slot, v, p);
    schedule_signal(i.slot, v, now_ + cfg_.signal_delay);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(AssignImmVar) {
    const BInstr& i = code[pc];
    bwrite_var<Obs>(i.slot, i.imm, p);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(AssignImmLoc) {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    call->dlocals[i.slot] = call->bproc->local_types[i.slot].wrap(i.imm);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(AssignLoad) {
    const BInstr& i = code[pc];
    uint64_t v = 0;
    switch (i.a & 3) {
      case kSrcVar:
        if constexpr (Obs) notify_var_read(i.aux, p);
        v = vars_.get(i.aux);
        break;
      case kSrcSig:
        v = signals_.get(i.aux);
        break;
      default:
        if (call == nullptr) call = &bcall_frame(p);
        v = call->dlocals[i.aux];
        break;
    }
    if ((i.a & kTargetLocalBit) != 0) {
      if (call == nullptr) call = &bcall_frame(p);
      call->dlocals[i.slot] = call->bproc->local_types[i.slot].wrap(v);
    } else {
      bwrite_var<Obs>(i.slot, v, p);
    }
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(SigImm) {
    const BInstr& i = code[pc];
    if constexpr (Obs) notify_signal_schedule(i.slot, i.imm, p);
    schedule_signal(i.slot, i.imm, now_ + cfg_.signal_delay);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(SigLoad) {
    const BInstr& i = code[pc];
    uint64_t v = 0;
    switch (i.a) {
      case kSrcVar:
        if constexpr (Obs) notify_var_read(i.aux, p);
        v = vars_.get(i.aux);
        break;
      case kSrcSig:
        v = signals_.get(i.aux);
        break;
      default:
        if (call == nullptr) call = &bcall_frame(p);
        v = call->dlocals[i.aux];
        break;
    }
    if constexpr (Obs) notify_signal_schedule(i.slot, v, p);
    schedule_signal(i.slot, v, now_ + cfg_.signal_delay);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  SPECSYN_BC_OP(Jump) { SPECSYN_BC_STEP_END(code[pc].aux); }

  SPECSYN_BC_OP(BrFalse) {
    const BInstr& i = code[pc];
    SPECSYN_BC_STEP_END(regs[i.b] != 0 ? pc + 1 : i.aux);
  }

  SPECSYN_BC_OP(BrTrue) {
    const BInstr& i = code[pc];
    SPECSYN_BC_STEP_END(regs[i.b] != 0 ? i.aux : pc + 1);
  }

  SPECSYN_BC_OP(SigBrFalse) {
    const BInstr& i = code[pc];
    const uint64_t v =
        apply_binop(static_cast<BinOp>(i.c), signals_.get(i.slot), i.imm);
    SPECSYN_BC_STEP_END(v != 0 ? pc + 1 : i.aux);
  }

  SPECSYN_BC_OP(SigBrTrue) {
    const BInstr& i = code[pc];
    const uint64_t v =
        apply_binop(static_cast<BinOp>(i.c), signals_.get(i.slot), i.imm);
    SPECSYN_BC_STEP_END(v != 0 ? i.aux : pc + 1);
  }

  SPECSYN_BC_OP(WaitTrue) {
    const BInstr& i = code[pc];
    if (regs[i.b] != 0) SPECSYN_BC_STEP_END(pc + 1);
    bblock_on(p, bprog_->wait_sites()[i.slot]);  // f.idx stays at step start
    return false;
  }

  SPECSYN_BC_OP(WaitSigEq) {
    const BInstr& i = code[pc];
    if (signals_.get(i.slot) == i.imm) SPECSYN_BC_STEP_END(pc + 1);
    bblock_on(p, bprog_->wait_sites()[i.aux]);
    return false;
  }

  SPECSYN_BC_OP(WaitSigNz) {
    const BInstr& i = code[pc];
    if (signals_.get(i.slot) != 0) SPECSYN_BC_STEP_END(pc + 1);
    bblock_on(p, bprog_->wait_sites()[i.aux]);
    return false;
  }

  SPECSYN_BC_OP(WaitSigExpr) {
    const BInstr& i = code[pc];
    const BWaitOp* wop = bprog_->wait_ops().data() + i.slot;
    // Postfix eval over compare leaves and And/Or combiners; depth <= count
    // (<= 255, the compiler only fuses programs that fit the 8-bit count).
    uint64_t st[256];
    uint32_t sp = 0;
    for (uint8_t k = 0; k < i.b; ++k) {
      if (wop[k].kind == BWaitOp::Kind::Cmp) {
        st[sp++] = apply_binop(static_cast<BinOp>(wop[k].op),
                               signals_.get(wop[k].slot), wop[k].imm);
      } else {
        --sp;
        st[sp - 1] =
            apply_binop(static_cast<BinOp>(wop[k].op), st[sp - 1], st[sp]);
      }
    }
    if (st[0] != 0) SPECSYN_BC_STEP_END(pc + 1);
    bblock_on(p, bprog_->wait_sites()[i.aux]);
    return false;
  }

  SPECSYN_BC_OP(DelayStep) {
    const BInstr& i = code[pc];
    f.idx = pc + 1;
    // imm = max(delay, 1), baked at compile time; a 1-cycle delay is a plain
    // step and chains like one.
    if (i.imm == 1 && chain_advance<Obs>()) return true;
    enqueue(p, now_ + i.imm);
    return false;
  }

  SPECSYN_BC_OP(Call) {
    const BInstr& i = code[pc];
    const BCallSite& site = bprog_->call_sites()[i.slot];
    const BProc& proc = bprog_->procs()[site.proc];
    f.idx = pc + 1;  // commit before the pushes below invalidate `f`
    Frame callf;
    callf.kind = Frame::Kind::Call;
    callf.bproc = &proc;
    callf.bsite = &site;
    callf.prev_call = p.call_idx;
    callf.dlocals.assign(proc.local_types.size(), 0);
    for (uint32_t param : site.in_params) {
      callf.dlocals[param] = proc.local_types[param].wrap(staging_[param]);
    }
    p.stack.push_back(std::move(callf));
    p.call_idx = static_cast<uint32_t>(p.stack.size());
    Frame codef;
    codef.kind = Frame::Kind::Code;
    codef.idx = proc.code_begin;
    p.stack.push_back(std::move(codef));
    if (chain_advance<Obs>()) return true;
    rearm_step(p);
    return false;
  }

  SPECSYN_BC_OP(EndUnit) {
    leave_frame(p);  // Behavior or Call frame below acts on the next step
    if (chain_advance<Obs>()) return true;
    rearm_step(p);
    return false;
  }

  SPECSYN_BC_OP(NopStmt) { SPECSYN_BC_STEP_END(pc + 1); }

#ifndef SPECSYN_BC_CGOTO
  }
  SPECSYN_BC_NEXT();  // every case returns or redispatches; defensive only
#endif
#undef SPECSYN_BC_OP
#undef SPECSYN_BC_NEXT
#undef SPECSYN_BC_OPSTAT
#undef SPECSYN_BC_STEP_END
}

// Seq-composite transition step. Returns true when the step chained: the
// caller must re-dispatch on the (possibly new) top frame immediately.
template <bool Obs>
bool Simulator::bseq_advance(Process& p) {
  Frame& f = p.stack.back();
  const BBehavior& b = *f.bbehavior;

  bool matched = false;
  uint32_t next = BBehavior::kComplete;
  for (const BBehavior::BTrans& t : b.child_trans[f.child]) {
    const bool take = !t.has_guard || beval_guard<Obs>(t.guard, p) != 0;
    if (take) {
      matched = true;
      next = t.next;
      break;
    }
  }
  if (!matched) {
    next = (f.child + 1 < b.children.size())
               ? static_cast<uint32_t>(f.child + 1)
               : BBehavior::kComplete;
  }

  if (next == BBehavior::kComplete) {
    leave_frame(p);  // Seq done; Behavior frame below completes next step
  } else {
    f.child = next;
    benter_behavior(bprog_->behaviors()[b.children[next]], p);
  }
  if (chain_advance<Obs>()) return true;
  rearm_step(p);
  return false;
}

// One scheduling step of a process — or, when statement chaining proves the
// process is alone in the simulation, as many consecutive steps as stay
// provably alone: frame-machine steps re-enter the dispatch loop below, and
// bexec chains same-frame statements internally.
template <bool Obs>
void Simulator::bstep(Process& p) {
  for (;;) {
    if (p.stack.empty()) {
      throw SpecError("internal: stepping a process with an empty stack");
    }
    Frame& f = p.stack.back();
    switch (f.kind) {
      case Frame::Kind::Behavior: {
        const BBehavior& b = *f.bbehavior;
        if (!f.started) {
          f.started = true;
          p.behavior_stack.push_back(b.src);
          if constexpr (Obs) {
            for (SlotObserver* o : slot_observers_) {
              o->on_behavior_start(b.id, p.id, now_);
            }
          }
          switch (b.kind) {
            case BehaviorKind::Leaf: {
              Frame body;
              body.kind = Frame::Kind::Code;
              body.idx = b.body;
              p.stack.push_back(std::move(body));
              if (chain_advance<Obs>()) continue;
              rearm_step(p);
              return;
            }
            case BehaviorKind::Sequential: {
              Frame seq;
              seq.kind = Frame::Kind::Seq;
              seq.bbehavior = &b;
              p.stack.push_back(std::move(seq));
              if (chain_advance<Obs>()) continue;
              rearm_step(p);
              return;
            }
            case BehaviorKind::Concurrent: {
              Frame join;
              join.kind = Frame::Kind::Conc;
              join.bbehavior = &b;
              join.remaining = static_cast<int>(b.children.size());
              p.stack.push_back(std::move(join));
              p.status = Process::Status::Blocked;  // until children join
              for (uint32_t cid : b.children) {
                const BBehavior& c = bprog_->behaviors()[cid];
                Process& cp = spawn(c.src, nullptr, &c, &p);
                enqueue(cp, now_ + cfg_.stmt_cost);
              }
              return;
            }
          }
          return;  // unreachable; placates -Wreturn-type
        }
        // Body / children finished: this behavior completes.
        if constexpr (Obs) {
          for (SlotObserver* o : slot_observers_) {
            o->on_behavior_end(b.id, p.id, now_);
          }
        }
        ++completions_[b.id];
        p.behavior_stack.pop_back();
        leave_frame(p);
        if (p.stack.empty()) {
          finish_process(p, now_);
          return;
        }
        if (p.stack.back().kind == Frame::Kind::Seq) {
          if (bseq_advance<Obs>(p)) continue;
          return;
        }
        if (chain_advance<Obs>()) continue;
        rearm_step(p);
        return;
      }

      case Frame::Kind::Seq: {
        if (!f.started) {
          f.started = true;
          f.child = 0;
          benter_behavior(bprog_->behaviors()[f.bbehavior->children[0]], p);
          if (chain_advance<Obs>()) continue;
          rearm_step(p);
          return;
        }
        if (bseq_advance<Obs>(p)) continue;
        return;
      }

      case Frame::Kind::Conc: {
        if (f.remaining != 0) {
          throw SpecError(
              "internal: conc frame stepped with children running");
        }
        leave_frame(p);
        if (chain_advance<Obs>()) continue;
        rearm_step(p);
        return;
      }

      case Frame::Kind::Code: {
        if (bexec<Obs>(p)) continue;
        return;
      }

      case Frame::Kind::Call: {
        // Procedure body finished: copy out-params into the caller's scope.
        Frame call = std::move(f);
        leave_frame(p);
        for (const auto& [param, dest] : call.bsite->out_binds) {
          const uint64_t v = call.dlocals[param];
          if (dest.scope == 1) {
            Frame& c = bcall_frame(p);
            c.dlocals[dest.slot] = c.bproc->local_types[dest.slot].wrap(v);
          } else {
            bwrite_var<Obs>(dest.slot, v, p);
          }
        }
        if (chain_advance<Obs>()) continue;
        rearm_step(p);
        return;
      }

      case Frame::Kind::Block:
        throw SpecError("internal: block frame reached the bytecode stepper");
    }
  }
}

// The run loop selects one of these once per run.
template void Simulator::bstep<false>(Process& p);
template void Simulator::bstep<true>(Process& p);

// The bucket-scheduler event loop (bytecode tier). Phase structure per
// instant matches the heap loop exactly: overflow events first (their seqs
// are strictly older than any bucket entry for the same instant — overflow
// events for T were scheduled at sim-time <= T-2, next-bucket entries at
// T-1, same-instant appends at T), signal commits before process steps,
// FIFO within each class.
//
// fb_run_next_ is the cursor into fb_cur_->runs: the index of the first
// not-yet-stepped entry, advanced here around every bstep call. The VM's
// statement chain compares it against runs.size() to prove the instant has
// no further pending step, and resets it when chain_advance rolls the
// buckets to a commit instant — which is why the drain below loops on the
// member cursor instead of a local index. A chained step advances now_
// inside bstep; every loop condition tolerates that (heap tops were checked
// to lie beyond every chained instant, and bucket appends made by chained
// statements are relative to the *new* now_, where this loop and the next
// outer iteration pick them up).
template <bool Obs>
void Simulator::run_fast_loop(SimResult& result) {
  for (;;) {
    uint64_t t = UINT64_MAX;
    if (!fb_cur_->empty()) {
      t = now_;
    } else if (!fb_next_->empty()) {
      t = now_ + 1;
    }
    if (!run_q_.empty()) t = std::min(t, run_q_.top().time);
    if (!sig_q_.empty()) t = std::min(t, sig_q_.top().time);
    if (t == UINT64_MAX) break;  // quiescent
    if (t == now_ + 1) std::swap(fb_cur_, fb_next_);
    // t >= now_ + 2 implies both buckets are empty: no roll needed.
    now_ = t;
    if (now_ > cfg_.max_cycles) {
      result.status = SimResult::Status::MaxCycles;
      break;
    }

    while (!sig_q_.empty() && sig_q_.top().time == now_) {
      const SignalEvent ev = sig_q_.top();
      sig_q_.pop();
      commit_signal(ev.signal, ev.value, Obs);
    }
    // Index loop: commits only ever append *runs* (wakes) to the current
    // bucket, but stay defensive about the sigs vector reallocating.
    for (size_t i = 0; i < fb_cur_->sigs.size(); ++i) {
      const FastSig ev = fb_cur_->sigs[i];
      commit_signal(ev.signal, ev.value, Obs);
    }
    fb_cur_->sigs.clear();

    fb_run_next_ = 0;  // bucket drain not started: 0 entries consumed
    while (!run_q_.empty() && run_q_.top().time == now_) {
      Process* p = run_q_.top().proc;
      run_q_.pop();
      if (p->status != Process::Status::Ready) {
        throw SpecError("internal: non-ready process in run queue");
      }
      bstep<Obs>(*p);
      ++steps_;
      if (steps_ > cfg_.max_cycles) break;
    }
    // Steps may enqueue more work at now_ (joins, zero-delay wakes): it
    // appends to this same vector and is drained in turn.
    while (fb_run_next_ < fb_cur_->runs.size() && steps_ <= cfg_.max_cycles) {
      Process* p = fb_cur_->runs[fb_run_next_++];
      if (p->status != Process::Status::Ready) {
        throw SpecError("internal: non-ready process in run queue");
      }
      bstep<Obs>(*p);
      ++steps_;
    }
    fb_cur_->runs.clear();
    fb_run_next_ = 0;
    if (steps_ > cfg_.max_cycles) {
      result.status = SimResult::Status::MaxCycles;
      break;
    }
  }
}

template void Simulator::run_fast_loop<false>(SimResult& result);
template void Simulator::run_fast_loop<true>(SimResult& result);

}  // namespace specsyn
