// Bytecode interpreter: executes one scheduling step of one process against
// the flat BytecodeProgram (sim/bytecode.h). Drives the same frame machine as
// the other two tiers — same enqueue points, same costs, bit-identical
// SimResults — but the steady state runs register micro-ops and fused
// statement terminals off a linear instruction array instead of walking
// block/statement trees: control flow is pc jumps, so only Behavior/Seq/Conc
// boundaries and procedure calls still push frames.
//
// Dispatch is computed goto (a GNU extension GCC and Clang implement): one
// indirect branch per instruction, which branch predictors specialize per
// preceding opcode.
//
// This file also owns the event loop every tier runs on (run_loop), so the
// bytecode hot path — event loop, frame dispatch, VM — is one translation unit
// and inlines end to end.
#include <algorithm>

#include "sim/frames.h"
#include "sim/value.h"

namespace specsyn {

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
// heap), advances now_/steps_ inline, and lets the caller keep executing
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
// run, and any run that replays or records a schedule, whose every ready set
// must reach the loop's pick (a commit retired here can wake a process that
// ties with this one). A successful statement always re-arms into fb_next_,
// one cycle on.
template <bool Obs>
inline bool Simulator::chain_advance() {
  if (sched_active_ || fb_run_next_ != fb_cur_->runs.size() ||
      !fb_next_->runs.empty() ||
      (!run_q_.empty() && run_q_.top().time <= now_ + 1) ||
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
      const PendingSig ev = fb_cur_->sigs[i];
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
// process is provably alone (chain_advance), else re-arming into fb_next_.
#define SPECSYN_BC_STEP_END(npc)                                    \
  do {                                                              \
    const uint32_t npc_ = (npc);                                    \
    f.idx = npc_;                                                   \
    if (chain_advance<Obs>()) {                                     \
      pc = npc_;                                                    \
      SPECSYN_BC_NEXT();                                            \
    }                                                               \
    rearm_step(p);                                                  \
    return false;                                                   \
  } while (0)

  // Label table indexed by BOp value; must mirror the enum order exactly.
  static const void* const kLabels[] = {
      &&op_LoadLit,      &&op_LoadVar,      &&op_LoadSig,    &&op_LoadLoc,
      &&op_UnApply,      &&op_BinApply,     &&op_ArgStage,   &&op_GuardEnd,
      &&op_BinApplyImm,  &&op_SigBinImm,    &&op_StVar,      &&op_StLoc,
      &&op_StSig,        &&op_AssignImmVar, &&op_AssignImmLoc,
      &&op_AssignLoad,   &&op_SigImm,       &&op_SigLoad,    &&op_Jump,
      &&op_BrFalse,      &&op_BrTrue,       &&op_SigBrFalse, &&op_SigBrTrue,
      &&op_WaitTrue,     &&op_WaitSigExpr,  &&op_DelayStep,  &&op_Call,
      &&op_EndUnit,      &&op_NopStmt};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kBOpCount);
#define SPECSYN_BC_NEXT() goto* kLabels[static_cast<uint8_t>(code[pc].op)]
  SPECSYN_BC_NEXT();

  // ---- expression micro-ops -----------------------------------------------
  op_LoadLit: {
    const BInstr& i = code[pc];
    regs[i.a] = i.imm;
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_LoadVar: {
    const BInstr& i = code[pc];
    if constexpr (Obs) notify_var_read(i.slot, p);
    regs[i.a] = vars_.get(i.slot);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_LoadSig: {
    const BInstr& i = code[pc];
    regs[i.a] = signals_.get(i.slot);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_LoadLoc: {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    regs[i.a] = call->dlocals[i.slot];
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_UnApply: {
    const BInstr& i = code[pc];
    regs[i.a] = apply_unop(static_cast<UnOp>(i.aux), regs[i.b]);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_BinApply: {
    const BInstr& i = code[pc];
    regs[i.a] = apply_binop(static_cast<BinOp>(i.aux), regs[i.b], regs[i.c]);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_ArgStage: {
    const BInstr& i = code[pc];
    staging_[i.slot] = regs[i.b];
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_GuardEnd: {
    throw SpecError("internal: guard unit entered by control flow");
  }

  op_BinApplyImm: {
    const BInstr& i = code[pc];
    regs[i.a] = apply_binop(static_cast<BinOp>(i.aux), regs[i.b], i.imm);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  op_SigBinImm: {
    const BInstr& i = code[pc];
    regs[i.a] =
        apply_binop(static_cast<BinOp>(i.aux), signals_.get(i.slot), i.imm);
    ++pc;
  }
  SPECSYN_BC_NEXT();

  // ---- statement terminals ------------------------------------------------
  op_StVar: {
    const BInstr& i = code[pc];
    bwrite_var<Obs>(i.slot, regs[i.b], p);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_StLoc: {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    call->dlocals[i.slot] = call->bproc->local_types[i.slot].wrap(regs[i.b]);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_StSig: {
    const BInstr& i = code[pc];
    const uint64_t v = regs[i.b];
    if constexpr (Obs) notify_signal_schedule(i.slot, v, p);
    schedule_signal(i.slot, v);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_AssignImmVar: {
    const BInstr& i = code[pc];
    bwrite_var<Obs>(i.slot, i.imm, p);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_AssignImmLoc: {
    const BInstr& i = code[pc];
    if (call == nullptr) call = &bcall_frame(p);
    call->dlocals[i.slot] = call->bproc->local_types[i.slot].wrap(i.imm);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_AssignLoad: {
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

  op_SigImm: {
    const BInstr& i = code[pc];
    if constexpr (Obs) notify_signal_schedule(i.slot, i.imm, p);
    schedule_signal(i.slot, i.imm);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_SigLoad: {
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
    schedule_signal(i.slot, v);
    SPECSYN_BC_STEP_END(pc + 1);
  }

  op_Jump: { SPECSYN_BC_STEP_END(code[pc].aux); }

  op_BrFalse: {
    const BInstr& i = code[pc];
    SPECSYN_BC_STEP_END(regs[i.b] != 0 ? pc + 1 : i.aux);
  }

  op_BrTrue: {
    const BInstr& i = code[pc];
    SPECSYN_BC_STEP_END(regs[i.b] != 0 ? i.aux : pc + 1);
  }

  op_SigBrFalse: {
    const BInstr& i = code[pc];
    const uint64_t v =
        apply_binop(static_cast<BinOp>(i.c), signals_.get(i.slot), i.imm);
    SPECSYN_BC_STEP_END(v != 0 ? pc + 1 : i.aux);
  }

  op_SigBrTrue: {
    const BInstr& i = code[pc];
    const uint64_t v =
        apply_binop(static_cast<BinOp>(i.c), signals_.get(i.slot), i.imm);
    SPECSYN_BC_STEP_END(v != 0 ? i.aux : pc + 1);
  }

  op_WaitTrue: {
    const BInstr& i = code[pc];
    if (regs[i.b] != 0) SPECSYN_BC_STEP_END(pc + 1);
    bblock_on(p, bprog_->wait_sites()[i.slot]);  // f.idx stays at step start
    return false;
  }

  op_WaitSigExpr: {
    const BInstr& i = code[pc];
    const BWaitOp* wop = bprog_->wait_ops().data() + i.slot;
    // Postfix eval over compare leaves and And/Or combiners; depth <= count
    // (<= 255, the compiler fuses no longer program).
    uint64_t st[256];
    uint32_t sp = 0;
    for (uint32_t k = 0; k < i.b; ++k) {
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

  op_DelayStep: {
    const BInstr& i = code[pc];
    f.idx = pc + 1;
    // imm = max(delay, 1), baked at compile time; a 1-cycle delay is a plain
    // step and chains like one.
    if (i.imm == 1 && chain_advance<Obs>()) return true;
    enqueue(p, now_ + i.imm);
    return false;
  }

  op_Call: {
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

  op_EndUnit: {
    leave_frame(p);  // Behavior or Call frame below acts on the next step
    if (chain_advance<Obs>()) return true;
    rearm_step(p);
    return false;
  }

  op_NopStmt: { SPECSYN_BC_STEP_END(pc + 1); }
#undef SPECSYN_BC_NEXT
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
                rearm_step(cp);
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

// The event loop, shared by every tier and schedule. Phase structure
// per instant: signal commits first, in issue order (they may append wakes
// to the instant's runs), then overflow steps due now move to the front of
// the runs — their seqs are older than any bucket entry's — and the runs
// drain in order, steps appending any further work at now_ (joins) behind.
//
// fb_run_next_ is the cursor into fb_cur_->runs: the index of the first
// not-yet-stepped entry, advanced here around every step. Under a replayed
// or recorded schedule the pick among fb_cur_->runs[fb_run_next_..] rotates
// to the cursor, which keeps the rest in canonical order. The VM's statement
// chain compares the cursor against runs.size() to prove the instant has no
// further pending step, and resets it when chain_advance rolls the buckets
// to a commit instant — which is why the drain below loops on the member
// cursor instead of a local index. A chained step advances now_ inside
// bstep; every loop condition tolerates that (the heap top was checked to
// lie beyond every chained instant, and bucket appends made by chained
// statements are relative to the *new* now_, where this loop and the next
// outer iteration pick them up).
template <bool Obs, void (Simulator::*Step)(Simulator::Process&)>
void Simulator::run_loop(SimResult& result) {
  for (;;) {
    uint64_t t = UINT64_MAX;
    if (!fb_cur_->empty()) {
      t = now_;
    } else if (!fb_next_->empty()) {
      t = now_ + 1;
    }
    if (!run_q_.empty()) t = std::min(t, run_q_.top().time);
    if (t == UINT64_MAX) break;  // quiescent
    if (t == now_ + 1) std::swap(fb_cur_, fb_next_);
    // t >= now_ + 2 implies both buckets are empty: no roll needed.
    now_ = t;
    if (now_ > cfg_.max_cycles) {
      result.status = SimResult::Status::MaxCycles;
      break;
    }

    // Index loop: commits only ever append *runs* (wakes) to the current
    // bucket, but stay defensive about the sigs vector reallocating.
    for (size_t i = 0; i < fb_cur_->sigs.size(); ++i) {
      const PendingSig ev = fb_cur_->sigs[i];
      commit_signal(ev.signal, ev.value, Obs);
    }
    fb_cur_->sigs.clear();

    std::vector<Process*>& runs = fb_cur_->runs;
    for (size_t i = 0; !run_q_.empty() && run_q_.top().time == now_; ++i) {
      runs.insert(runs.begin() + static_cast<ptrdiff_t>(i), run_q_.top().proc);
      run_q_.pop();
    }

    fb_run_next_ = 0;
    while (fb_run_next_ < fb_cur_->runs.size() && steps_ <= cfg_.max_cycles) {
      if (sched_active_ && fb_cur_->runs.size() - fb_run_next_ > 1) {
        const uint32_t pick = sched_pick(fb_cur_->runs.size() - fb_run_next_);
        const auto first = fb_cur_->runs.begin() + fb_run_next_;
        std::rotate(first, first + pick, first + pick + 1);
      }
      Process* p = fb_cur_->runs[fb_run_next_++];
      if (p->status != Process::Status::Ready) {
        throw SpecError("internal: non-ready process in run queue");
      }
      (this->*Step)(*p);
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

template void Simulator::run_loop<false, &Simulator::bstep<false>>(SimResult&);
template void Simulator::run_loop<true, &Simulator::bstep<true>>(SimResult&);
template void Simulator::run_loop<false, &Simulator::lstep<false>>(SimResult&);
template void Simulator::run_loop<true, &Simulator::lstep<true>>(SimResult&);
template void Simulator::run_loop<false, &Simulator::step>(SimResult&);
template void Simulator::run_loop<true, &Simulator::step>(SimResult&);

}  // namespace specsyn
