// Lowered statement interpreter: executes one scheduling step of one process
// against the compiled Program (sim/program.h). Mirrors interp.cpp's frame
// machine exactly — same frames, same enqueue points, same costs — so both
// paths produce bit-identical SimResults and observer streams; only how a
// name's slot is found (pre-lowered ops vs. the plan's node-address table)
// and observer selection (compile-time `Obs` variant vs. a per-access
// emptiness test) differ.
#include "sim/frames.h"
#include "sim/value.h"

namespace specsyn {

template <bool Obs>
uint64_t Simulator::leval(const LExpr& e, Process& p) {
  uint64_t* const base = eval_stack_.data();
  uint64_t* sp = base;
  Frame* call = nullptr;  // innermost call frame, fetched lazily once
  const LOp* op = ops_base_ + e.first;
  for (const LOp* const end = op + e.count; op != end; ++op) {
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
        if (call == nullptr) call = &innermost_call(p);
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

template <bool Obs>
void Simulator::lwrite(const LTarget& t, uint64_t value, Process& p) {
  if (t.scope == LTarget::Scope::Local) {
    Frame& call = innermost_call(p);
    call.dlocals[t.slot] = call.lproc->local_types[t.slot].wrap(value);
    return;
  }
  vars_.set(t.slot, value);
  if constexpr (Obs) notify_var_write(t.slot, p);
  if (observable_[t.slot] != 0) {
    raw_writes_.push_back({t.slot, vars_.get(t.slot), now_});
  }
}

void Simulator::lblock_on(Process& p, const LStmt& s) {
  p.status = Process::Status::Blocked;
  p.wait_cond = s.src->expr.get();
  ++p.wait_epoch;
  for (uint32_t si : s.wait_signals) waiters_[si].push_back(&p);
}

void Simulator::lenter_behavior(const LBehavior& b, Process& p) {
  Frame f;
  f.kind = Frame::Kind::Behavior;
  f.id = b.id;
  f.lbehavior = &b;
  p.stack.push_back(std::move(f));
}

template <bool Obs>
void Simulator::lseq_advance(Process& p) {
  Frame& f = p.stack.back();
  const LBehavior& b = *f.lbehavior;

  bool matched = false;
  uint32_t next = LBehavior::kComplete;
  for (const LBehavior::LTrans& t : b.child_trans[f.child]) {
    const bool take = !t.has_guard || leval<Obs>(t.guard, p) != 0;
    if (take) {
      matched = true;
      next = t.next;
      break;
    }
  }
  if (!matched) {
    next = (f.child + 1 < b.children.size())
               ? static_cast<uint32_t>(f.child + 1)
               : LBehavior::kComplete;
  }

  if (next == LBehavior::kComplete) {
    leave_frame(p);  // Seq done; Behavior frame below completes next step
  } else {
    f.child = next;
    lenter_behavior(*b.children[next], p);
  }
  rearm_step(p);
}

template <bool Obs>
void Simulator::lstep(Process& p) {
  if (p.stack.empty()) {
    throw SpecError("internal: stepping a process with an empty stack");
  }
  Frame& f = p.stack.back();
  switch (f.kind) {
    case Frame::Kind::Behavior: {
      const LBehavior& b = *f.lbehavior;
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
            body.kind = Frame::Kind::Block;
            body.lstmts = b.body;
            p.stack.push_back(std::move(body));
            rearm_step(p);
            break;
          }
          case BehaviorKind::Sequential: {
            Frame seq;
            seq.kind = Frame::Kind::Seq;
            seq.lbehavior = &b;
            p.stack.push_back(std::move(seq));
            rearm_step(p);
            break;
          }
          case BehaviorKind::Concurrent: {
            Frame join;
            join.kind = Frame::Kind::Conc;
            join.lbehavior = &b;
            join.remaining = static_cast<int>(b.children.size());
            p.stack.push_back(std::move(join));
            p.status = Process::Status::Blocked;  // until children join
            for (const LBehavior* c : b.children) {
              Process& cp = spawn(c->src, c, nullptr, c->id, &p);
              rearm_step(cp);
            }
            break;
          }
        }
      } else {
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
        } else if (p.stack.back().kind == Frame::Kind::Seq) {
          lseq_advance<Obs>(p);
        } else {
          rearm_step(p);
        }
      }
      break;
    }

    case Frame::Kind::Seq: {
      if (!f.started) {
        f.started = true;
        f.child = 0;
        lenter_behavior(*f.lbehavior->children[0], p);
        rearm_step(p);
      } else {
        lseq_advance<Obs>(p);
      }
      break;
    }

    case Frame::Kind::Conc: {
      if (f.remaining != 0) {
        throw SpecError("internal: conc frame stepped with children running");
      }
      leave_frame(p);
      rearm_step(p);
      break;
    }

    case Frame::Kind::Block: {
      if (f.idx < f.lstmts->stmts.size()) {
        lexec_stmt<Obs>(f.lstmts->stmts[f.idx], p);
      } else if (f.lowner != nullptr && f.lowner->kind == Stmt::Kind::While) {
        if (leval<Obs>(f.lowner->expr, p) != 0) {
          f.idx = 0;
        } else {
          leave_frame(p);
        }
        rearm_step(p);
      } else if (f.lowner != nullptr && f.lowner->kind == Stmt::Kind::Loop) {
        f.idx = 0;
        rearm_step(p);
      } else {
        leave_frame(p);
        rearm_step(p);
      }
      break;
    }

    case Frame::Kind::Call: {
      // Procedure body finished: copy out-params into the caller's scope.
      Frame call = std::move(f);
      leave_frame(p);
      for (const auto& [param, dest] : call.lcall_site->out_binds) {
        lwrite<Obs>(dest, call.dlocals[param], p);
      }
      rearm_step(p);
      break;
    }
    case Frame::Kind::Code:
      throw SpecError("internal: bytecode frame in the lowered interpreter");
  }
}

template <bool Obs>
void Simulator::lexec_stmt(const LStmt& s, Process& p) {
  Frame& f = p.stack.back();
  switch (s.kind) {
    case Stmt::Kind::Assign: {
      const uint64_t v = leval<Obs>(s.expr, p);
      lwrite<Obs>(s.target, v, p);
      ++f.idx;
      rearm_step(p);
      break;
    }
    case Stmt::Kind::SignalAssign: {
      const uint64_t v = leval<Obs>(s.expr, p);
      if constexpr (Obs) notify_signal_schedule(s.signal, v, p);
      schedule_signal(s.signal, v);
      ++f.idx;
      rearm_step(p);
      break;
    }
    case Stmt::Kind::If: {
      const bool cond = leval<Obs>(s.expr, p) != 0;
      ++f.idx;
      const LBlock* blk = cond ? s.then_block : s.else_block;
      if (blk != nullptr) {
        Frame body;
        body.kind = Frame::Kind::Block;
        body.lstmts = blk;
        p.stack.push_back(std::move(body));
      }
      rearm_step(p);
      break;
    }
    case Stmt::Kind::While: {
      ++f.idx;
      if (leval<Obs>(s.expr, p) != 0) {
        Frame body;
        body.kind = Frame::Kind::Block;
        body.lstmts = s.then_block;
        body.lowner = &s;
        p.stack.push_back(std::move(body));
      }
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Loop: {
      ++f.idx;
      Frame body;
      body.kind = Frame::Kind::Block;
      body.lstmts = s.then_block;
      body.lowner = &s;
      p.stack.push_back(std::move(body));
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Wait: {
      if (leval<Obs>(s.expr, p) != 0) {
        ++f.idx;
        rearm_step(p);
      } else {
        lblock_on(p, s);
      }
      break;
    }
    case Stmt::Kind::Delay: {
      ++f.idx;
      enqueue(p, now_ + std::max<uint64_t>(s.delay, 1));
      break;
    }
    case Stmt::Kind::Call: {
      ++f.idx;
      Frame call;
      call.kind = Frame::Kind::Call;
      call.lproc = s.proc;
      call.lcall_site = &s;
      call.dlocals.assign(s.proc->local_types.size(), 0);
      for (const LCallArg& a : s.in_args) {
        call.dlocals[a.param] =
            s.proc->local_types[a.param].wrap(leval<Obs>(a.in, p));
      }
      p.stack.push_back(std::move(call));
      Frame body;
      body.kind = Frame::Kind::Block;
      body.lstmts = s.proc->body;
      p.stack.push_back(std::move(body));
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Break: {
      // Unwind block frames up to and including the innermost loop block.
      while (!p.stack.empty()) {
        Frame& top = p.stack.back();
        if (top.kind != Frame::Kind::Block) {
          throw SpecError("simulator: break escaped its body");
        }
        const bool is_loop = top.lowner != nullptr;
        p.stack.pop_back();
        if (is_loop) break;
      }
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Nop: {
      ++f.idx;
      rearm_step(p);
      break;
    }
  }
}

// The run loop selects one of these once per run.
template void Simulator::lstep<false>(Process& p);
template void Simulator::lstep<true>(Process& p);

}  // namespace specsyn
