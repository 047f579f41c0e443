// Tree statement interpreter: executes one scheduling step of one process by
// walking the spec's Stmt/Expr trees. Every name is read through the slot the
// plan's TreeResolution (sim/tree_resolution.h) resolved for its node; the
// tier never reads the lowered Program or the bytecode, so it stays an
// independent reference for the other two. Kernel and event bookkeeping live
// in simulator.cpp.
#include "sim/frames.h"
#include "sim/value.h"

namespace specsyn {

// Writes `dest`, a variable or a local of the innermost procedure activation.
void Simulator::store(TreeResolution::Ref dest, uint64_t value, Process& p) {
  if (dest.scope == TreeResolution::Ref::Scope::Local) {
    Frame& call = innermost_call(p);
    call.dlocals[dest.slot] =
        call.tcall->proc->local_types[dest.slot].wrap(value);
    return;
  }
  vars_.set(dest.slot, value);
  if (!slot_observers_.empty()) notify_var_write(dest.slot, p);
  if (observable_[dest.slot] != 0) {
    raw_writes_.push_back({dest.slot, vars_.get(dest.slot), now_});
  }
}

uint64_t Simulator::eval(const Expr& e, Process& p) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      return e.int_value;
    case Expr::Kind::NameRef: {
      const TreeResolution::Ref r = tree_->name(e);
      switch (r.scope) {
        case TreeResolution::Ref::Scope::Var:
          if (!slot_observers_.empty()) notify_var_read(r.slot, p);
          return vars_.get(r.slot);
        case TreeResolution::Ref::Scope::Signal:
          return signals_.get(r.slot);
        case TreeResolution::Ref::Scope::Local:
          return innermost_call(p).dlocals[r.slot];
      }
      break;
    }
    case Expr::Kind::Unary:
      return apply_unop(e.un_op, eval(*e.args[0], p));
    case Expr::Kind::Binary: {
      // Sequence the operands explicitly: function-argument evaluation order
      // is unspecified, and observers must see reads left-to-right.
      const uint64_t lhs = eval(*e.args[0], p);
      const uint64_t rhs = eval(*e.args[1], p);
      return apply_binop(e.bin_op, lhs, rhs);
    }
  }
  // Unreachable for any Expr built through the factories; a corrupted kind
  // must fail loudly rather than silently evaluate to 0.
  throw SpecError("simulator: unhandled expression kind");
}

void Simulator::block_on(Process& p, const Stmt& wait) {
  p.status = Process::Status::Blocked;
  p.wait_cond = wait.expr.get();
  ++p.wait_epoch;
  for (uint32_t si : tree_->wait_signals(wait)) {
    // An entry left over from an earlier wait makes another one redundant
    // (wakeups null wait_cond, so duplicate entries are no-ops).
    auto& list = waiters_[si];
    if (list.empty() || list.back() != &p) list.push_back(&p);
  }
}

void Simulator::enter_behavior(const Behavior& b, uint32_t id, Process& p) {
  Frame f;
  f.kind = Frame::Kind::Behavior;
  f.id = id;
  f.behavior = &b;
  p.stack.push_back(std::move(f));
}

// Pops the top frame and hands control back to the caller's bookkeeping.
void Simulator::leave_frame(Process& p) {
  // Popping the innermost Call frame restores the bytecode tier's O(1)
  // call-frame index; a no-op for the other tiers, which keep call_idx == 0.
  if (p.call_idx == p.stack.size()) p.call_idx = p.stack.back().prev_call;
  p.stack.pop_back();
}

// The completing child of a Seq frame selects the next child via the
// composite's transition arcs; with no matching arc, control falls through
// to the next child in declaration order (completing after the last).
void Simulator::seq_advance(Process& p) {
  Frame& f = p.stack.back();
  const Behavior& b = *f.behavior;
  const std::string& done_child = b.children[f.child]->name;

  bool matched = false;
  size_t next = SIZE_MAX;  // SIZE_MAX == complete the composite
  for (const Transition& t : b.transitions) {
    if (t.from != done_child) continue;
    const bool take = !t.guard || eval(*t.guard, p) != 0;
    if (take) {
      matched = true;
      next = t.completes() ? SIZE_MAX : b.child_index(t.to);
      break;
    }
  }
  if (!matched) {
    next = (f.child + 1 < b.children.size()) ? f.child + 1 : SIZE_MAX;
  }

  if (next == SIZE_MAX) {
    leave_frame(p);  // Seq done; Behavior frame below completes next step
  } else {
    f.child = next;
    enter_behavior(*b.children[next], tree_->child(f.id, next), p);
  }
  rearm_step(p);
}

void Simulator::step(Process& p) {
  if (p.stack.empty()) {
    throw SpecError("internal: stepping a process with an empty stack");
  }
  Frame& f = p.stack.back();
  switch (f.kind) {
    case Frame::Kind::Behavior: {
      const Behavior& b = *f.behavior;
      if (!f.started) {
        f.started = true;
        for (SlotObserver* o : slot_observers_) {
          o->on_behavior_start(f.id, p.id, now_);
        }
        switch (b.kind) {
          case BehaviorKind::Leaf: {
            Frame body;
            body.kind = Frame::Kind::Block;
            body.stmts = &b.body;
            p.stack.push_back(std::move(body));
            rearm_step(p);
            break;
          }
          case BehaviorKind::Sequential: {
            Frame seq;
            seq.kind = Frame::Kind::Seq;
            seq.id = f.id;
            seq.behavior = &b;
            p.stack.push_back(std::move(seq));
            rearm_step(p);
            break;
          }
          case BehaviorKind::Concurrent: {
            const uint32_t id = f.id;
            Frame join;
            join.kind = Frame::Kind::Conc;
            join.behavior = &b;
            join.remaining = static_cast<int>(b.children.size());
            p.stack.push_back(std::move(join));
            p.status = Process::Status::Blocked;  // until children join
            for (size_t i = 0; i < b.children.size(); ++i) {
              Process& cp = spawn(b.children[i].get(), nullptr, nullptr,
                                  tree_->child(id, i), &p);
              rearm_step(cp);
            }
            break;
          }
        }
      } else {
        // Body / children finished: this behavior completes.
        const uint32_t id = f.id;
        for (SlotObserver* o : slot_observers_) {
          o->on_behavior_end(id, p.id, now_);
        }
        ++completions_[id];
        leave_frame(p);
        if (p.stack.empty()) {
          finish_process(p, now_);
        } else if (p.stack.back().kind == Frame::Kind::Seq) {
          // Let the sequential parent pick the successor immediately so the
          // transition decision is attributed to the composite.
          seq_advance(p);
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
        enter_behavior(*f.behavior->children[0], tree_->child(f.id, 0), p);
        rearm_step(p);
      } else {
        // Reached only if a child completed without the Behavior frame
        // dispatching (defensive; normal path goes through seq_advance).
        seq_advance(p);
      }
      break;
    }

    case Frame::Kind::Conc: {
      // All children joined (finish_process re-enqueued us).
      if (f.remaining != 0) {
        throw SpecError("internal: conc frame stepped with children running");
      }
      leave_frame(p);
      rearm_step(p);
      break;
    }

    case Frame::Kind::Block: {
      if (f.idx < f.stmts->size()) {
        exec_stmt(*(*f.stmts)[f.idx], p);
      } else if (f.owner != nullptr && f.owner->kind == Stmt::Kind::While) {
        if (eval(*f.owner->expr, p) != 0) {
          f.idx = 0;
        } else {
          leave_frame(p);
        }
        rearm_step(p);
      } else if (f.owner != nullptr && f.owner->kind == Stmt::Kind::Loop) {
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
      for (const auto& [param, dest] : call.tcall->out_binds) {
        store(dest, call.dlocals[param], p);
      }
      rearm_step(p);
      break;
    }
    case Frame::Kind::Code:
      throw SpecError("internal: bytecode frame in the tree interpreter");
  }
}

void Simulator::exec_stmt(const Stmt& s, Process& p) {
  Frame& f = p.stack.back();
  switch (s.kind) {
    case Stmt::Kind::Assign: {
      const uint64_t v = eval(*s.expr, p);
      store(tree_->target(s), v, p);
      ++f.idx;
      rearm_step(p);
      break;
    }
    case Stmt::Kind::SignalAssign: {
      const uint64_t v = eval(*s.expr, p);
      const uint32_t si = tree_->signal(s);
      if (!slot_observers_.empty()) notify_signal_schedule(si, v, p);
      schedule_signal(si, v);
      ++f.idx;
      rearm_step(p);
      break;
    }
    case Stmt::Kind::If: {
      const bool cond = eval(*s.expr, p) != 0;
      ++f.idx;
      const StmtList& blk = cond ? s.then_block : s.else_block;
      if (!blk.empty()) {
        Frame body;
        body.kind = Frame::Kind::Block;
        body.stmts = &blk;
        p.stack.push_back(std::move(body));
      }
      rearm_step(p);
      break;
    }
    case Stmt::Kind::While: {
      ++f.idx;
      if (eval(*s.expr, p) != 0) {
        Frame body;
        body.kind = Frame::Kind::Block;
        body.stmts = &s.then_block;
        body.owner = &s;
        p.stack.push_back(std::move(body));
      }
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Loop: {
      ++f.idx;
      Frame body;
      body.kind = Frame::Kind::Block;
      body.stmts = &s.then_block;
      body.owner = &s;
      p.stack.push_back(std::move(body));
      rearm_step(p);
      break;
    }
    case Stmt::Kind::Wait: {
      if (eval(*s.expr, p) != 0) {
        ++f.idx;
        rearm_step(p);
      } else {
        block_on(p, s);
      }
      break;
    }
    case Stmt::Kind::Delay: {
      ++f.idx;
      enqueue(p, now_ + std::max<uint64_t>(s.delay, 1));
      break;
    }
    case Stmt::Kind::Call: {
      const TreeResolution::CallSite& site = tree_->call(s);
      const TreeResolution::Proc& proc = *site.proc;
      ++f.idx;
      // In-args evaluate in the caller's scope, before the activation exists.
      Frame call;
      call.kind = Frame::Kind::Call;
      call.tcall = &site;
      call.dlocals.assign(proc.local_types.size(), 0);
      for (size_t i = 0; i < proc.src->params.size(); ++i) {
        if (!proc.src->params[i].is_out) {
          call.dlocals[i] = proc.local_types[i].wrap(eval(*s.args[i], p));
        }
      }
      p.stack.push_back(std::move(call));
      Frame body;
      body.kind = Frame::Kind::Block;
      body.stmts = &proc.src->body;
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
        const bool is_loop = top.owner != nullptr;
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

}  // namespace specsyn
