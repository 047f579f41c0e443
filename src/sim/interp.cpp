// Statement interpreter: executes one scheduling step of one process.
// Kernel and event bookkeeping live in simulator.cpp.
#include "sim/frames.h"
#include "sim/value.h"

namespace specsyn {

uint64_t Simulator::read_name(const std::string& name, Process& p) {
  // Innermost procedure activation (if any) shadows the global tables.
  for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it) {
    if (it->kind == Frame::Kind::Call) {
      auto hit = it->call_state->locals.find(name);
      if (hit != it->call_state->locals.end()) return hit->second;
      break;  // only the innermost call scope is visible
    }
  }
  const size_t vi = vars_.find(name);
  if (vi != SIZE_MAX) {
    if (!slot_observers_.empty()) {
      notify_var_read(static_cast<uint32_t>(vi), p);
    }
    return vars_.get(vi);
  }
  const size_t si = signals_.find(name);
  if (si != SIZE_MAX) return signals_.get(si);
  throw SpecError("simulator: unresolved name '" + name + "'");
}

void Simulator::write_var(const std::string& name, uint64_t value, Process& p) {
  for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it) {
    if (it->kind == Frame::Kind::Call) {
      auto hit = it->call_state->locals.find(name);
      if (hit != it->call_state->locals.end()) {
        hit->second = it->call_state->local_types.at(name).wrap(value);
        return;
      }
      break;
    }
  }
  const size_t vi = vars_.find(name);
  if (vi == SIZE_MAX) {
    throw SpecError("simulator: assignment to unresolved name '" + name + "'");
  }
  vars_.set(vi, value);
  if (!slot_observers_.empty()) {
    notify_var_write(static_cast<uint32_t>(vi), p);
  }
  if (observable_[vi] != 0) {
    raw_writes_.push_back({static_cast<uint32_t>(vi), vars_.get(vi), now_});
  }
}

uint64_t Simulator::eval(const Expr& e, Process& p) {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      return e.int_value;
    case Expr::Kind::NameRef:
      return read_name(e.name, p);
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

void Simulator::block_on(Process& p, const Expr& cond) {
  p.status = Process::Status::Blocked;
  p.wait_cond = &cond;
  ++p.wait_epoch;
  std::vector<std::string> names;
  cond.collect_names(names);
  for (const auto& n : names) {
    const size_t si = signals_.find(n);
    if (si != SIZE_MAX) {
      // A name may occur twice in one condition; one waiter entry suffices
      // (wakeups null wait_cond, so duplicate entries were always no-ops).
      auto& list = waiters_[si];
      if (list.empty() || list.back() != &p) list.push_back(&p);
    }
  }
}

void Simulator::enter_behavior(const Behavior& b, Process& p) {
  Frame f;
  f.kind = Frame::Kind::Behavior;
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
    enter_behavior(*b.children[next], p);
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
        if (!slot_observers_.empty()) {
          const uint32_t id = tree_index_->id_of(&b);
          for (SlotObserver* o : slot_observers_) {
            o->on_behavior_start(id, p.id, now_);
          }
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
            seq.behavior = &b;
            p.stack.push_back(std::move(seq));
            rearm_step(p);
            break;
          }
          case BehaviorKind::Concurrent: {
            Frame join;
            join.kind = Frame::Kind::Conc;
            join.behavior = &b;
            join.remaining = static_cast<int>(b.children.size());
            p.stack.push_back(std::move(join));
            p.status = Process::Status::Blocked;  // until children join
            for (const auto& c : b.children) {
              Process& cp = spawn(c.get(), nullptr, nullptr, &p);
              rearm_step(cp);
            }
            break;
          }
        }
      } else {
        // Body / children finished: this behavior completes.
        const uint32_t id = tree_index_->id_of(&b);
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
        enter_behavior(*f.behavior->children[0], p);
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
      for (const auto& [param, dest] : call.call_state->out_binds) {
        write_var(dest, call.call_state->locals.at(param), p);
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
      write_var(s.target, v, p);
      ++f.idx;
      rearm_step(p);
      break;
    }
    case Stmt::Kind::SignalAssign: {
      const uint64_t v = eval(*s.expr, p);
      const size_t si = signals_.find(s.target);
      if (si == SIZE_MAX) {
        throw SpecError("simulator: '<=' to unknown signal '" + s.target + "'");
      }
      if (!slot_observers_.empty()) {
        notify_signal_schedule(static_cast<uint32_t>(si), v, p);
      }
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
        block_on(p, *s.expr);
      }
      break;
    }
    case Stmt::Kind::Delay: {
      ++f.idx;
      enqueue(p, now_ + std::max<uint64_t>(s.delay, 1));
      break;
    }
    case Stmt::Kind::Call: {
      const Procedure* proc = spec_.find_procedure(s.callee);
      if (proc == nullptr) {
        throw SpecError("simulator: call to unknown procedure '" + s.callee +
                        "'");
      }
      ++f.idx;
      Frame call;
      call.kind = Frame::Kind::Call;
      call.proc = proc;
      call.call_state = std::make_unique<Frame::LegacyCall>();
      Frame::LegacyCall& st = *call.call_state;
      for (size_t i = 0; i < proc->params.size(); ++i) {
        const Param& prm = proc->params[i];
        st.local_types.emplace(prm.name, prm.type);
        if (prm.is_out) {
          st.locals.emplace(prm.name, 0);
          st.out_binds.emplace_back(prm.name, s.args[i]->name);
        } else {
          st.locals.emplace(prm.name, prm.type.wrap(eval(*s.args[i], p)));
        }
      }
      for (const auto& [name, type] : proc->locals) {
        st.locals.emplace(name, 0);
        st.local_types.emplace(name, type);
      }
      p.stack.push_back(std::move(call));
      Frame body;
      body.kind = Frame::Kind::Block;
      body.stmts = &proc->body;
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
