// Simulator kernel: process/event bookkeeping and the main scheduling loop.
// The per-statement interpreter lives in interp.cpp.
#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>

#include "printer/printer.h"
#include "sim/bytecode.h"
#include "sim/frames.h"
#include "sim/program.h"
#include "sim/program_cache.h"
#include "telemetry/telemetry.h"

namespace specsyn {

bool parse_exec_tier(const std::string& name, ExecTier* out) {
  if (name == "tree") {
    *out = ExecTier::Tree;
  } else if (name == "lowered") {
    *out = ExecTier::Lowered;
  } else if (name == "bytecode") {
    *out = ExecTier::Bytecode;
  } else {
    return false;
  }
  return true;
}

const char* exec_tier_name(ExecTier tier) {
  switch (tier) {
    case ExecTier::Tree:
      return "tree";
    case ExecTier::Lowered:
      return "lowered";
    case ExecTier::Bytecode:
      return "bytecode";
  }
  return "?";
}

bool parse_sched_policy(const std::string& name, SchedPolicy* out) {
  if (name == "fifo") {
    *out = SchedPolicy::Fifo;
  } else if (name == "random") {
    *out = SchedPolicy::Random;
  } else if (name == "replay") {
    *out = SchedPolicy::Replay;
  } else {
    return false;
  }
  return true;
}

const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::Fifo:
      return "fifo";
    case SchedPolicy::Random:
      return "random";
    case SchedPolicy::Replay:
      return "replay";
  }
  return "?";
}

ExecTier default_exec_tier() {
  static const ExecTier tier = [] {
    ExecTier t = ExecTier::Bytecode;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once under static init.
    if (const char* env = std::getenv("SPECSYN_EXEC_TIER")) {
      if (*env != '\0' && !parse_exec_tier(env, &t)) {
        throw SpecError(std::string("SPECSYN_EXEC_TIER: unknown tier '") +
                        env + "' (expected tree, lowered or bytecode)");
      }
    }
    return t;
  }();
  return tier;
}

namespace {

// priority_queue exposes no reserve(); seed it with a pre-reserved container
// so steady-state pushes don't reallocate the heap storage.
template <typename Ev>
std::priority_queue<Ev, std::vector<Ev>, std::greater<>> make_queue(
    size_t capacity) {
  std::vector<Ev> storage;
  storage.reserve(capacity);
  return std::priority_queue<Ev, std::vector<Ev>, std::greater<>>(
      std::greater<>(), std::move(storage));
}

}  // namespace

Simulator::Simulator(const Specification& spec, SimConfig cfg,
                     ProgramCache* programs)
    : spec_(spec), cfg_(cfg) {
  validate_or_throw(spec_);
  build_tables();
  if (cfg_.exec_tier == ExecTier::Lowered) {
    if (programs != nullptr) {
      cached_ = programs->get(spec_, cfg_);
      prog_ = cached_->program;
    } else {
      telemetry::Span span("lower", telemetry::Stability::Sched);
      prog_ = Program::compile(spec_, vars_, signals_);
    }
    ops_base_ = prog_->ops().data();
    eval_stack_.assign(std::max<uint32_t>(1, prog_->max_eval_stack()), 0);
    completions_.assign(prog_->behavior_count(), 0);
  } else if (cfg_.exec_tier == ExecTier::Bytecode) {
    if (programs != nullptr) {
      cached_ = programs->get(spec_, cfg_);
      bprog_ = cached_->bytecode;
    } else {
      telemetry::Span span("bytecode_compile", telemetry::Stability::Sched);
      bprog_ = BytecodeProgram::compile(spec_, vars_, signals_);
    }
    bcode_ = bprog_->code().data();
    regs_.assign(kMaxRegs, 0);
    staging_.assign(std::max<uint32_t>(1, bprog_->max_proc_locals()), 0);
    // The eval stack backs only the EvalSpill fallback in this tier.
    eval_stack_.assign(std::max<uint32_t>(1, bprog_->max_spill_stack()), 0);
    completions_.assign(bprog_->behavior_count(), 0);
    fast_sched_ = true;
    chain_ok_ = (cfg_.stmt_cost == 1);
    for (FastBucket& b : fast_buckets_) {
      b.runs.reserve(64);
      b.sigs.reserve(64);
    }
  }
  sched_active_ =
      cfg_.sched_policy != SchedPolicy::Fifo || cfg_.record_schedule;
  if (sched_active_) {
    // Permuted or recorded scheduling must see every decision point, so the
    // bytecode tier falls back to the generic (time, seq) heap loop: the
    // fast buckets don't carry seq numbers and statement chaining skips the
    // scheduler entirely. All three tiers then share identical ready sets.
    fast_sched_ = false;
    chain_ok_ = false;
    sched_rng_ = cfg_.sched_seed;
  }
  run_q_ = make_queue<RunEvent>(1024);
  sig_q_ = make_queue<SignalEvent>(1024);
  processes_.reserve(64);
  raw_writes_.reserve(256);
}

Simulator::~Simulator() = default;

void Simulator::reset() {
  vars_.reset();
  signals_.reset();
  processes_.clear();
  run_q_ = make_queue<RunEvent>(1024);
  sig_q_ = make_queue<SignalEvent>(1024);
  for (FastBucket& b : fast_buckets_) b.clear();
  fb_cur_ = &fast_buckets_[0];
  fb_next_ = &fast_buckets_[1];
  fb_run_next_ = 0;
  for (auto& w : waiters_) w.clear();
  sched_rng_ = cfg_.sched_seed;
  sched_pick_cursor_ = 0;
  ready_.clear();
  sched_trace_.clear();
  raw_writes_.clear();
  behavior_completions_.clear();
  std::fill(completions_.begin(), completions_.end(), 0);
  seq_counter_ = 0;
  now_ = 0;
  steps_ = 0;
  ran_ = false;
  root_ = nullptr;
}

void Simulator::clear_observers() { slot_observers_.clear(); }

void Simulator::add_slot_observer(SlotObserver* obs) {
  slot_observers_.push_back(obs);
}

// Interned id of the innermost active behavior — the attribution carried by
// observer events. Walks the (shallow) frame stack.
uint32_t Simulator::innermost_behavior_id(const Process& p) const {
  for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it) {
    if (it->kind != Frame::Kind::Behavior) continue;
    if (it->lbehavior != nullptr) return it->lbehavior->id;
    if (it->bbehavior != nullptr) return it->bbehavior->id;
    return tree_ids_.at(it->behavior);
  }
  return UINT32_MAX;
}

void Simulator::notify_var_read(uint32_t slot, const Process& p) {
  const uint32_t behavior = innermost_behavior_id(p);
  for (SlotObserver* o : slot_observers_) o->on_var_read(slot, behavior, now_);
}

void Simulator::notify_var_write(uint32_t slot, const Process& p) {
  const uint32_t behavior = innermost_behavior_id(p);
  for (SlotObserver* o : slot_observers_) {
    o->on_var_write(slot, behavior, now_, vars_.get(slot));
  }
}

void Simulator::notify_signal_schedule(uint32_t slot, uint64_t value,
                                       const Process& p) {
  const uint64_t wrapped = signals_.type_of(slot).wrap(value);
  const uint32_t behavior = innermost_behavior_id(p);
  for (SlotObserver* o : slot_observers_) {
    o->on_signal_schedule(slot, behavior, now_, wrapped);
  }
}

void Simulator::build_tables() {
  for (const VarDecl* v : spec_.all_vars()) {
    const size_t idx = vars_.add(v->name, v->type, v->init);
    observable_.resize(vars_.size(), 0);
    if (v->is_observable) observable_[idx] = 1;
  }
  for (const SignalDecl* s : spec_.all_signals()) {
    signals_.add(s->name, s->type, s->init);
  }
  waiters_.resize(signals_.size());
}

Simulator::Process& Simulator::spawn(const Behavior* b, const LBehavior* lb,
                                     const BBehavior* bb, Process* parent) {
  auto p = std::make_unique<Process>();
  p->id = processes_.size();
  p->parent = parent;
  p->stack.reserve(16);  // deep enough for typical nesting; avoids regrowth
  Frame f;
  f.kind = Frame::Kind::Behavior;
  f.behavior = b;
  f.lbehavior = lb;
  f.bbehavior = bb;
  p->stack.push_back(std::move(f));
  processes_.push_back(std::move(p));
  return *processes_.back();
}

void Simulator::enqueue(Process& p, uint64_t time) {
  p.status = Process::Status::Ready;
  if (fast_sched_) {
    if (time == now_) {
      fb_cur_->runs.push_back(&p);
      return;
    }
    if (time == now_ + 1) {
      fb_next_->runs.push_back(&p);
      return;
    }
  }
  run_q_.push({time, seq_counter_++, &p});
}

void Simulator::schedule_signal(size_t idx, uint64_t value, uint64_t time) {
  if (fast_sched_) {
    if (time == now_) {
      fb_cur_->sigs.push_back({static_cast<uint32_t>(idx), value});
      return;
    }
    if (time == now_ + 1) {
      fb_next_->sigs.push_back({static_cast<uint32_t>(idx), value});
      return;
    }
  }
  sig_q_.push({time, seq_counter_++, idx, value});
}

void Simulator::wake_sensitive(size_t signal_idx, uint64_t time) {
  // Every current entry is either woken now or stale; either way the list
  // empties. Woken processes re-register only when they next step and
  // re-block — never during this loop — so iterating in place is safe and
  // keeps the vector's capacity instead of moving it off to a temporary.
  std::vector<Process*>& entries = waiters_[signal_idx];
  for (size_t i = 0; i < entries.size(); ++i) {
    Process* p = entries[i];
    if (p->status == Process::Status::Blocked &&
        (p->wait_cond != nullptr || p->bwait != nullptr)) {
      // Will re-block (and re-register) if the condition is still false.
      p->wait_cond = nullptr;
      p->bwait = nullptr;
      ++p->wait_epoch;
      enqueue(*p, time);
    }
  }
  entries.clear();
}

void Simulator::commit_signal(size_t signal, uint64_t value, bool observed) {
  if (!signals_.commit(signal, value)) return;
  if (observed) {
    for (SlotObserver* o : slot_observers_) {
      o->on_signal_commit(static_cast<uint32_t>(signal), now_,
                          signals_.get(signal));
    }
  }
  wake_sensitive(signal, now_);
}

void Simulator::finish_process(Process& p, uint64_t time) {
  p.status = Process::Status::Done;
  if (p.parent != nullptr) {
    // The parent is blocked in its Conc frame (always the top of its stack
    // while children run).
    Frame& join = p.parent->stack.back();
    if (join.kind != Frame::Kind::Conc || join.remaining <= 0) {
      throw SpecError("internal: concurrent join bookkeeping corrupted");
    }
    if (--join.remaining == 0) enqueue(*p.parent, time);
  }
}

uint32_t Simulator::sched_pick(size_t k) {
  uint32_t pick = 0;
  switch (cfg_.sched_policy) {
    case SchedPolicy::Fifo:
      break;
    case SchedPolicy::Random: {
      // splitmix64: tiny, seed-deterministic, plenty for tie-breaking.
      sched_rng_ += 0x9e3779b97f4a7c15ull;
      uint64_t z = sched_rng_;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      pick = static_cast<uint32_t>(z % k);
      break;
    }
    case SchedPolicy::Replay:
      // One trace entry per decision point; an exhausted trace means "the
      // rest of the run is canonical" (pick 0), which is what lets a prefix
      // double as a complete witness.
      if (sched_pick_cursor_ < cfg_.sched_picks.size()) {
        pick = cfg_.sched_picks[sched_pick_cursor_];
        if (pick >= k) {
          throw SpecError("schedule replay: pick " + std::to_string(pick) +
                          " at decision " +
                          std::to_string(sched_pick_cursor_) +
                          " is out of range (ready set holds " +
                          std::to_string(k) + ")");
        }
      }
      ++sched_pick_cursor_;
      break;
  }
  if (cfg_.record_schedule) {
    SchedDecision d;
    d.time = now_;
    d.pick = pick;
    d.ready.reserve(k);
    for (const Process* rp : ready_) d.ready.push_back(current_behavior(*rp));
    sched_trace_.push_back(std::move(d));
  }
  return pick;
}

SimResult Simulator::run() {
  if (ran_) throw SpecError("Simulator::run may only be called once");
  ran_ = true;
  telemetry::Span tm_span("simulate", telemetry::Stability::Stable);

  SimResult result;
  const bool observed = !slot_observers_.empty();
  if (observed) {
    // Materialize the id-indexed behavior names once; valid for the run.
    bound_names_.clear();
    if (prog_) {
      bound_names_.reserve(prog_->behavior_count());
      for (uint32_t id = 0; id < prog_->behavior_count(); ++id) {
        bound_names_.push_back(prog_->behavior_name(id));
      }
    } else if (bprog_) {
      bound_names_ = bprog_->behavior_names();
    } else {
      tree_ids_.clear();
      for (const Behavior* b : spec_.all_behaviors()) {
        tree_ids_.emplace(b, static_cast<uint32_t>(bound_names_.size()));
        bound_names_.push_back(b->name);
      }
    }
    const SlotObserver::Binding binding{&vars_, &signals_, &bound_names_};
    for (SlotObserver* o : slot_observers_) o->on_bind(binding);
  }
  if (spec_.top) {
    root_ = &spawn(spec_.top.get(), prog_ ? prog_->root() : nullptr,
                   bprog_ ? bprog_->root() : nullptr, nullptr);
    enqueue(*root_, 0);
  }

  // Pick the stepping variant once — tier, and (for the compiled tiers)
  // observed vs unobserved — so the steady state never re-tests either.
  void (Simulator::*step_fn)(Process&) =
      prog_    ? (observed ? &Simulator::lstep<true> : &Simulator::lstep<false>)
      : bprog_ ? (observed ? &Simulator::bstep<true> : &Simulator::bstep<false>)
               : &Simulator::step;

  if (fast_sched_) {
    if (observed) {
      run_fast_loop<true>(result);
    } else {
      run_fast_loop<false>(result);
    }
  } else {
    while (!run_q_.empty() || !sig_q_.empty()) {
      uint64_t t = UINT64_MAX;
      if (!run_q_.empty()) t = run_q_.top().time;
      if (!sig_q_.empty()) t = std::min(t, sig_q_.top().time);
      now_ = t;
      if (now_ > cfg_.max_cycles) {
        result.status = SimResult::Status::MaxCycles;
        break;
      }

      // Commit signal updates scheduled for this instant first, in issue
      // order, so woken processes see a consistent snapshot when they step.
      while (!sig_q_.empty() && sig_q_.top().time == now_) {
        const SignalEvent ev = sig_q_.top();
        sig_q_.pop();
        commit_signal(ev.signal, ev.value, observed);
      }

      // Then run every process step scheduled at exactly t (steps may
      // enqueue further work at t, which this loop also drains).
      if (!sched_active_) {
        while (!run_q_.empty() && run_q_.top().time == now_) {
          Process* p = run_q_.top().proc;
          run_q_.pop();
          if (p->status != Process::Status::Ready) {
            throw SpecError("internal: non-ready process in run queue");
          }
          (this->*step_fn)(*p);
          ++steps_;
          if (steps_ > cfg_.max_cycles) break;
        }
      } else {
        // Policy path: materialize the instant's ready set so the pick can
        // permute it. The heap pops in seq order and work enqueued while
        // stepping carries higher seq numbers and is appended behind the
        // survivors, so always picking index 0 reproduces the Fifo order
        // exactly — the policy only ever reorders genuine ties.
        while (!run_q_.empty() && run_q_.top().time == now_) {
          ready_.push_back(run_q_.top().proc);
          run_q_.pop();
        }
        while (!ready_.empty()) {
          const uint32_t pick =
              ready_.size() > 1 ? sched_pick(ready_.size()) : 0;
          Process* p = ready_[pick];
          ready_.erase(ready_.begin() + pick);
          if (p->status != Process::Status::Ready) {
            throw SpecError("internal: non-ready process in run queue");
          }
          (this->*step_fn)(*p);
          ++steps_;
          if (steps_ > cfg_.max_cycles) break;
          while (!run_q_.empty() && run_q_.top().time == now_) {
            ready_.push_back(run_q_.top().proc);
            run_q_.pop();
          }
        }
        ready_.clear();  // non-empty only after a max-cycles bail
      }
      if (steps_ > cfg_.max_cycles) {
        result.status = SimResult::Status::MaxCycles;
        break;
      }
    }
  }

  for (SlotObserver* o : slot_observers_) o->on_run_end(now_);

  result.end_time = now_;
  result.steps = steps_;
  if (cfg_.record_schedule) result.sched_decisions = std::move(sched_trace_);
  result.root_completed =
      root_ != nullptr && root_->status == Process::Status::Done;
  for (const auto& p : processes_) {
    if (p->status != Process::Status::Blocked) continue;
    BlockedProcess info;
    info.process_id = p->id;
    info.behavior =
        p->behavior_stack.empty() ? "<none>" : p->behavior_stack.back()->name;
    info.waiting_on = p->wait_cond != nullptr ? print(*p->wait_cond)
                      : p->bwait != nullptr   ? p->bwait->cond_str
                                              : "<join>";
    result.blocked.push_back(std::move(info));
  }
  for (size_t i = 0; i < vars_.size(); ++i) {
    result.final_vars.emplace(vars_.name_of(i), vars_.get(i));
  }
  result.observable_writes.reserve(raw_writes_.size());
  for (const RawWrite& w : raw_writes_) {
    result.observable_writes.push_back({vars_.name_of(w.var), w.value, w.time});
  }
  if (prog_ || bprog_) {
    // Compiled runs count completions per interned behavior id; materialize
    // the name-keyed map (ids with zero completions have no entry, matching
    // the legacy map's insert-on-first-completion behavior).
    const uint32_t n =
        prog_ ? prog_->behavior_count() : bprog_->behavior_count();
    for (uint32_t id = 0; id < n; ++id) {
      if (completions_[id] != 0) {
        result.behavior_completions.emplace(
            prog_ ? prog_->behavior_name(id) : bprog_->behavior_name(id),
            completions_[id]);
      }
    }
  } else {
    result.behavior_completions = behavior_completions_;
  }
  if (telemetry::enabled()) {
    // All three are per-run deterministic: identical inputs yield identical
    // step/cycle totals regardless of --jobs or tier-internal scheduling.
    telemetry::count("sim.runs", telemetry::Stability::Stable, 1);
    telemetry::count("sim.steps", telemetry::Stability::Stable, steps_);
    telemetry::count("sim.cycles", telemetry::Stability::Stable, now_);
  }
  return result;
}

}  // namespace specsyn
