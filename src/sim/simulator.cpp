// Simulator kernel: process/event bookkeeping, schedule replay and run().
// The event loop lives in interp_bytecode.cpp; the per-statement interpreters
// live in interp.cpp, interp_lowered.cpp and interp_bytecode.cpp.
#include "sim/simulator.h"

#include <algorithm>
#include <cstdlib>

#include "printer/printer.h"
#include "sim/bytecode.h"
#include "sim/frames.h"
#include "sim/plan.h"
#include "sim/program.h"
#include "sim/program_cache.h"
#include "telemetry/telemetry.h"

namespace specsyn {

bool parse_exec_tier(const std::string& name, ExecTier* out) {
  for (size_t i = 0; i < kExecTierNames.size(); ++i) {
    if (name == kExecTierNames[i]) {
      *out = static_cast<ExecTier>(i);
      return true;
    }
  }
  return false;
}

const char* exec_tier_name(ExecTier tier) {
  return kExecTierNames[static_cast<size_t>(tier)];
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

std::shared_ptr<const SimPlan> plan_for(const Specification& spec,
                                        const SimConfig& cfg,
                                        ProgramCache* programs) {
  if (programs != nullptr && cfg.exec_tier != ExecTier::Tree) {
    return programs->get(spec, cfg);
  }
  return SimPlan::build(spec, cfg.exec_tier);
}

}  // namespace

Simulator::Simulator(const Specification& spec, SimConfig cfg,
                     ProgramCache* programs)
    : Simulator(plan_for(spec, cfg, programs), cfg) {}

Simulator::Simulator(std::shared_ptr<const SimPlan> plan, SimConfig cfg)
    : plan_(std::move(plan)),
      spec_(plan_->spec()),
      cfg_(std::move(cfg)),
      vars_(plan_->vars()),
      signals_(plan_->signals()),
      observable_(plan_->observable().data()) {
  if (!plan_->has_tier(cfg_.exec_tier)) {
    throw SpecError(std::string("simulation plan for '") + spec_.name +
                    "' was not built for the " +
                    exec_tier_name(cfg_.exec_tier) + " tier");
  }
  waiters_.resize(signals_.size());
  if (cfg_.exec_tier == ExecTier::Lowered) {
    prog_ = plan_->program();
    ops_base_ = prog_->ops().data();
    eval_stack_.assign(std::max<uint32_t>(1, prog_->max_eval_stack()), 0);
    completions_.assign(prog_->behavior_count(), 0);
  } else if (cfg_.exec_tier == ExecTier::Bytecode) {
    bprog_ = plan_->bytecode();
    bcode_ = bprog_->code().data();
    regs_.assign(bprog_->reg_count(), 0);
    staging_.assign(std::max<uint32_t>(1, bprog_->max_proc_locals()), 0);
    completions_.assign(bprog_->behavior_count(), 0);
  } else {
    tree_ = plan_->tree();
    completions_.assign(tree_->index().size(), 0);
  }
  for (Bucket& b : buckets_) {
    b.runs.reserve(64);
    b.sigs.reserve(64);
  }
  // Replayed or recorded scheduling must see every decision point, so it
  // turns off the bytecode tier's statement chaining, which steps a process
  // past instants without a scheduler round-trip. Chaining is result-neutral,
  // so an empty trace may chain.
  sched_active_ = !cfg_.sched_picks.empty() || cfg_.record_schedule;
  processes_.reserve(64);
  raw_writes_.reserve(256);
}

Simulator::~Simulator() = default;

void Simulator::add_slot_observer(SlotObserver* obs) {
  slot_observers_.push_back(obs);
}

// Interned id of the innermost started behavior — the attribution carried by
// observer events, recorded ready sets and the blocked-process report. A
// pushed but unstarted Behavior frame (a forked child, or a sequential
// composite's next child) does not count yet. Walks the (shallow) frame
// stack.
uint32_t Simulator::innermost_behavior_id(const Process& p) const {
  for (auto it = p.stack.rbegin(); it != p.stack.rend(); ++it) {
    if (it->kind == Frame::Kind::Behavior && it->started) return it->id;
  }
  return SpecIndex::kNone;
}

const std::string& Simulator::behavior_name(uint32_t id) const {
  if (prog_ != nullptr) return prog_->behavior_name(id);
  if (bprog_ != nullptr) return bprog_->behavior_name(id);
  return tree_->index().behavior(id).name;
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

Simulator::Process& Simulator::spawn(const Behavior* b, const LBehavior* lb,
                                     const BBehavior* bb, uint32_t id,
                                     Process* parent) {
  auto p = std::make_unique<Process>();
  p->id = processes_.size();
  p->parent = parent;
  p->stack.reserve(16);  // deep enough for typical nesting; avoids regrowth
  Frame f;
  f.kind = Frame::Kind::Behavior;
  f.id = id;
  f.behavior = b;
  f.lbehavior = lb;
  f.bbehavior = bb;
  p->stack.push_back(std::move(f));
  processes_.push_back(std::move(p));
  return *processes_.back();
}

void Simulator::enqueue(Process& p, uint64_t time) {
  p.status = Process::Status::Ready;
  if (time == now_) {
    fb_cur_->runs.push_back(&p);
  } else if (time == now_ + 1) {
    fb_next_->runs.push_back(&p);
  } else {
    run_q_.push({time, seq_counter_++, &p});
  }
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
  // One trace entry per decision point; an exhausted trace means "the rest of
  // the run is canonical" (pick 0), which is what lets a prefix double as a
  // complete witness.
  uint32_t pick = 0;
  if (sched_pick_cursor_ < cfg_.sched_picks.size()) {
    pick = cfg_.sched_picks[sched_pick_cursor_];
    if (pick >= k) {
      throw SpecError("schedule replay: pick " + std::to_string(pick) +
                      " at decision " + std::to_string(sched_pick_cursor_) +
                      " is out of range (ready set holds " +
                      std::to_string(k) + ")");
    }
  }
  ++sched_pick_cursor_;
  if (cfg_.record_schedule) {
    SchedDecision d;
    d.time = now_;
    d.pick = pick;
    d.ready.reserve(k);
    for (size_t i = fb_run_next_; i < fb_cur_->runs.size(); ++i) {
      d.ready.push_back(innermost_behavior_id(*fb_cur_->runs[i]));
    }
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
    for (uint32_t id = 0; id < completions_.size(); ++id) {
      bound_names_.push_back(behavior_name(id));
    }
    const SlotObserver::Binding binding{&vars_, &signals_, &bound_names_};
    for (SlotObserver* o : slot_observers_) o->on_bind(binding);
  }
  if (spec_.top) {
    // The top behavior is id 0 in every tier's pre-order numbering.
    root_ = &spawn(spec_.top.get(), prog_ ? prog_->root() : nullptr,
                   bprog_ ? bprog_->root() : nullptr, 0, nullptr);
    enqueue(*root_, 0);
  }

  // Pick the stepping variant once — tier, and (for the compiled tiers)
  // observed vs unobserved — so the steady state never re-tests either.
  if (prog_ != nullptr) {
    observed ? run_loop<true, &Simulator::lstep<true>>(result)
             : run_loop<false, &Simulator::lstep<false>>(result);
  } else if (bprog_ != nullptr) {
    observed ? run_loop<true, &Simulator::bstep<true>>(result)
             : run_loop<false, &Simulator::bstep<false>>(result);
  } else {
    observed ? run_loop<true, &Simulator::step>(result)
             : run_loop<false, &Simulator::step>(result);
  }

  for (SlotObserver* o : slot_observers_) o->on_run_end(now_);

  result.end_time = now_;
  result.steps = steps_;
  result.schedule_recorded = cfg_.record_schedule;
  if (cfg_.record_schedule) result.sched_decisions = std::move(sched_trace_);
  result.root_completed =
      root_ != nullptr && root_->status == Process::Status::Done;
  for (const auto& p : processes_) {
    if (p->status != Process::Status::Blocked) continue;
    BlockedProcess info;
    info.process_id = p->id;
    const uint32_t id = innermost_behavior_id(*p);
    info.behavior = id == SpecIndex::kNone ? "<none>" : behavior_name(id);
    const Expr* cond = p->bwait != nullptr ? p->bwait->cond : p->wait_cond;
    info.waiting_on = cond != nullptr ? print(*cond) : "<join>";
    result.blocked.push_back(std::move(info));
  }
  for (size_t i = 0; i < vars_.size(); ++i) {
    result.final_vars.emplace(vars_.name_of(i), vars_.get(i));
  }
  result.observable_writes.reserve(raw_writes_.size());
  for (const RawWrite& w : raw_writes_) {
    result.observable_writes.push_back({vars_.name_of(w.var), w.value, w.time});
  }
  // Behaviors that never completed get no entry.
  for (uint32_t id = 0; id < completions_.size(); ++id) {
    if (completions_[id] != 0) {
      result.behavior_completions.emplace(behavior_name(id), completions_[id]);
    }
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
