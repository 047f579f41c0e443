#include "obs/bus_trace.h"

#include <algorithm>

#include "refine/protocol.h"
#include "sim/program.h"

namespace specsyn {

uint64_t latency_bucket_bound(size_t bucket) {
  return bucket + 1 < kLatencyBuckets ? uint64_t{1} << bucket : UINT64_MAX;
}

uint64_t BusTracer::Bus::contention_cycles() const {
  uint64_t total = 0;
  for (const Master& m : masters) total += m.wait_cycles;
  return total;
}

double BusTracer::Bus::utilization_pct(uint64_t end_time) const {
  if (end_time == 0) return 0.0;
  return 100.0 * static_cast<double>(busy_cycles) /
         static_cast<double>(end_time);
}

BusTracer::BusTracer(const Specification& spec) {
  discover_buses(spec);
  scan_address_map(spec);
}

void BusTracer::discover_buses(const Specification& spec) {
  // Bus/master discovery follows the shared bus_naming contract decoder; the
  // tracer only keeps the roles its runtime edge-following consumes (Wr and
  // Data levels are irrelevant to transaction decoding).
  const BusTopology topo = BusTopology::discover(spec);
  for (const BusTopology::BusEntry& bus : topo.buses) {
    bus_index_.emplace(bus.name, buses_.size());
    buses_.push_back({bus.name, {}, 0, 0, 0, 0, {}});
    for (const std::string& m : bus.masters) {
      buses_.back().masters.push_back({m, 0, 0, 0, 0});
    }
  }
  for (const auto& [name, role] : topo.roles) {
    switch (role.role) {
      case BusSignalRole::Start:
        name_roles_[name] = {Role::Start, role.bus, -1};
        break;
      case BusSignalRole::Done:
        name_roles_[name] = {Role::Done, role.bus, -1};
        break;
      case BusSignalRole::Rd:
        name_roles_[name] = {Role::Rd, role.bus, -1};
        break;
      case BusSignalRole::Addr:
        name_roles_[name] = {Role::Addr, role.bus, -1};
        break;
      case BusSignalRole::Req:
        name_roles_[name] = {Role::Req, role.bus, role.master};
        break;
      case BusSignalRole::Ack:
        name_roles_[name] = {Role::Ack, role.bus, role.master};
        break;
      case BusSignalRole::None:
      case BusSignalRole::Wr:
      case BusSignalRole::Data:
        break;
    }
  }

  rt_.resize(buses_.size());
  for (size_t i = 0; i < buses_.size(); ++i) {
    rt_[i].masters.resize(buses_[i].masters.size());
  }
}

void BusTracer::scan_address_map(const Specification& spec) {
  if (spec.top) {
    spec.top->for_each([&](const Behavior& b) {
      if (b.is_leaf()) scan_stmts(b.body, spec);
    });
  }
  for (const Procedure& p : spec.procedures) scan_stmts(p.body, spec);
}

void BusTracer::scan_stmts(const StmtList& stmts, const Specification& spec) {
  for (const StmtPtr& s : stmts) {
    if (s->kind == Stmt::Kind::If && s->expr != nullptr &&
        s->expr->kind == Expr::Kind::Binary &&
        s->expr->bin_op == BinOp::Eq &&
        s->expr->args[0]->kind == Expr::Kind::NameRef &&
        s->expr->args[1]->kind == Expr::Kind::IntLit) {
      const auto role = name_roles_.find(s->expr->args[0]->name);
      if (role != name_roles_.end() && role->second.role == Role::Addr) {
        const uint64_t addr = s->expr->args[1]->int_value;
        // The guarded block is a slave port: the stored variable is either
        // assigned (write port) or drives the data bus (read port).
        for (const StmtPtr& inner : s->then_block) {
          if (inner->kind == Stmt::Kind::Assign &&
              spec.find_var(inner->target) != nullptr) {
            addr_to_var_.emplace(addr, inner->target);
            break;
          }
          if (inner->kind == Stmt::Kind::SignalAssign &&
              inner->expr != nullptr) {
            std::vector<std::string> refs;
            inner->expr->collect_names(refs);
            const auto var = std::find_if(
                refs.begin(), refs.end(), [&](const std::string& n) {
                  return spec.find_var(n) != nullptr;
                });
            if (var != refs.end()) {
              addr_to_var_.emplace(addr, *var);
              break;
            }
          }
        }
      }
    }
    if (!s->then_block.empty()) scan_stmts(s->then_block, spec);
    if (!s->else_block.empty()) scan_stmts(s->else_block, spec);
  }
}

void BusTracer::on_bind(const Binding& b) {
  // Copy the interned behavior names out of the binding: the tracer is
  // routinely consulted after the Simulator (which owns them) is gone.
  behavior_names_ = *b.behavior_names;
  slot_roles_.assign(b.signals->size(), SlotRole{});
  for (const auto& [name, role] : name_roles_) {
    const size_t slot = b.signals->find(name);
    if (slot != SIZE_MAX) slot_roles_[slot] = role;
  }
  // Seed the tracked level/value state from the initial signal values.
  for (size_t slot = 0; slot < slot_roles_.size(); ++slot) {
    const SlotRole& r = slot_roles_[slot];
    if (r.role == Role::Addr) rt_[r.bus].addr_val = b.signals->get(slot);
    if (r.role == Role::Rd) rt_[r.bus].rd_val = b.signals->get(slot) != 0;
  }
}

void BusTracer::on_signal_schedule(uint32_t slot, uint32_t behavior,
                                   uint64_t /*time*/, uint64_t value) {
  const SlotRole& r = slot_roles_[slot];
  if (value == 0) return;
  if (r.role == Role::Start) {
    rt_[r.bus].last_start_behavior = behavior;
  } else if (r.role == Role::Req) {
    rt_[r.bus].masters[r.master].last_req_behavior = behavior;
  }
}

void BusTracer::on_signal_commit(uint32_t slot, uint64_t time,
                                 uint64_t value) {
  const SlotRole& r = slot_roles_[slot];
  switch (r.role) {
    case Role::None:
    case Role::Wr:
    case Role::Data:
      break;
    case Role::Addr:
      rt_[r.bus].addr_val = value;
      break;
    case Role::Rd:
      rt_[r.bus].rd_val = value != 0;
      break;
    case Role::Start:
      if (value != 0) start_rise(r.bus, time);
      break;
    case Role::Done:
      done_edge(r.bus, time, value != 0);
      break;
    case Role::Req:
      req_edge(r.bus, r.master, time, value != 0);
      break;
    case Role::Ack:
      ack_edge(r.bus, r.master, time, value != 0);
      break;
  }
}

void BusTracer::start_rise(uint32_t bus, uint64_t time) {
  Bus& b = buses_[bus];
  BusState& s = rt_[bus];
  s.in_transfer = true;
  s.transfer_start = time;
  ++b.transfers;
  if (s.rd_val) {
    ++b.reads;
  } else {
    ++b.writes;
  }
  s.busy_samples.emplace_back(time, 1);

  int64_t txn = -1;
  if (b.masters.empty()) {
    // Unarbitrated: one handshake == one transaction.
    BusTransaction tx;
    tx.bus = bus;
    tx.master = -1;
    tx.master_behavior = s.last_start_behavior;
    tx.request_time = time;
    tx.grant_time = time;
    transactions_.push_back(tx);
    txn = static_cast<int64_t>(transactions_.size()) - 1;
    s.open_txn = txn;
  } else if (s.active_master >= 0) {
    txn = s.masters[s.active_master].open_txn;
  }
  if (txn >= 0) {
    BusTransaction& tx = transactions_[static_cast<size_t>(txn)];
    ++tx.beats;
    if (!tx.has_addr) {
      tx.has_addr = true;
      tx.addr = s.addr_val;
      tx.is_read = s.rd_val;
    }
  }
}

void BusTracer::done_edge(uint32_t bus, uint64_t time, bool rising) {
  Bus& b = buses_[bus];
  BusState& s = rt_[bus];
  if (!s.in_transfer) return;
  if (rising) {
    const uint64_t latency = time - s.transfer_start;
    size_t bucket = 0;
    while (latency > latency_bucket_bound(bucket)) ++bucket;
    ++b.latency_hist[bucket];
    return;
  }
  // Done fall closes the handshake window.
  const uint64_t window = time - s.transfer_start;
  b.busy_cycles += window;
  s.in_transfer = false;
  s.busy_samples.emplace_back(time, 0);
  int64_t txn =
      s.active_master >= 0 ? s.masters[s.active_master].open_txn : s.open_txn;
  if (txn >= 0) {
    BusTransaction& tx = transactions_[static_cast<size_t>(txn)];
    tx.transfer_cycles += window;
    if (b.masters.empty()) {
      tx.end_time = time;
      tx.complete = true;
      s.open_txn = -1;
    }
  }
}

void BusTracer::req_edge(uint32_t bus, int32_t master, uint64_t time,
                         bool rising) {
  BusState& s = rt_[bus];
  MasterState& ms = s.masters[static_cast<size_t>(master)];
  Master& m = buses_[bus].masters[static_cast<size_t>(master)];
  if (rising) {
    ms.waiting = true;
    ms.waiting_since = time;
    ++s.waiting_count;
    s.waiting_samples.emplace_back(time, s.waiting_count);
    BusTransaction tx;
    tx.bus = bus;
    tx.master = master;
    tx.master_behavior = ms.last_req_behavior;
    tx.request_time = time;
    transactions_.push_back(tx);
    ms.open_txn = static_cast<int64_t>(transactions_.size()) - 1;
    return;
  }
  if (ms.waiting) {
    // Withdrawn before a grant (not produced by the generated protocols,
    // but keep the books consistent).
    ms.waiting = false;
    m.wait_cycles += time - ms.waiting_since;
    --s.waiting_count;
    s.waiting_samples.emplace_back(time, s.waiting_count);
  }
  ms.granted = false;
  if (s.active_master == master) s.active_master = -1;
  if (ms.open_txn >= 0) {
    BusTransaction& tx = transactions_[static_cast<size_t>(ms.open_txn)];
    tx.end_time = time;
    tx.complete = true;
    ms.open_txn = -1;
  }
}

void BusTracer::ack_edge(uint32_t bus, int32_t master, uint64_t time,
                         bool rising) {
  BusState& s = rt_[bus];
  MasterState& ms = s.masters[static_cast<size_t>(master)];
  Master& m = buses_[bus].masters[static_cast<size_t>(master)];
  if (!rising) {
    if (s.active_master == master) s.active_master = -1;
    return;
  }
  ms.granted = true;
  s.active_master = master;
  ++m.grants;
  if (ms.waiting) {
    const uint64_t latency = time - ms.waiting_since;
    m.wait_cycles += latency;
    m.grant_latency_sum += latency;
    m.grant_latency_max = std::max(m.grant_latency_max, latency);
    ms.waiting = false;
    --s.waiting_count;
    s.waiting_samples.emplace_back(time, s.waiting_count);
  }
  if (ms.open_txn >= 0) {
    transactions_[static_cast<size_t>(ms.open_txn)].grant_time = time;
  }
}

void BusTracer::on_run_end(uint64_t end_time) {
  end_time_ = end_time;
  for (size_t i = 0; i < buses_.size(); ++i) {
    Bus& b = buses_[i];
    BusState& s = rt_[i];
    if (s.in_transfer) {
      b.busy_cycles += end_time - s.transfer_start;
      s.in_transfer = false;
    }
    for (size_t mi = 0; mi < s.masters.size(); ++mi) {
      MasterState& ms = s.masters[mi];
      if (ms.waiting) {
        // Still blocked at the end (e.g. a deadlocked or starved master):
        // the whole tail counts as contention.
        b.masters[mi].wait_cycles += end_time - ms.waiting_since;
        ms.waiting = false;
      }
      if (ms.open_txn >= 0) {
        transactions_[static_cast<size_t>(ms.open_txn)].end_time = end_time;
      }
    }
    if (s.open_txn >= 0) {
      transactions_[static_cast<size_t>(s.open_txn)].end_time = end_time;
    }
  }
}

size_t BusTracer::find_bus(const std::string& name) const {
  const auto it = bus_index_.find(name);
  return it == bus_index_.end() ? SIZE_MAX : it->second;
}

const std::string& BusTracer::var_at(uint64_t addr) const {
  static const std::string kEmpty;
  const auto it = addr_to_var_.find(addr);
  return it == addr_to_var_.end() ? kEmpty : it->second;
}

std::string BusTracer::behavior_name(uint32_t id) const {
  if (id >= behavior_names_.size()) return {};
  return behavior_names_[id];
}

}  // namespace specsyn
