#include "analysis/context.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "sim/value.h"

namespace specsyn::analysis {

namespace {

constexpr uint32_t kNoBus = UINT32_MAX;

void add_unique(std::vector<const Behavior*>& v, const Behavior* b) {
  if (std::find(v.begin(), v.end(), b) == v.end()) v.push_back(b);
}

/// Calls `fn` on every NameRef of `e`, pre-order, left to right.
template <typename Fn>
void for_each_name(const Expr& e, Fn&& fn) {
  if (e.kind == Expr::Kind::NameRef) fn(e.name);
  for (const ExprPtr& a : e.args) for_each_name(*a, fn);
}

/// A few name-keyed entries (call bindings, out-parameter renames, loop
/// bounds), searched linearly. Keys view names owned by the spec.
template <typename V>
class NameTable {
 public:
  [[nodiscard]] const V* find(std::string_view name) const {
    for (const auto& [n, v] : entries_) {
      if (n == name) return &v;
    }
    return nullptr;
  }
  void set(std::string_view name, V value) {
    for (auto& [n, v] : entries_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    entries_.emplace_back(name, value);
  }
  void erase(std::string_view name) {
    std::erase_if(entries_, [&](const auto& e) { return e.first == name; });
  }
  void clear() { entries_.clear(); }

 private:
  std::vector<std::pair<std::string_view, V>> entries_;
};

/// Flattens a (possibly nested) chain of `op` applications into leaves.
void flatten(const Expr& e, BinOp op, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::Binary && e.bin_op == op) {
    flatten(*e.args[0], op, out);
    flatten(*e.args[1], op, out);
    return;
  }
  out.push_back(&e);
}

/// Matches `<name> == <lit>` (either operand order); returns the NameRef.
const Expr* match_eq_lit(const Expr& e, uint64_t& lit_out) {
  if (e.kind != Expr::Kind::Binary || e.bin_op != BinOp::Eq) return nullptr;
  const Expr& l = *e.args[0];
  const Expr& r = *e.args[1];
  if (l.kind == Expr::Kind::NameRef && r.kind == Expr::Kind::IntLit) {
    lit_out = r.int_value;
    return &l;
  }
  if (r.kind == Expr::Kind::NameRef && l.kind == Expr::Kind::IntLit) {
    lit_out = l.int_value;
    return &r;
  }
  return nullptr;
}

/// Matches `<name> <op> <lit>` for a specific comparison op.
const Expr* match_cmp_lit(const Expr& e, BinOp op, uint64_t& lit_out) {
  if (e.kind != Expr::Kind::Binary || e.bin_op != op) return nullptr;
  if (e.args[0]->kind != Expr::Kind::NameRef ||
      e.args[1]->kind != Expr::Kind::IntLit) {
    return nullptr;
  }
  lit_out = e.args[1]->int_value;
  return e.args[0].get();
}

}  // namespace

bool SlavePort::window_covers(uint64_t addr) const {
  if (full_range) return true;
  for (const AddrRange& r : match) {
    if (r.contains(addr)) return true;
  }
  return false;
}

// Walker state. Copied wholesale at Call boundaries (bus holds and pending
// transfer directions carry into the callee; bindings and loop bounds are
// rebuilt for the callee's own names).
struct Context::Scope {
  const Behavior* leaf = nullptr;
  int call_depth = 0;
  /// in-param name -> caller argument expression (already caller-resolved).
  NameTable<const Expr*> bindings;
  /// out-param name -> caller target's symbol (nullptr: not declared).
  NameTable<Symbol*> renames;
  /// `while (k < N)` binds k -> N inside the body (ByteSerial beat loops).
  NameTable<uint64_t> loop_bounds;
  /// Buses currently held: req asserted, start mid-transfer, or being served.
  std::set<uint32_t> held;
  /// Per-bus direction lines currently asserted: bit0 = rd, bit1 = wr.
  std::map<uint32_t, uint8_t> pending_dir;
  /// accesses_ index of an addr drive still awaiting its rd/wr direction.
  std::map<uint32_t, size_t> open_access;
  /// Serve-loop context: bus being served and its slaves_ index.
  uint32_t serving = kNoBus;
  size_t port_idx = SIZE_MAX;
  uint8_t decode_dir = 0;  ///< inside `if rd==1` (1) / `if wr==1` (2)
  bool have_addr = false;
  AddrRange decode_addr;
  /// Req-signal if-chain observed per bus (arbiter priority recognition).
  std::map<uint32_t, std::vector<int32_t>> req_chain;
};

Context::Context(const Specification& spec)
    : index_(spec), topo_(BusTopology::discover(spec)) {
  // The first declaration of a name supplies its initial value.
  const auto declare = [this](const std::string& name,
                              uint64_t init) -> Symbol& {
    const auto [it, fresh] = symbols_.try_emplace(name);
    if (fresh) {
      it->second.name = it->first;
      it->second.init = init;
    }
    return it->second;
  };
  for (const VarDecl* v : spec.all_vars()) {
    declare(v->name, v->init).is_var = true;
  }
  for (const SignalDecl* s : spec.all_signals()) {
    Symbol& sym = declare(s->name, s->init);
    sym.is_signal = true;
    sym.role = topo_.role_of(s->name);
  }
  for (const BusTopology::BusEntry& bus : topo_.buses) {
    bus_data_.push_back(bus.name + bus_naming::kData);
  }
  walk_spec();
  find_races();
}

bool Context::concurrent(SpecIndex::Id ia, SpecIndex::Id ib) const {
  if (ia == SpecIndex::kNone || ib == SpecIndex::kNone ||
      index_.is_ancestor(ia, ib) || index_.is_ancestor(ib, ia)) {
    return false;  // unknown, the same behavior, or an ancestor
  }
  SpecIndex::Id lca = index_.parent(ia);
  while (!index_.is_ancestor(lca, ib)) lca = index_.parent(lca);
  return index_.behavior(lca).kind == BehaviorKind::Concurrent;
}

void Context::find_races() {
  std::vector<SpecIndex::Id> ids;
  std::unordered_set<uint64_t> seen;  // behavior pairs of one variable
  for (const auto& [var, accesses] : var_access_) {
    ids.clear();
    for (const VarAccess& a : accesses) ids.push_back(index_.id_of(a.behavior));
    seen.clear();
    for (size_t i = 0; i < accesses.size(); ++i) {
      for (size_t j = i + 1; j < accesses.size(); ++j) {
        const VarAccess& a = accesses[i];
        const VarAccess& b = accesses[j];
        if (!a.is_write && !b.is_write) continue;
        if (a.bus_mediated && b.bus_mediated) continue;
        if (!concurrent(ids[i], ids[j])) continue;
        if (!seen.insert(behavior_pair(ids[i], ids[j])).second) continue;
        races_.push_back({&var, &a, &b, ids[i], ids[j]});
      }
    }
  }
}

std::string Context::path_of(const Behavior* b) const {
  std::vector<const std::string*> names;  // b up to the top
  for (SpecIndex::Id id = index_.id_of(b); id != SpecIndex::kNone;
       id = index_.parent(id)) {
    names.push_back(&index_.behavior(id).name);
  }
  if (names.empty()) return b != nullptr ? b->name : std::string{};
  std::string path = *names.back();
  for (auto it = names.rbegin() + 1; it != names.rend(); ++it) {
    path += '/' + **it;
  }
  return path;
}

std::vector<int32_t> Context::arbiter_chain(uint32_t bus) const {
  const auto it = arbiter_chains_.find(bus);
  return it == arbiter_chains_.end() ? std::vector<int32_t>{} : it->second;
}

bool Context::const_eval(const Expr& e, uint64_t& out) const {
  switch (e.kind) {
    case Expr::Kind::IntLit:
      out = e.int_value;
      return true;
    case Expr::Kind::NameRef: {
      const Symbol* sym = symbol(e.name);
      if (sym == nullptr) return false;
      out = sym->init;
      return true;
    }
    case Expr::Kind::Unary: {
      uint64_t v = 0;
      if (!const_eval(*e.args[0], v)) return false;
      out = apply_unop(e.un_op, v);
      return true;
    }
    case Expr::Kind::Binary: {
      uint64_t l = 0, r = 0;
      if (!const_eval(*e.args[0], l) || !const_eval(*e.args[1], r)) {
        return false;
      }
      out = apply_binop(e.bin_op, l, r);
      return true;
    }
  }
  return false;
}

const Expr* Context::resolve(const Expr& e, const Scope& scope) const {
  const Expr* cur = &e;
  int fuel = 8;
  while (fuel-- > 0 && cur->kind == Expr::Kind::NameRef) {
    const Expr* const* bound = scope.bindings.find(cur->name);
    if (bound == nullptr) break;
    cur = *bound;
  }
  return cur;
}

Context::Symbol* Context::symbol(std::string_view name) {
  const auto it = symbols_.find(name);
  return it == symbols_.end() ? nullptr : &it->second;
}

const Context::Symbol* Context::symbol(std::string_view name) const {
  const auto it = symbols_.find(name);
  return it == symbols_.end() ? nullptr : &it->second;
}

BusTopology::SignalRole Context::role_of(std::string_view name) const {
  const Symbol* sym = symbol(name);
  return sym == nullptr ? BusTopology::SignalRole{} : sym->role;
}

SignalUse& Context::use_of(Symbol& sym) {
  if (sym.use == nullptr) sym.use = &signal_use_[std::string(sym.name)];
  return *sym.use;
}

MasterFacts& Context::master_facts(const Behavior* b, uint32_t bus) {
  const auto key = std::make_pair(b, bus);
  const auto it = master_index_.find(key);
  if (it != master_index_.end()) return masters_[it->second];
  master_index_.emplace(key, masters_.size());
  masters_.push_back({});
  masters_.back().behavior = b;
  masters_.back().bus = bus;
  return masters_.back();
}

SlavePort& Context::slave_port(const Behavior* b, uint32_t bus) {
  const auto key = std::make_pair(b, bus);
  const auto it = slave_index_.find(key);
  if (it != slave_index_.end()) return slaves_[it->second];
  slave_index_.emplace(key, slaves_.size());
  slaves_.push_back({});
  slaves_.back().behavior = b;
  slaves_.back().bus = bus;
  return slaves_.back();
}

void Context::hold_acquire(uint32_t bus, Scope& scope) {
  for (const uint32_t held : scope.held) {
    if (held != bus) hold_edges_[held].insert(bus);
  }
  scope.held.insert(bus);
}

void Context::close_open_accesses(Scope& scope) {
  for (const auto& [bus, idx] : scope.open_access) {
    (void)bus;
    MasterAccess& a = accesses_[idx];
    if (!a.is_read && !a.is_write) {
      a.is_read = true;
      a.is_write = true;
    }
  }
  scope.open_access.clear();
}

void Context::record_var_access(std::string_view name, Symbol* sym,
                                bool is_write, Scope& scope) {
  if (Symbol* const* renamed = scope.renames.find(name)) sym = *renamed;
  if (sym == nullptr || !sym->is_var) return;  // proc local / param
  if (sym->accesses == nullptr) {
    sym->accesses = &var_access_[std::string(sym->name)];
  }
  sym->accesses->push_back({scope.leaf, is_write, scope.serving != kNoBus});
}

void Context::note_signal_write(Symbol* sym, const Behavior* b,
                                const Expr* value, Scope& scope) {
  if (sym == nullptr || !sym->is_signal) return;
  SignalUse& use = use_of(*sym);
  add_unique(use.writers, b);
  const Expr* v = value != nullptr ? resolve(*value, scope) : nullptr;
  if (v != nullptr && v->kind == Expr::Kind::IntLit) {
    use.literal_levels.insert(v->int_value);
    use.levels_by_writer[b].insert(v->int_value);
  }
}

void Context::note_expr_reads(const Expr& e, Scope& scope) {
  for_each_name(e, [&](const std::string& n) {
    Symbol* sym = symbol(n);
    if (sym != nullptr && sym->is_signal) {
      add_unique(use_of(*sym).readers, scope.leaf);
    } else {
      record_var_access(n, sym, /*is_write=*/false, scope);
    }
  });
}

size_t Context::try_serve_loop(const Stmt& loop, Scope& scope) {
  if (loop.then_block.empty()) return SIZE_MAX;
  const Stmt& first = *loop.then_block.front();
  if (first.kind != Stmt::Kind::Wait || !first.expr) return SIZE_MAX;

  std::vector<const Expr*> conjuncts;
  flatten(*resolve(*first.expr, scope), BinOp::LogicalAnd, conjuncts);

  uint32_t bus = kNoBus;
  std::vector<AddrRange> match;
  std::vector<uint64_t> lone_lo, lone_hi;
  for (const Expr* c : conjuncts) {
    uint64_t v = 0;
    if (const Expr* n = match_eq_lit(*c, v)) {
      const BusTopology::SignalRole role = role_of(n->name);
      if (role.role == BusSignalRole::Start && v == 1) {
        if (bus != kNoBus && bus != role.bus) return SIZE_MAX;
        bus = role.bus;
        continue;
      }
      if (role.role == BusSignalRole::Addr) {
        match.push_back({v, v});
        continue;
      }
      return SIZE_MAX;
    }
    if (const Expr* n = match_cmp_lit(*c, BinOp::Ge, v)) {
      if (role_of(n->name).role != BusSignalRole::Addr) return SIZE_MAX;
      lone_lo.push_back(v);
      continue;
    }
    if (const Expr* n = match_cmp_lit(*c, BinOp::Le, v)) {
      if (role_of(n->name).role != BusSignalRole::Addr) return SIZE_MAX;
      lone_hi.push_back(v);
      continue;
    }
    // An OR of point / range matches (the memory server's multi-var guard).
    std::vector<const Expr*> terms;
    flatten(*c, BinOp::LogicalOr, terms);
    if (terms.size() < 2) return SIZE_MAX;
    for (const Expr* t : terms) {
      if (const Expr* n = match_eq_lit(*t, v)) {
        if (role_of(n->name).role != BusSignalRole::Addr) {
          return SIZE_MAX;
        }
        match.push_back({v, v});
        continue;
      }
      std::vector<const Expr*> pair;
      flatten(*t, BinOp::LogicalAnd, pair);
      if (pair.size() != 2) return SIZE_MAX;
      uint64_t lo = 0, hi = 0;
      const Expr* nl = match_cmp_lit(*pair[0], BinOp::Ge, lo);
      const Expr* nh = match_cmp_lit(*pair[1], BinOp::Le, hi);
      if (nl == nullptr || nh == nullptr ||
          role_of(nl->name).role != BusSignalRole::Addr ||
          role_of(nh->name).role != BusSignalRole::Addr) {
        return SIZE_MAX;
      }
      match.push_back({lo, hi});
    }
  }
  if (bus == kNoBus) return SIZE_MAX;
  if (lone_lo.size() != lone_hi.size()) return SIZE_MAX;
  for (size_t i = 0; i < lone_lo.size(); ++i) {
    match.push_back({lone_lo[i], lone_hi[i]});
  }

  SlavePort& port = slave_port(scope.leaf, bus);
  port.serve_loop = true;
  port.waits_start = true;
  port.full_range = match.empty();
  port.match = std::move(match);
  return slave_index_.at(std::make_pair(scope.leaf, bus));
}

void Context::walk_spec() {
  for (SpecIndex::Id id = 0; id < index_.size(); ++id) {
    const Behavior* b = &index_.behavior(id);
    Scope scope;
    scope.leaf = b;
    if (b->is_leaf()) {
      walk_block(b->body, scope);
      close_open_accesses(scope);
      // A leaf that branches on req lines and drives acks is the bus's
      // arbiter; its observed if-chain is the priority order.
      for (auto& [bus, chain] : scope.req_chain) {
        arbiter_chains_.emplace(bus, std::move(chain));
      }
    }
    for (const Transition& t : b->transitions) {
      if (t.guard) note_expr_reads(*t.guard, scope);
    }
  }
}

void Context::walk_block(const StmtList& stmts, Scope& scope) {
  for (const StmtPtr& s : stmts) {
    if (s) walk_stmt(*s, scope);
  }
}

void Context::walk_stmt(const Stmt& s, Scope& scope) {
  switch (s.kind) {
    case Stmt::Kind::Assign: {
      if (s.expr) note_expr_reads(*s.expr, scope);
      Symbol* target = symbol(s.target);
      record_var_access(s.target, target, /*is_write=*/true, scope);
      // Slave write-case decode: `var := f(<bus>_data)` under an addr case
      // inside the `if wr == 1` branch.
      if (scope.serving != kNoBus && scope.decode_dir == 2 &&
          scope.have_addr && scope.port_idx != SIZE_MAX &&
          target != nullptr && target->is_var && s.expr) {
        if (s.expr->references(bus_data_[scope.serving])) {
          SlavePort& port = slaves_[scope.port_idx];
          for (uint64_t a = scope.decode_addr.lo; a <= scope.decode_addr.hi;
               ++a) {
            port.write_cases[a] = s.target;
          }
        }
      }
      return;
    }
    case Stmt::Kind::SignalAssign: {
      if (s.expr) note_expr_reads(*s.expr, scope);
      Symbol* target = symbol(s.target);
      note_signal_write(target, scope.leaf, s.expr.get(), scope);
      const BusTopology::SignalRole role =
          target != nullptr ? target->role : BusTopology::SignalRole{};
      const Expr* v = s.expr ? resolve(*s.expr, scope) : nullptr;
      const bool lit = v != nullptr && v->kind == Expr::Kind::IntLit;
      const uint64_t level = lit ? v->int_value : 0;
      switch (role.role) {
        case BusSignalRole::Start: {
          MasterFacts& mf = master_facts(scope.leaf, role.bus);
          if (lit && level == 1) {
            mf.drives_start_1 = true;
            hold_acquire(role.bus, scope);
            // The transfer is launched: a still-undirected addr drive stays
            // that way (counts as both read and write).
            const auto open = scope.open_access.find(role.bus);
            if (open != scope.open_access.end()) {
              MasterAccess& a = accesses_[open->second];
              if (!a.is_read && !a.is_write) {
                a.is_read = true;
                a.is_write = true;
              }
              scope.open_access.erase(open);
            }
          } else if (lit && level == 0) {
            mf.drives_start_0 = true;
            scope.held.erase(role.bus);
          }
          return;
        }
        case BusSignalRole::Done: {
          SlavePort& sp = slave_port(scope.leaf, role.bus);
          if (lit && level == 1) sp.drives_done_1 = true;
          if (lit && level == 0) sp.drives_done_0 = true;
          return;
        }
        case BusSignalRole::Rd:
        case BusSignalRole::Wr: {
          MasterFacts& mf = master_facts(scope.leaf, role.bus);
          const uint8_t bit = role.role == BusSignalRole::Rd ? 1 : 2;
          if (role.role == BusSignalRole::Rd) mf.drives_rd = true;
          else mf.drives_wr = true;
          if (lit && level == 1) {
            scope.pending_dir[role.bus] |= bit;
            const auto open = scope.open_access.find(role.bus);
            if (open != scope.open_access.end()) {
              MasterAccess& a = accesses_[open->second];
              if (bit == 1) a.is_read = true;
              else a.is_write = true;
              scope.open_access.erase(open);
            }
          } else if (lit && level == 0) {
            scope.pending_dir[role.bus] &= static_cast<uint8_t>(~bit);
          }
          return;
        }
        case BusSignalRole::Addr: {
          MasterFacts& mf = master_facts(scope.leaf, role.bus);
          mf.drives_addr = true;
          MasterAccess access;
          access.behavior = scope.leaf;
          access.bus = role.bus;
          if (lit) {
            access.resolved = true;
            access.range = {level, level};
          } else if (v != nullptr && v->kind == Expr::Kind::Binary &&
                     v->bin_op == BinOp::Add) {
            // ByteSerial beat address: base + k with k's trip count known
            // from the enclosing `while (k < beats)`.
            const Expr* l = resolve(*v->args[0], scope);
            const Expr* r = resolve(*v->args[1], scope);
            if (l->kind != Expr::Kind::IntLit) std::swap(l, r);
            if (l->kind == Expr::Kind::IntLit &&
                r->kind == Expr::Kind::NameRef) {
              const uint64_t* bound = scope.loop_bounds.find(r->name);
              if (bound != nullptr && *bound > 0) {
                access.resolved = true;
                access.range = {l->int_value, l->int_value + *bound - 1};
              }
            }
          }
          const uint8_t dir = scope.pending_dir[role.bus];
          access.is_read = (dir & 1) != 0;
          access.is_write = (dir & 2) != 0;
          accesses_.push_back(access);
          if (dir == 0) scope.open_access[role.bus] = accesses_.size() - 1;
          return;
        }
        case BusSignalRole::Data: {
          // Slave read-case decode: `<bus>_data <= f(var)` under an addr
          // case inside the `if rd == 1` branch.
          if (scope.serving == role.bus && scope.decode_dir == 1 &&
              scope.have_addr && scope.port_idx != SIZE_MAX && s.expr) {
            const Symbol* served = nullptr;
            bool unique = true;
            for_each_name(*s.expr, [&](const std::string& n) {
              const Symbol* sym = symbol(n);
              if (sym == nullptr || !sym->is_var) return;
              if (served != nullptr && served != sym) unique = false;
              served = sym;
            });
            if (unique && served != nullptr) {
              SlavePort& port = slaves_[scope.port_idx];
              for (uint64_t a = scope.decode_addr.lo;
                   a <= scope.decode_addr.hi; ++a) {
                port.read_cases[a] = served->name;
              }
            }
          }
          return;
        }
        case BusSignalRole::Req: {
          MasterFacts& mf = master_facts(scope.leaf, role.bus);
          if (lit && level == 1) {
            mf.req_asserted.insert(role.master);
            hold_acquire(role.bus, scope);
          } else if (lit && level == 0) {
            mf.req_released.insert(role.master);
            scope.held.erase(role.bus);
          }
          return;
        }
        case BusSignalRole::Ack:
        case BusSignalRole::None:
          return;
      }
      return;
    }
    case Stmt::Kind::If: {
      if (s.expr) note_expr_reads(*s.expr, scope);
      const Expr* cond = s.expr ? resolve(*s.expr, scope) : nullptr;
      uint64_t v = 0;
      const Expr* n = cond != nullptr ? match_eq_lit(*cond, v) : nullptr;
      if (n != nullptr) {
        const BusTopology::SignalRole role = role_of(n->name);
        if (role.role == BusSignalRole::Req && v == 1) {
          scope.req_chain[role.bus].push_back(role.master);
        } else if (scope.serving == role.bus && v == 1 &&
                   (role.role == BusSignalRole::Rd ||
                    role.role == BusSignalRole::Wr)) {
          const uint8_t saved = scope.decode_dir;
          scope.decode_dir = role.role == BusSignalRole::Rd ? 1 : 2;
          walk_block(s.then_block, scope);
          scope.decode_dir = saved;
          walk_block(s.else_block, scope);
          return;
        } else if (scope.serving == role.bus &&
                   role.role == BusSignalRole::Addr) {
          const bool saved_have = scope.have_addr;
          const AddrRange saved_addr = scope.decode_addr;
          scope.have_addr = true;
          scope.decode_addr = {v, v};
          walk_block(s.then_block, scope);
          scope.have_addr = saved_have;
          scope.decode_addr = saved_addr;
          walk_block(s.else_block, scope);
          return;
        }
      }
      // ByteSerial serve decode: `if addr == base + k` with k loop-bound.
      if (scope.serving != kNoBus && cond != nullptr &&
          cond->kind == Expr::Kind::Binary && cond->bin_op == BinOp::Eq) {
        const Expr* lhs = resolve(*cond->args[0], scope);
        const Expr* rhs = resolve(*cond->args[1], scope);
        if (rhs->kind == Expr::Kind::NameRef &&
            role_of(rhs->name).role == BusSignalRole::Addr) {
          std::swap(lhs, rhs);
        }
        const BusTopology::SignalRole lrole =
            lhs->kind == Expr::Kind::NameRef ? role_of(lhs->name)
                                             : BusTopology::SignalRole{};
        if (lrole.role == BusSignalRole::Addr && lrole.bus == scope.serving &&
            rhs->kind == Expr::Kind::Binary && rhs->bin_op == BinOp::Add) {
          const Expr* base = resolve(*rhs->args[0], scope);
          const Expr* idx = resolve(*rhs->args[1], scope);
          if (base->kind != Expr::Kind::IntLit) std::swap(base, idx);
          if (base->kind == Expr::Kind::IntLit &&
              idx->kind == Expr::Kind::NameRef) {
            const uint64_t* bound = scope.loop_bounds.find(idx->name);
            if (bound != nullptr && *bound > 0) {
              const bool saved_have = scope.have_addr;
              const AddrRange saved_addr = scope.decode_addr;
              scope.have_addr = true;
              scope.decode_addr = {base->int_value,
                                   base->int_value + *bound - 1};
              walk_block(s.then_block, scope);
              scope.have_addr = saved_have;
              scope.decode_addr = saved_addr;
              walk_block(s.else_block, scope);
              return;
            }
          }
        }
      }
      walk_block(s.then_block, scope);
      walk_block(s.else_block, scope);
      return;
    }
    case Stmt::Kind::While: {
      if (s.expr) note_expr_reads(*s.expr, scope);
      const Expr* cond = s.expr ? resolve(*s.expr, scope) : nullptr;
      const std::string* bound_name = nullptr;
      std::optional<uint64_t> saved_bound;
      if (cond != nullptr && cond->kind == Expr::Kind::Binary &&
          cond->bin_op == BinOp::Lt &&
          cond->args[0]->kind == Expr::Kind::NameRef) {
        const Expr* limit = resolve(*cond->args[1], scope);
        if (limit->kind == Expr::Kind::IntLit) {
          bound_name = &cond->args[0]->name;
          if (const uint64_t* old = scope.loop_bounds.find(*bound_name)) {
            saved_bound = *old;
          }
          scope.loop_bounds.set(*bound_name, limit->int_value);
        }
      }
      walk_block(s.then_block, scope);
      if (bound_name != nullptr) {
        if (saved_bound) scope.loop_bounds.set(*bound_name, *saved_bound);
        else scope.loop_bounds.erase(*bound_name);
      }
      return;
    }
    case Stmt::Kind::Loop: {
      const size_t port_idx = try_serve_loop(s, scope);
      if (port_idx != SIZE_MAX) {
        const uint32_t bus = slaves_[port_idx].bus;
        const uint32_t saved_serving = scope.serving;
        const size_t saved_port = scope.port_idx;
        const bool was_held = scope.held.count(bus) != 0;
        scope.serving = bus;
        scope.port_idx = port_idx;
        scope.held.insert(bus);
        walk_block(s.then_block, scope);
        scope.serving = saved_serving;
        scope.port_idx = saved_port;
        if (!was_held) scope.held.erase(bus);
        return;
      }
      walk_block(s.then_block, scope);
      return;
    }
    case Stmt::Kind::Wait: {
      if (!s.expr) return;
      waits_.push_back({scope.leaf, s.expr.get()});
      for_each_name(*s.expr, [&](const std::string& n) {
        Symbol* sym = symbol(n);
        if (sym != nullptr && sym->is_signal) {
          SignalUse& use = use_of(*sym);
          add_unique(use.readers, scope.leaf);
          add_unique(use.waiters, scope.leaf);
        } else {
          record_var_access(n, sym, /*is_write=*/false, scope);
        }
        if (sym == nullptr) return;
        const BusTopology::SignalRole& role = sym->role;
        switch (role.role) {
          case BusSignalRole::Done:
            master_facts(scope.leaf, role.bus).waits_done = true;
            break;
          case BusSignalRole::Start:
            slave_port(scope.leaf, role.bus).waits_start = true;
            break;
          case BusSignalRole::Ack:
            master_facts(scope.leaf, role.bus).ack_waited.insert(role.master);
            break;
          default:
            break;
        }
      });
      return;
    }
    case Stmt::Kind::Call: {
      for (const ExprPtr& a : s.args) {
        if (a) note_expr_reads(*a, scope);
      }
      const Procedure* proc = spec().find_procedure(s.callee);
      if (proc == nullptr || scope.call_depth >= 8) return;
      Scope inner = scope;
      inner.call_depth = scope.call_depth + 1;
      inner.bindings.clear();
      inner.renames.clear();
      inner.loop_bounds.clear();
      for (size_t i = 0; i < proc->params.size() && i < s.args.size(); ++i) {
        const Param& p = proc->params[i];
        if (!s.args[i]) continue;
        if (p.is_out) {
          if (s.args[i]->kind == Expr::Kind::NameRef) {
            const std::string& arg = s.args[i]->name;
            Symbol* const* renamed = scope.renames.find(arg);
            inner.renames.set(p.name,
                              renamed != nullptr ? *renamed : symbol(arg));
          }
        } else {
          inner.bindings.set(p.name, resolve(*s.args[i], scope));
        }
      }
      walk_block(proc->body, inner);
      close_open_accesses(inner);
      return;
    }
    case Stmt::Kind::Delay:
    case Stmt::Kind::Break:
    case Stmt::Kind::Nop:
      return;
  }
}

}  // namespace specsyn::analysis
