#include "analysis/verifier.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "analysis/context.h"
#include "refine/protocol.h"
#include "support/json.h"
#include "telemetry/telemetry.h"

namespace specsyn::analysis {

namespace {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "error";
}

class Checker {
 public:
  explicit Checker(const Context& ctx) : ctx_(ctx) {}

  Report run() {
    check_protocol();
    check_deadlock();
    check_races();
    check_address_map();
    check_arbiters_and_signals();
    check_control_order();
    std::stable_sort(report_.findings.begin(), report_.findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.code < b.code;
                     });
    return std::move(report_);
  }

 private:
  void emit(const char* code, Severity sev, const Behavior* b,
            std::string msg) {
    report_.findings.push_back(
        {code, sev, b != nullptr ? ctx_.path_of(b) : std::string{},
         std::move(msg), std::string{}});
  }

  [[nodiscard]] const std::string& bus_name(uint32_t bus) const {
    return ctx_.topology().buses[bus].name;
  }

  // -- SA001..SA004: protocol conformance -----------------------------------

  void check_protocol() {
    for (const MasterFacts& mf : ctx_.masters()) {
      const bool initiates = mf.drives_start_1 || mf.drives_addr ||
                             mf.drives_rd || mf.drives_wr;
      if (initiates) {
        std::vector<const char*> missing;
        if (!mf.drives_start_1) missing.push_back("start assert");
        if (!mf.drives_start_0) missing.push_back("start deassert");
        if (!mf.waits_done) missing.push_back("wait on done");
        if (!mf.drives_addr) missing.push_back("address drive");
        if (!missing.empty()) {
          std::string what;
          for (const char* m : missing) {
            if (!what.empty()) what += ", ";
            what += m;
          }
          emit("SA001", Severity::Error, mf.behavior,
               "master transfer on bus '" + bus_name(mf.bus) +
                   "' is missing: " + what);
        }
      }
      // Arbitrated bus: a transfer must ride a req/ack acquisition.
      const auto& masters = ctx_.topology().buses[mf.bus].masters;
      if (masters.empty() || !initiates) continue;
      if (mf.req_asserted.empty()) {
        emit("SA003", Severity::Error, mf.behavior,
             "transfer on arbitrated bus '" + bus_name(mf.bus) +
                 "' without asserting any request line");
        continue;
      }
      for (const int32_t m : mf.req_asserted) {
        const std::string who =
            m >= 0 && m < static_cast<int32_t>(masters.size())
                ? masters[static_cast<size_t>(m)]
                : "?";
        if (mf.ack_waited.count(m) == 0) {
          emit("SA003", Severity::Error, mf.behavior,
               "master '" + who + "' asserts request on bus '" +
                   bus_name(mf.bus) + "' but never waits for its grant");
        }
        if (mf.req_released.count(m) == 0) {
          emit("SA003", Severity::Error, mf.behavior,
               "master '" + who + "' never releases its request on bus '" +
                   bus_name(mf.bus) + "'");
        }
      }
    }

    for (const SlavePort& sp : ctx_.slaves()) {
      if (!sp.waits_start && !sp.drives_done_1 && !sp.drives_done_0) continue;
      std::vector<const char*> missing;
      if (!sp.serve_loop) missing.push_back("recognizable serve loop");
      if (!sp.drives_done_1) missing.push_back("done assert");
      if (!sp.drives_done_0) missing.push_back("done deassert");
      if (!missing.empty()) {
        std::string what;
        for (const char* m : missing) {
          if (!what.empty()) what += ", ";
          what += m;
        }
        emit("SA002", Severity::Error, sp.behavior,
             "slave side of bus '" + bus_name(sp.bus) +
                 "' is missing: " + what);
      }
    }

    for (const auto& [stem, missing] : ctx_.topology().partial_stems) {
      std::string what;
      for (const std::string& m : missing) {
        if (!what.empty()) what += ", ";
        what += m;
      }
      emit("SA004", Severity::Warning, nullptr,
           "signals of '" + stem +
               "' look like a bus bundle but lack: " + what);
    }
  }

  // -- SA010/SA011: deadlock ------------------------------------------------

  void check_deadlock() {
    // Cycle detection over the bus hold graph (DFS, grey-set back edges).
    const auto& edges = ctx_.hold_edges();
    std::set<uint32_t> done;
    std::vector<uint32_t> stack;
    std::set<uint32_t> on_stack;
    std::set<std::set<uint32_t>> reported;

    std::function<void(uint32_t)> dfs = [&](uint32_t node) {
      stack.push_back(node);
      on_stack.insert(node);
      const auto it = edges.find(node);
      if (it != edges.end()) {
        for (const uint32_t next : it->second) {
          if (on_stack.count(next) != 0) {
            // Back edge: the cycle is the stack suffix from `next`.
            std::set<uint32_t> members;
            std::string path;
            bool in_cycle = false;
            for (const uint32_t b : stack) {
              if (b == next) in_cycle = true;
              if (!in_cycle) continue;
              members.insert(b);
              if (!path.empty()) path += " -> ";
              path += bus_name(b);
            }
            path += " -> " + bus_name(next);
            if (reported.insert(members).second) {
              emit("SA010", Severity::Error, nullptr,
                   "hold cycle across buses: " + path);
            }
            continue;
          }
          if (done.count(next) == 0) dfs(next);
        }
      }
      on_stack.erase(node);
      stack.pop_back();
      done.insert(node);
    };
    for (const auto& [node, targets] : edges) {
      (void)targets;
      if (done.count(node) == 0) dfs(node);
    }

    // Unsatisfiable waits: every referenced name is written nowhere, and the
    // condition is false over declared initial values — the wait can never
    // unblock. Any writer anywhere (or an unfoldable condition) disqualifies
    // the site, so this stays free of false positives.
    for (const WaitSite& w : ctx_.waits()) {
      std::vector<std::string> names;
      w.cond->collect_names(names);
      bool any_written = false;
      for (const std::string& n : names) {
        const auto sig = ctx_.signal_use().find(n);
        if (sig != ctx_.signal_use().end() && !sig->second.writers.empty()) {
          any_written = true;
          break;
        }
        const auto var = ctx_.var_access().find(n);
        if (var != ctx_.var_access().end()) {
          for (const VarAccess& a : var->second) {
            if (a.is_write) {
              any_written = true;
              break;
            }
          }
        }
        if (any_written) break;
      }
      if (any_written) continue;
      uint64_t value = 0;
      if (!ctx_.const_eval(*w.cond, value) || value != 0) continue;
      emit("SA011", Severity::Error, w.behavior,
           "wait condition can never become true: no statement writes any "
           "signal or variable it references");
    }
  }

  // -- SA020: races ---------------------------------------------------------

  void check_races() {
    const std::string* reported = nullptr;
    for (const Race& race : ctx_.races()) {
      if (race.var == reported) continue;  // one report per variable
      reported = race.var;
      const VarAccess& offender = race.a->bus_mediated ? *race.b : *race.a;
      const VarAccess& other = race.a->bus_mediated ? *race.a : *race.b;
      emit("SA020", Severity::Error, offender.behavior,
           "variable '" + *race.var + "' is accessed directly while '" +
               ctx_.path_of(other.behavior) + "' can concurrently " +
               (other.is_write ? "write" : "read") +
               " it; the access escaped data refinement (not bus-mediated)");
    }
  }

  // -- SA030..SA032: address map --------------------------------------------

  void check_address_map() {
    const size_t nbuses = ctx_.topology().buses.size();
    std::vector<std::vector<const SlavePort*>> by_bus(nbuses);
    for (const SlavePort& sp : ctx_.slaves()) {
      if (sp.serve_loop) by_bus[sp.bus].push_back(&sp);
    }

    // SA030: two slaves on one bus must decode disjoint windows, else both
    // answer one transaction (double done pulse, data bus contention).
    for (uint32_t bus = 0; bus < nbuses; ++bus) {
      const auto& ports = by_bus[bus];
      for (size_t i = 0; i < ports.size(); ++i) {
        for (size_t j = i + 1; j < ports.size(); ++j) {
          if (overlap(*ports[i], *ports[j])) {
            emit("SA030", Severity::Error, ports[i]->behavior,
                 "decode window on bus '" + bus_name(bus) +
                     "' overlaps the one of '" +
                     ctx_.path_of(ports[j]->behavior) + "'");
          }
        }
      }
    }

    // SA031: every statically-known master address must be decoded. SA032:
    // on buses where every master address is statically known, a decode
    // case nobody addresses is dead hardware.
    std::vector<bool> all_resolved(nbuses, true);
    std::vector<std::set<uint64_t>> addressed(nbuses);
    std::vector<bool> any_access(nbuses, false);
    for (const MasterAccess& a : ctx_.accesses()) {
      any_access[a.bus] = true;
      if (!a.resolved) {
        all_resolved[a.bus] = false;
        continue;
      }
      for (uint64_t addr = a.range.lo; addr <= a.range.hi; ++addr) {
        addressed[a.bus].insert(addr);
        const char* problem = nullptr;
        if (!find_server(by_bus[a.bus], addr, a, problem)) {
          std::ostringstream os;
          os << "address " << addr << " "
             << (a.is_read && a.is_write ? "accessed"
                 : a.is_read            ? "read"
                                        : "written")
             << " on bus '" << bus_name(a.bus) << "' " << problem;
          emit("SA031", Severity::Error, a.behavior, os.str());
        }
        if (addr == a.range.hi) break;  // guard hi == UINT64_MAX wrap
      }
    }
    for (uint32_t bus = 0; bus < nbuses; ++bus) {
      if (!any_access[bus] || !all_resolved[bus]) continue;
      for (const SlavePort* sp : by_bus[bus]) {
        std::set<uint64_t> cases;
        for (const auto& [addr, var] : sp->read_cases) {
          (void)var;
          cases.insert(addr);
        }
        for (const auto& [addr, var] : sp->write_cases) {
          (void)var;
          cases.insert(addr);
        }
        for (const uint64_t addr : cases) {
          if (addressed[bus].count(addr) == 0) {
            std::ostringstream os;
            os << "slave decodes address " << addr << " on bus '"
               << bus_name(bus) << "' but no master ever addresses it";
            emit("SA032", Severity::Warning, sp->behavior, os.str());
          }
        }
      }
    }
  }

  static bool overlap(const SlavePort& a, const SlavePort& b) {
    if (a.full_range || b.full_range) return true;
    for (const AddrRange& ra : a.match) {
      for (const AddrRange& rb : b.match) {
        if (ra.intersects(rb)) return true;
      }
    }
    return false;
  }

  /// A slave on the bus serves `addr` in the access's direction.
  static bool find_server(const std::vector<const SlavePort*>& ports,
                          uint64_t addr, const MasterAccess& a,
                          const char*& problem) {
    problem = "is decoded by no slave on the bus";
    for (const SlavePort* sp : ports) {
      if (!sp->window_covers(addr)) continue;
      if (sp->forwarder()) return true;  // whole-window forwarding interface
      const bool as_read = sp->read_cases.count(addr) != 0;
      const bool as_write = sp->write_cases.count(addr) != 0;
      if ((a.is_read && as_read) || (a.is_write && as_write)) return true;
      if (as_read || as_write) {
        problem = "matches a slave window but not in the transfer's "
                  "direction";
      } else {
        problem = "falls in a slave window but has no decode case";
      }
    }
    return false;
  }

  // -- SA040..SA043: arbiters and signal lints ------------------------------

  void check_arbiters_and_signals() {
    const BusTopology& topo = ctx_.topology();
    for (uint32_t bus = 0; bus < topo.buses.size(); ++bus) {
      const auto& masters = topo.buses[bus].masters;
      if (masters.empty()) continue;
      const std::vector<int32_t> chain = ctx_.arbiter_chain(bus);
      for (int32_t m = 0; m < static_cast<int32_t>(masters.size()); ++m) {
        const std::string ack =
            ack_signal(topo.buses[bus].name, masters[static_cast<size_t>(m)]);
        const auto use = ctx_.signal_use().find(ack);
        const bool granted =
            use != ctx_.signal_use().end() && !use->second.writers.empty();
        const bool in_chain =
            std::find(chain.begin(), chain.end(), m) != chain.end();
        if (!granted || (!chain.empty() && !in_chain)) {
          emit("SA040", Severity::Error, nullptr,
               "master '" + masters[static_cast<size_t>(m)] + "' on bus '" +
                   bus_name(bus) +
                   "' can never be granted: " +
                   (granted ? "the arbiter's priority chain never tests its "
                              "request"
                            : "nothing drives its ack line"));
        }
      }
      // Declaration order of the req/ack pairs IS the documented priority
      // order; an arbiter testing requests in any other order silently
      // reshuffles priorities behind the allocator's back.
      if (!chain.empty()) {
        std::vector<int32_t> expect;
        for (const int32_t m : chain) expect.push_back(m);
        std::sort(expect.begin(), expect.end());
        if (chain != expect) {
          std::string got;
          for (const int32_t m : chain) {
            if (!got.empty()) got += ", ";
            got += m >= 0 && m < static_cast<int32_t>(masters.size())
                       ? masters[static_cast<size_t>(m)]
                       : "?";
          }
          emit("SA041", Severity::Error, nullptr,
               "arbiter of bus '" + bus_name(bus) +
                   "' tests requests in order [" + got +
                   "], not the declared priority order");
        }
      }
    }

    // Orphan-signal lints: only signals outside every recognized structure
    // (bus bundles, arbitration pairs, control handshakes).
    std::set<std::string> structural;
    for (const std::string& stem : topo.control_pairs) {
      structural.insert(stem + bus_naming::kStart);
      structural.insert(stem + bus_naming::kDone);
    }
    for (const auto& [stem, missing] : topo.partial_stems) {
      (void)missing;
      // Partial bundles already get SA004; don't double-report members.
      for (const char* suffix :
           {bus_naming::kStart, bus_naming::kDone, bus_naming::kRd,
            bus_naming::kWr, bus_naming::kAddr, bus_naming::kData}) {
        structural.insert(stem + suffix);
      }
    }
    for (const SignalDecl* s : ctx_.spec().all_signals()) {
      if (topo.roles.count(s->name) != 0) continue;
      if (structural.count(s->name) != 0) continue;
      const auto it = ctx_.signal_use().find(s->name);
      const bool written = it != ctx_.signal_use().end() &&
                           !it->second.writers.empty();
      const bool read = it != ctx_.signal_use().end() &&
                        !it->second.readers.empty();
      if (written && !read) {
        emit("SA042", Severity::Warning, it->second.writers.front(),
             "signal '" + s->name + "' is written but never read");
      } else if (read && !written) {
        emit("SA043", Severity::Warning, it->second.readers.front(),
             "signal '" + s->name + "' is read but never written");
      } else if (!read && !written) {
        emit("SA042", Severity::Warning, nullptr,
             "signal '" + s->name + "' is declared but never used");
      }
    }
  }

  // -- SA050..SA052: control-order preservation -----------------------------

  void check_control_order() {
    const BusTopology& topo = ctx_.topology();
    for (const std::string& stem : topo.control_pairs) {
      const std::string start = stem + bus_naming::kStart;
      const std::string done = stem + bus_naming::kDone;
      const SignalUse* start_use = find_use(start);
      const SignalUse* done_use = find_use(done);

      // Stub side: whoever pulses <B>_start.
      std::vector<const Behavior*> stubs;
      if (start_use != nullptr) stubs = start_use->writers;
      if (stubs.size() != 1) {
        emit("SA051", Severity::Error,
             stubs.empty() ? nullptr : stubs.front(),
             "control start '" + start + "' is pulsed by " +
                 std::to_string(stubs.size()) +
                 " behaviors; control refinement emits exactly one stub");
      }

      // Server side: whoever waits on <B>_start or drives <B>_done,
      // normalized to the nearest <B>_NEW ancestor so the wrapper scheme's
      // WAIT/SETDONE leaves count as one server.
      std::set<const Behavior*> servers;
      if (start_use != nullptr) {
        for (const Behavior* b : start_use->waiters) {
          servers.insert(server_root(b, stem));
        }
      }
      if (done_use != nullptr) {
        for (const Behavior* b : done_use->writers) {
          servers.insert(server_root(b, stem));
        }
      }
      if (servers.size() != 1) {
        emit("SA050", Severity::Error,
             servers.empty() ? nullptr : *servers.begin(),
             "moved behavior '" + stem + "' is served by " +
                 std::to_string(servers.size()) +
                 " servers; its start/done pair must reach exactly one");
      }

      // 4-phase shape, only meaningful once both sides are unique.
      if (stubs.size() != 1 || servers.size() != 1) continue;
      const Behavior* stub = stubs.front();
      std::vector<const char*> broken;
      if (!writes_levels(start_use, stub)) {
        broken.push_back("stub must drive start to 1 and back to 0");
      }
      if (done_use == nullptr ||
          std::find(done_use->waiters.begin(), done_use->waiters.end(),
                    stub) == done_use->waiters.end()) {
        broken.push_back("stub must wait on done");
      }
      bool server_waits = false;
      if (start_use != nullptr) {
        for (const Behavior* b : start_use->waiters) {
          if (server_root(b, stem) == *servers.begin()) server_waits = true;
        }
      }
      if (!server_waits) broken.push_back("server must wait on start");
      bool server_pulses = false;
      if (done_use != nullptr) {
        for (const Behavior* b : done_use->writers) {
          if (server_root(b, stem) == *servers.begin() &&
              writes_levels(done_use, b)) {
            server_pulses = true;
          }
        }
      }
      if (!server_pulses) {
        broken.push_back("server must drive done to 1 and back to 0");
      }
      for (const char* what : broken) {
        emit("SA052", Severity::Error, stub,
             "control handshake of '" + stem +
                 "' is not a 4-phase handshake: " + what);
      }
    }
  }

  [[nodiscard]] const SignalUse* find_use(const std::string& name) const {
    const auto it = ctx_.signal_use().find(name);
    return it == ctx_.signal_use().end() ? nullptr : &it->second;
  }

  static bool writes_levels(const SignalUse* use, const Behavior* b) {
    if (use == nullptr) return false;
    const auto it = use->levels_by_writer.find(b);
    return it != use->levels_by_writer.end() && it->second.count(0) != 0 &&
           it->second.count(1) != 0;
  }

  /// Nearest ancestor named `<stem>_NEW`, else the behavior itself.
  [[nodiscard]] const Behavior* server_root(const Behavior* b,
                                            const std::string& stem) const {
    const std::string want = stem + control_naming::kServer;
    const Behavior* cur = b;
    while (cur != nullptr) {
      if (cur->name == want) return cur;
      cur = ctx_.parent_of(cur);
    }
    return b;
  }

  const Context& ctx_;
  Report report_;
};

void append_json_escaped(std::string& out, const std::string& s) {
  out += json_escape(s);
}

}  // namespace

std::string Finding::str() const {
  std::string out = code;
  out += ' ';
  out += severity_name(severity);
  if (!behavior.empty()) {
    out += " [";
    out += behavior;
    out += ']';
  }
  out += ": ";
  out += message;
  if (!witness.empty()) {
    out += "\n  witness: ";
    out += witness;
    out += "  (replay: specsyn simulate <spec> --replay-witness '";
    out += witness;
    out += "')";
  }
  return out;
}

size_t Report::count(Severity s) const {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.severity == s) ++n;
  }
  return n;
}

bool Report::has(const std::string& code) const {
  for (const Finding& f : findings) {
    if (f.code == code) return true;
  }
  return false;
}

std::string Report::json(const std::string& spec_name) const {
  std::string out = "{\n  \"schema\": \"specsyn-check-v1\",\n  \"spec\": \"";
  append_json_escaped(out, spec_name);
  out += "\",\n  \"errors\": " + std::to_string(count(Severity::Error));
  out += ",\n  \"warnings\": " + std::to_string(count(Severity::Warning));
  out += ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"code\": \"";
    append_json_escaped(out, f.code);
    out += "\", \"severity\": \"";
    out += severity_name(f.severity);
    out += "\", \"behavior\": \"";
    append_json_escaped(out, f.behavior);
    out += "\", \"message\": \"";
    append_json_escaped(out, f.message);
    out += "\", \"witness\": \"";
    append_json_escaped(out, f.witness);
    out += "\"}";
  }
  out += findings.empty() ? "]" : "\n  ]";
  if (schedules.ran) {
    out += ",\n  \"schedules\": {\"explored\": ";
    out += std::to_string(schedules.explored);
    out += ", \"pruned\": ";
    out += std::to_string(schedules.pruned);
    out += ", \"divergent\": ";
    out += std::to_string(schedules.divergent);
    out += ", \"complete\": ";
    out += schedules.complete ? "true" : "false";
    out += "}";
  }
  out += "\n}\n";
  return out;
}

Report analyze(const Context& ctx) {
  telemetry::Span span("check", telemetry::Stability::Stable);
  return Checker(ctx).run();
}

Report analyze(const Specification& spec) { return analyze(Context(spec)); }

}  // namespace specsyn::analysis
