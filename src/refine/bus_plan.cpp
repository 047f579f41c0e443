#include "refine/bus_plan.h"

#include <algorithm>
#include <set>

namespace specsyn {

const char* to_string(BusRole r) {
  switch (r) {
    case BusRole::SharedGlobal: return "shared-global";
    case BusRole::Local: return "local";
    case BusRole::Dedicated: return "dedicated";
    case BusRole::Request: return "request";
    case BusRole::Inter: return "inter";
  }
  return "?";
}

namespace {

std::string comp_name(const Partition& part, size_t c) {
  return part.allocation().components[c].name;
}

}  // namespace

BusPlan BusPlan::build(const Partition& part, const AccessGraph& graph,
                       ImplModel model, size_t max_memory_ports) {
  BusPlan plan;
  plan.model_ = model;
  const size_t p = part.allocation().size();

  // Variable ownership and locality.
  const std::vector<VarPlacement> placements = part.classify_vars(graph);
  for (const VarPlacement& vp : placements) {
    plan.var_owner_[vp.var] = vp.component;
    plan.var_global_[vp.var] = vp.is_global;
  }

  // Which components access globals stored on which component (Model3 ports,
  // Model4 interface needs).
  // cross_access[q] = set of components with >=1 access to a global var of q.
  std::vector<std::set<size_t>> global_accessors(p);
  std::vector<std::set<size_t>> remote_accessors(p);  // accessor != owner
  for (const VarPlacement& vp : placements) {
    if (!vp.is_global) continue;
    for (size_t c : vp.accessor_components) {
      global_accessors[vp.component].insert(c);
      if (c != vp.component) remote_accessors[vp.component].insert(c);
    }
  }

  auto vars_of = [&](size_t q, bool want_global,
                     bool any_class) -> std::vector<std::string> {
    std::vector<std::string> out;
    for (const VarPlacement& vp : placements) {
      if (vp.component != q) continue;
      if (any_class || vp.is_global == want_global) out.push_back(vp.var);
    }
    return out;
  };

  auto add_module = [&](MemoryModule m) {
    for (const std::string& v : m.vars) plan.var_module_[v] = m.name;
    plan.memories_.push_back(std::move(m));
  };

  switch (model) {
    case ImplModel::Model1: {
      plan.buses_.push_back({"gbus", BusRole::SharedGlobal});
      for (size_t q = 0; q < p; ++q) {
        auto vars = vars_of(q, false, /*any_class=*/true);
        if (vars.empty()) continue;
        MemoryModule m;
        m.name = "GMEM_" + comp_name(part, q);
        m.component = q;
        m.global = true;
        m.vars = std::move(vars);
        m.port_buses = {{"gbus", SIZE_MAX}};
        add_module(std::move(m));
      }
      break;
    }

    case ImplModel::Model2: {
      bool any_global = false;
      for (size_t q = 0; q < p; ++q) {
        auto locals = vars_of(q, /*want_global=*/false, false);
        if (!locals.empty()) {
          const std::string bus = "lbus_" + comp_name(part, q);
          plan.buses_.push_back({bus, BusRole::Local, q});
          MemoryModule m;
          m.name = "LMEM_" + comp_name(part, q);
          m.component = q;
          m.vars = std::move(locals);
          m.port_buses = {{bus, q}};
          add_module(std::move(m));
        }
        if (!vars_of(q, /*want_global=*/true, false).empty()) any_global = true;
      }
      if (any_global) {
        plan.buses_.push_back({"gbus", BusRole::SharedGlobal});
        for (size_t q = 0; q < p; ++q) {
          auto globals = vars_of(q, true, false);
          if (globals.empty()) continue;
          MemoryModule m;
          m.name = "GMEM_" + comp_name(part, q);
          m.component = q;
          m.global = true;
          m.vars = std::move(globals);
          m.port_buses = {{"gbus", SIZE_MAX}};
          add_module(std::move(m));
        }
      }
      break;
    }

    case ImplModel::Model3: {
      for (size_t q = 0; q < p; ++q) {
        auto locals = vars_of(q, false, false);
        if (!locals.empty()) {
          const std::string bus = "lbus_" + comp_name(part, q);
          plan.buses_.push_back({bus, BusRole::Local, q});
          MemoryModule m;
          m.name = "LMEM_" + comp_name(part, q);
          m.component = q;
          m.vars = std::move(locals);
          m.port_buses = {{bus, q}};
          add_module(std::move(m));
        }
      }
      for (size_t q = 0; q < p; ++q) {
        auto globals = vars_of(q, true, false);
        if (globals.empty()) continue;
        MemoryModule m;
        m.name = "GMEM_" + comp_name(part, q);
        m.component = q;
        m.global = true;
        m.vars = std::move(globals);
        // One dedicated bus (and memory port) per accessing component, up to
        // the configured port cap; beyond it, accessors share ports
        // round-robin and the shared bus is later arbitrated.
        std::vector<size_t> accessors(global_accessors[q].begin(),
                                      global_accessors[q].end());
        const size_t ports =
            max_memory_ports == 0
                ? accessors.size()
                : std::min(max_memory_ports, accessors.size());
        for (size_t k = 0; k < ports; ++k) {
          std::string bus;
          if (ports == accessors.size()) {
            bus = "dbus_" + comp_name(part, accessors[k]) + "_" +
                  comp_name(part, q);
          } else {
            bus = "dbus_port" + std::to_string(k) + "_" + comp_name(part, q);
          }
          plan.buses_.push_back(
              {bus, BusRole::Dedicated, accessors[k], q});
          m.port_buses.emplace_back(bus, accessors[k]);
        }
        // Map every accessor onto its port's bus.
        for (size_t i = 0; i < accessors.size(); ++i) {
          plan.dedicated_bus_of_[{accessors[i], q}] =
              m.port_buses[i % ports].first;
        }
        // Each port decodes only the addresses its masters actually drive.
        m.port_vars.assign(m.port_buses.size(), {});
        for (const VarPlacement& vp : placements) {
          if (vp.component != q || !vp.is_global) continue;
          for (size_t c : vp.accessor_components) {
            for (size_t i = 0; i < accessors.size(); ++i) {
              if (accessors[i] != c) continue;
              auto& pv = m.port_vars[i % ports];
              if (std::find(pv.begin(), pv.end(), vp.var) == pv.end()) {
                pv.push_back(vp.var);
              }
              break;
            }
          }
        }
        add_module(std::move(m));
      }
      break;
    }

    case ImplModel::Model4: {
      for (size_t q = 0; q < p; ++q) {
        auto vars = vars_of(q, false, /*any_class=*/true);
        if (vars.empty()) continue;
        const std::string bus = "lbus_" + comp_name(part, q);
        plan.buses_.push_back({bus, BusRole::Local, q});
        MemoryModule m;
        m.name = "LMEM_" + comp_name(part, q);
        m.component = q;
        m.vars = std::move(vars);
        m.port_buses = {{bus, q}};
        add_module(std::move(m));
      }
      // Interfaces: outbound where a component reaches out, inbound where a
      // component is reached into.
      bool any_cross = false;
      for (size_t q = 0; q < p; ++q) {
        if (!remote_accessors[q].empty()) any_cross = true;
      }
      if (any_cross) {
        plan.inter_bus_ = "interbus";
        plan.buses_.push_back({"interbus", BusRole::Inter});
        for (size_t c = 0; c < p; ++c) {
          InterfacePlan ip;
          ip.component = c;
          ip.has_inbound = !remote_accessors[c].empty();
          for (size_t q = 0; q < p; ++q) {
            if (q != c && remote_accessors[q].count(c) != 0) {
              ip.has_outbound = true;
            }
          }
          if (!ip.has_inbound && !ip.has_outbound) continue;
          const std::string cn = comp_name(part, c);
          ip.outbound = "IFACE_" + cn + "_OUT";
          ip.inbound = "IFACE_" + cn + "_IN";
          if (ip.has_outbound) {
            ip.req_bus = "reqbus_" + cn;
            plan.buses_.push_back({ip.req_bus, BusRole::Request, c});
          }
          plan.interfaces_.push_back(std::move(ip));
        }
      }
      break;
    }
  }

  return plan;
}

std::vector<std::string> BusPlan::route(size_t c, const std::string& var) const {
  auto own = var_owner_.find(var);
  if (own == var_owner_.end()) {
    throw SpecError("bus plan: unknown variable '" + var + "'");
  }
  const size_t q = own->second;
  const bool global = var_global_.at(var);
  const MemoryModule* mod = module_of(var);
  if (mod == nullptr) {
    throw SpecError("bus plan: variable '" + var + "' not mapped to a memory");
  }

  switch (model_) {
    case ImplModel::Model1:
      return {"gbus"};
    case ImplModel::Model2:
      return {global ? std::string("gbus") : mod->port_buses.front().first};
    case ImplModel::Model3: {
      if (!global) return {mod->port_buses.front().first};
      auto it = dedicated_bus_of_.find({c, q});
      if (it != dedicated_bus_of_.end()) return {it->second};
      throw SpecError("bus plan: no dedicated port for component " +
                      std::to_string(c) + " to '" + var + "'");
    }
    case ImplModel::Model4: {
      const std::string local = mod->port_buses.front().first;
      if (c == q) return {local};
      for (const InterfacePlan& ip : interfaces_) {
        if (ip.component == c) {
          if (!ip.has_outbound) break;
          return {ip.req_bus, inter_bus_, local};
        }
      }
      throw SpecError("bus plan: component " + std::to_string(c) +
                      " has no outbound interface for '" + var + "'");
    }
  }
  throw SpecError("bus plan: unreachable");
}

std::string BusPlan::access_bus(size_t c, const std::string& var) const {
  return route(c, var).front();
}

const MemoryModule* BusPlan::module_of(const std::string& var) const {
  auto it = var_module_.find(var);
  if (it == var_module_.end()) return nullptr;
  for (const MemoryModule& m : memories_) {
    if (m.name == it->second) return &m;
  }
  return nullptr;
}

size_t BusPlan::max_buses(ImplModel model, size_t p) {
  switch (model) {
    case ImplModel::Model1: return 1;
    case ImplModel::Model2: return p + 1;
    case ImplModel::Model3: return p + p * p;
    case ImplModel::Model4: return 2 * p + 1;
  }
  return 0;
}

const char* to_string(ImplModel m) {
  switch (m) {
    case ImplModel::Model1: return "Model1";
    case ImplModel::Model2: return "Model2";
    case ImplModel::Model3: return "Model3";
    case ImplModel::Model4: return "Model4";
  }
  return "?";
}

const char* to_string(ProtocolStyle s) {
  switch (s) {
    case ProtocolStyle::FullHandshake: return "full-handshake";
    case ProtocolStyle::ByteSerial: return "byte-serial";
  }
  return "?";
}

const char* to_string(LeafScheme s) {
  switch (s) {
    case LeafScheme::LoopLeaf: return "loop-leaf";
    case LeafScheme::WrapperSeq: return "wrapper-seq";
  }
  return "?";
}

const char* to_string(MasterGranularity g) {
  switch (g) {
    case MasterGranularity::Auto: return "auto";
    case MasterGranularity::Component: return "component";
    case MasterGranularity::Thread: return "thread";
  }
  return "?";
}

}  // namespace specsyn
