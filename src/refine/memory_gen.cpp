#include "refine/memory_gen.h"

#include <algorithm>

namespace specsyn {

BehaviorPtr generate_memory(const MemoryModule& m, const ProtocolGen& proto,
                            const AddressMap& amap, const SpecIndex& orig) {
  if (m.port_buses.empty()) {
    throw SpecError("memory module '" + m.name + "' has no port buses");
  }

  std::vector<VarDecl> decls;
  std::vector<SlaveVar> slave_vars;
  for (const std::string& name : m.vars) {
    const VarDecl* v = orig.find_var(name);
    if (v == nullptr) {
      throw SpecError("memory module '" + m.name + "' stores unknown variable '" +
                      name + "'");
    }
    decls.push_back(*v);
    slave_vars.push_back(
        {name, amap.addr_of(name), v->type, amap.beats_of(name)});
  }

  if (m.port_buses.size() == 1) {
    auto b = Behavior::make_leaf(
        m.name, proto.slave_server_loop(m.port_buses[0].first, slave_vars));
    b->vars = std::move(decls);
    return b;
  }

  // Multi-port: concurrent port servers over shared variable declarations.
  // A port only decodes the addresses its master components drive (the
  // plan's port_vars); ports with no narrowing serve the full address range.
  std::vector<BehaviorPtr> ports;
  for (size_t i = 0; i < m.port_buses.size(); ++i) {
    const std::string& bus = m.port_buses[i].first;
    std::vector<SlaveVar> port_vars = slave_vars;
    if (i < m.port_vars.size() && !m.port_vars[i].empty()) {
      const auto& allowed = m.port_vars[i];
      std::erase_if(port_vars, [&](const SlaveVar& sv) {
        return std::find(allowed.begin(), allowed.end(), sv.name) ==
               allowed.end();
      });
    }
    ports.push_back(Behavior::make_leaf(m.name + "_port_" + bus,
                                        proto.slave_server_loop(bus, port_vars)));
  }
  auto b = Behavior::make_conc(m.name, std::move(ports));
  b->vars = std::move(decls);
  return b;
}

}  // namespace specsyn
