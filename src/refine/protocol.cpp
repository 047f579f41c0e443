#include "refine/protocol.h"

#include <set>

#include "spec/builder.h"

namespace specsyn {

using namespace build;

BusSignals BusSignals::of(const std::string& bus) {
  return {bus + bus_naming::kStart, bus + bus_naming::kDone,
          bus + bus_naming::kRd,    bus + bus_naming::kWr,
          bus + bus_naming::kAddr,  bus + bus_naming::kData};
}

std::string req_signal(const std::string& bus, const std::string& master) {
  return bus + bus_naming::kReq + master;
}

std::string ack_signal(const std::string& bus, const std::string& master) {
  return bus + bus_naming::kAck + master;
}

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Stem of `name` under `suffix`, or empty when it does not apply.
std::string stem_under(const std::string& name, const char* suffix) {
  if (!ends_with(name, suffix)) return {};
  return name.substr(0, name.size() - std::char_traits<char>::length(suffix));
}

}  // namespace

BusTopology BusTopology::discover(const Specification& spec) {
  BusTopology topo;

  std::set<std::string> names;
  std::vector<std::string> ordered;  // declaration order
  for (const SignalDecl* s : spec.all_signals()) {
    if (names.insert(s->name).second) ordered.push_back(s->name);
  }

  // A bus is any stem with the complete six-signal bundle. Control pairs
  // (B_start/B_done without rd/wr/addr/data) are thereby excluded.
  for (const std::string& name : ordered) {
    const std::string stem = stem_under(name, bus_naming::kStart);
    if (stem.empty()) continue;
    const BusSignals sig = BusSignals::of(stem);
    if (!names.count(sig.done) || !names.count(sig.rd) ||
        !names.count(sig.wr) || !names.count(sig.addr) ||
        !names.count(sig.data)) {
      continue;
    }
    const auto bus = static_cast<uint32_t>(topo.buses.size());
    topo.buses.push_back({stem, {}});
    topo.roles[sig.start] = {BusSignalRole::Start, bus, -1};
    topo.roles[sig.done] = {BusSignalRole::Done, bus, -1};
    topo.roles[sig.rd] = {BusSignalRole::Rd, bus, -1};
    topo.roles[sig.wr] = {BusSignalRole::Wr, bus, -1};
    topo.roles[sig.addr] = {BusSignalRole::Addr, bus, -1};
    topo.roles[sig.data] = {BusSignalRole::Data, bus, -1};
  }

  // Arbitration lines: <bus>_req_<master> with a matching ack. Declaration
  // order is the arbiter's priority order (refine/arbiter_gen.h). Longest
  // matching stem wins so a bus name that prefixes another cannot steal its
  // masters.
  for (const std::string& name : ordered) {
    const BusEntry* best = nullptr;
    uint32_t best_idx = 0;
    for (uint32_t i = 0; i < topo.buses.size(); ++i) {
      const std::string prefix = topo.buses[i].name + bus_naming::kReq;
      if (name.compare(0, prefix.size(), prefix) == 0 &&
          name.size() > prefix.size() &&
          (best == nullptr || topo.buses[i].name.size() > best->name.size())) {
        best = &topo.buses[i];
        best_idx = i;
      }
    }
    if (best == nullptr) continue;
    const std::string master =
        name.substr(best->name.size() + std::string(bus_naming::kReq).size());
    const std::string ack = ack_signal(best->name, master);
    if (!names.count(ack)) continue;
    const auto m = static_cast<int32_t>(topo.buses[best_idx].masters.size());
    topo.buses[best_idx].masters.push_back(master);
    topo.roles[name] = {BusSignalRole::Req, best_idx, m};
    topo.roles[ack] = {BusSignalRole::Ack, best_idx, m};
  }

  // Control pairs and partial bundles, from whatever stems remain. Signals
  // already classified as bundle members above are not re-counted, so a bus
  // named "B" does not also appear as a partial stem.
  struct SuffixBit {
    const char* suffix;
    unsigned bit;
  };
  const SuffixBit kMembers[] = {
      {bus_naming::kStart, 1u << 0}, {bus_naming::kDone, 1u << 1},
      {bus_naming::kRd, 1u << 2},    {bus_naming::kWr, 1u << 3},
      {bus_naming::kAddr, 1u << 4},  {bus_naming::kData, 1u << 5},
  };
  std::map<std::string, unsigned> members;
  std::vector<std::string> stem_order;
  for (const std::string& name : ordered) {
    if (topo.roles.count(name) != 0) continue;
    for (const SuffixBit& m : kMembers) {
      const std::string stem = stem_under(name, m.suffix);
      if (stem.empty()) continue;
      if (members.emplace(stem, 0u).second) stem_order.push_back(stem);
      members[stem] |= m.bit;
    }
  }
  for (const std::string& stem : stem_order) {
    const unsigned have = members[stem];
    if (have == ((1u << 0) | (1u << 1))) {
      topo.control_pairs.push_back(stem);
      continue;
    }
    // A lone suffixed signal is just a name; two or more bundle members
    // without the full set look like a damaged bus.
    int count = 0;
    for (const SuffixBit& m : kMembers) count += (have & m.bit) ? 1 : 0;
    if (count < 2) continue;
    std::vector<std::string> missing;
    for (const SuffixBit& m : kMembers) {
      if ((have & m.bit) == 0) missing.push_back(stem + m.suffix);
    }
    topo.partial_stems.emplace(stem, std::move(missing));
  }
  return topo;
}

BusTopology::SignalRole BusTopology::role_of(const std::string& signal) const {
  const auto it = roles.find(signal);
  return it == roles.end() ? SignalRole{} : it->second;
}

ProtocolGen::ProtocolGen(ProtocolStyle style, Type addr_t, Type data_t,
                         Type word_t)
    : style_(style), addr_t_(addr_t), data_t_(data_t), word_t_(word_t) {}

void ProtocolGen::declare_bus_signals(const std::string& bus,
                                      std::vector<SignalDecl>& out) const {
  const BusSignals s = BusSignals::of(bus);
  out.push_back(signal(s.start));
  out.push_back(signal(s.done));
  out.push_back(signal(s.rd));
  out.push_back(signal(s.wr));
  out.push_back(signal(s.addr, addr_t_));
  out.push_back(signal(s.data, data_t_));
}

std::string ProtocolGen::read_proc_name(const std::string& bus,
                                        const std::string& master) {
  return master.empty() ? "MST_receive_" + bus
                        : "MST_receive_" + bus + "_" + master;
}

std::string ProtocolGen::write_proc_name(const std::string& bus,
                                         const std::string& master) {
  return master.empty() ? "MST_send_" + bus : "MST_send_" + bus + "_" + master;
}

StmtList ProtocolGen::acquire(const std::string& req,
                              const std::string& ack) const {
  if (req.empty()) return {};
  return block(set(req, 1), wait_eq(ack, 1));
}

StmtList ProtocolGen::release(const std::string& req,
                              const std::string& ack) const {
  if (req.empty()) return {};
  return block(set(req, 0), wait_eq(ack, 0));
}

namespace {
void append(StmtList& dst, StmtList src) {
  for (auto& s : src) dst.push_back(std::move(s));
}
}  // namespace

Procedure ProtocolGen::master_read_proc(const std::string& name,
                                        const std::string& bus,
                                        const std::string& req,
                                        const std::string& ack) const {
  const BusSignals s = BusSignals::of(bus);
  Procedure p;
  p.name = name;
  p.params.push_back(in_param("a", addr_t_));
  p.params.push_back(in_param("beats", Type::u8()));
  p.params.push_back(out_param("d", word_t_));

  StmtList body = acquire(req, ack);
  if (style_ == ProtocolStyle::FullHandshake) {
    append(body, block(sassign(s.rd, lit(1, Type::bit())),
                       sassign(s.addr, ref("a")),
                       sassign(s.start, lit(1, Type::bit())),
                       wait_eq(s.done, 1),
                       assign("d", ref(s.data)),
                       sassign(s.rd, lit(0, Type::bit())),
                       sassign(s.start, lit(0, Type::bit())),
                       wait_eq(s.done, 0)));
  } else {
    // ByteSerial: one handshake per byte, assembled LSB-first.
    p.locals.emplace_back("k", Type::u8());
    p.locals.emplace_back("acc", word_t_);
    p.locals.emplace_back("byte_v", Type::u8());
    append(body,
           block(assign("k", lit(0)), assign("acc", lit(0)),
                 while_(lt(ref("k"), ref("beats")),
                        block(sassign(s.rd, lit(1, Type::bit())),
                              sassign(s.addr, add(ref("a"), ref("k"))),
                              sassign(s.start, lit(1, Type::bit())),
                              wait_eq(s.done, 1),
                              assign("byte_v", ref(s.data)),
                              sassign(s.rd, lit(0, Type::bit())),
                              sassign(s.start, lit(0, Type::bit())),
                              wait_eq(s.done, 0),
                              assign("acc", bor(ref("acc"),
                                                shl(ref("byte_v"),
                                                    mul(lit(8), ref("k"))))),
                              assign("k", add(ref("k"), lit(1))))),
                 assign("d", ref("acc"))));
  }
  append(body, release(req, ack));
  p.body = std::move(body);
  return p;
}

Procedure ProtocolGen::master_write_proc(const std::string& name,
                                         const std::string& bus,
                                         const std::string& req,
                                         const std::string& ack) const {
  const BusSignals s = BusSignals::of(bus);
  Procedure p;
  p.name = name;
  p.params.push_back(in_param("a", addr_t_));
  p.params.push_back(in_param("beats", Type::u8()));
  p.params.push_back(in_param("v", word_t_));

  StmtList body = acquire(req, ack);
  if (style_ == ProtocolStyle::FullHandshake) {
    append(body, block(sassign(s.wr, lit(1, Type::bit())),
                       sassign(s.addr, ref("a")),
                       sassign(s.data, ref("v")),
                       sassign(s.start, lit(1, Type::bit())),
                       wait_eq(s.done, 1),
                       sassign(s.wr, lit(0, Type::bit())),
                       sassign(s.start, lit(0, Type::bit())),
                       wait_eq(s.done, 0)));
  } else {
    p.locals.emplace_back("k", Type::u8());
    append(body,
           block(assign("k", lit(0)),
                 while_(lt(ref("k"), ref("beats")),
                        block(sassign(s.wr, lit(1, Type::bit())),
                              sassign(s.addr, add(ref("a"), ref("k"))),
                              sassign(s.data,
                                      band(shr(ref("v"),
                                               mul(lit(8), ref("k"))),
                                           lit(0xFF))),
                              sassign(s.start, lit(1, Type::bit())),
                              wait_eq(s.done, 1),
                              sassign(s.wr, lit(0, Type::bit())),
                              sassign(s.start, lit(0, Type::bit())),
                              wait_eq(s.done, 0),
                              assign("k", add(ref("k"), lit(1)))))));
  }
  append(body, release(req, ack));
  p.body = std::move(body);
  return p;
}

StmtList ProtocolGen::slave_server_loop(const std::string& bus,
                                        const std::vector<SlaveVar>& vars) const {
  const BusSignals s = BusSignals::of(bus);

  // Several slaves can share one bus (e.g. Model2 puts every component's
  // global memory on the single shared bus), so a server must only respond
  // to transactions addressed to variables it stores — otherwise it would
  // assert <bus>_done for foreign addresses and the master could sample the
  // data bus before the owning memory drove it.
  ExprPtr match;
  for (const SlaveVar& v : vars) {
    ExprPtr mine =
        v.beats == 1
            ? eq(ref(s.addr), lit(v.base_addr, addr_t_))
            : land(ge(ref(s.addr), lit(v.base_addr, addr_t_)),
                   le(ref(s.addr), lit(v.base_addr + v.beats - 1, addr_t_)));
    match = match ? lor(std::move(match), std::move(mine)) : std::move(mine);
  }

  StmtList reads, writes;
  if (style_ == ProtocolStyle::FullHandshake) {
    for (const SlaveVar& v : vars) {
      reads.push_back(if_(eq(ref(s.addr), lit(v.base_addr, addr_t_)),
                          block(sassign(s.data, ref(v.name)))));
      writes.push_back(if_(eq(ref(s.addr), lit(v.base_addr, addr_t_)),
                           block(assign(v.name, ref(s.data)))));
    }
  } else {
    for (const SlaveVar& v : vars) {
      for (uint64_t k = 0; k < v.beats; ++k) {
        const uint64_t a = v.base_addr + k;
        reads.push_back(
            if_(eq(ref(s.addr), lit(a, addr_t_)),
                block(sassign(s.data,
                              band(shr(ref(v.name), lit(8 * k)), lit(0xFF))))));
        const uint64_t keep = v.type.mask() & ~(uint64_t{0xFF} << (8 * k));
        // The keep-mask must carry the full variable width (a default 32-bit
        // literal would truncate it and zero the high bytes of >32-bit
        // variables on every beat).
        writes.push_back(
            if_(eq(ref(s.addr), lit(a, addr_t_)),
                block(assign(v.name,
                             bor(band(ref(v.name), lit(keep, Type::u64())),
                                 shl(band(ref(s.data), lit(0xFF)),
                                     lit(8 * k)))))));
      }
    }
  }

  ExprPtr trigger = eq(ref(s.start), lit(1, Type::bit()));
  if (match) trigger = land(std::move(trigger), std::move(match));
  return block(loop(block(
      wait(std::move(trigger)),
      if_(eq(ref(s.rd), lit(1, Type::bit())), std::move(reads)),
      if_(eq(ref(s.wr), lit(1, Type::bit())), std::move(writes)),
      set(s.done, 1), wait_eq(s.start, 0), set(s.done, 0))));
}

}  // namespace specsyn
