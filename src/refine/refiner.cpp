#include "refine/refiner.h"

#include <set>
#include <utility>

#include "refine/arbiter_gen.h"
#include "refine/bus_interface_gen.h"
#include "refine/control_refine.h"
#include "refine/data_refine.h"
#include "refine/inliner.h"
#include "refine/memory_gen.h"
#include "refine/protocol.h"
#include "spec/builder.h"
#include "telemetry/telemetry.h"

namespace specsyn {

namespace {

/// Original user procedures may only touch their parameters and locals:
/// a procedure body that reads a specification variable directly cannot be
/// rewritten per-master (the same procedure is shared by all callers).
void check_procedures(const SpecIndex& index) {
  for (const Procedure& p : index.spec().procedures) {
    std::vector<std::string> names;
    for (const auto& s : p.body) {
      // Collect all referenced names in the body, conservatively.
      struct Walker {
        static void stmt(const Stmt& st, std::vector<std::string>& out) {
          if (st.expr) st.expr->collect_names(out);
          if (!st.target.empty()) out.push_back(st.target);
          for (const auto& a : st.args) a->collect_names(out);
          for (const auto& c : st.then_block) stmt(*c, out);
          for (const auto& c : st.else_block) stmt(*c, out);
        }
      };
      Walker::stmt(*s, names);
    }
    for (const auto& n : names) {
      if (index.find_var(n) != nullptr) {
        throw SpecError("refine: procedure '" + p.name +
                        "' accesses specification variable '" + n +
                        "' directly; pass it through parameters instead");
      }
    }
  }
}

uint32_t max_var_width(const Specification& spec) {
  uint32_t w = 1;
  for (const VarDecl* v : spec.all_vars()) w = std::max(w, v->type.width);
  return w;
}

}  // namespace

RefineResult refine(const Partition& part, const AccessGraph& graph,
                    const RefineConfig& cfg) {
  telemetry::Span tm_refine("refine", telemetry::Stability::Stable);
  const Specification& orig = part.spec();
  validate_or_throw(orig);
  check_procedures(part.index());

  // -- 0. address layout and bus plan ----------------------------------------
  auto layout = [&] {
    telemetry::Span span("refine.plan", telemetry::Stability::Stable);
    return std::pair{
        AddressMap(part, cfg.protocol),
        BusPlan::build(part, graph, cfg.model, cfg.max_memory_ports)};
  }();
  AddressMap& amap = layout.first;
  BusPlan& plan = layout.second;
  const Type word_t = Type::of_width(max_var_width(orig));
  ProtocolGen proto(cfg.protocol, amap.addr_type(), amap.data_type(), word_t);

  // -- 1. control-related refinement ----------------------------------------
  ControlRefineResult ctrl = [&] {
    telemetry::Span span("refine.control", telemetry::Stability::Stable);
    return control_refine(part, cfg.leaf_scheme);
  }();

  // -- 2. data-related refinement -------------------------------------------
  // Master identity granularity: component-granular only when provably safe
  // (no concurrency anywhere in the original specification).
  MasterGranularity gran = cfg.master_granularity;
  if (gran == MasterGranularity::Auto) {
    gran = orig.is_fully_sequential() ? MasterGranularity::Component
                                      : MasterGranularity::Thread;
  }
  if (gran == MasterGranularity::Component && !orig.is_fully_sequential()) {
    throw SpecError(
        "refine: component-granular bus masters require a fully sequential "
        "specification (concurrent behaviors would race on the bus)");
  }
  const bool per_thread = gran == MasterGranularity::Thread;

  MasterUse use;
  const size_t p = part.allocation().size();
  {
    telemetry::Span span("refine.data", telemetry::Stability::Stable);
    for (size_t c = 0; c < p; ++c) {
      ComponentTree& tree = ctrl.components[c];
      const std::string comp_name = part.allocation().components[c].name;
      if (tree.main) {
        data_refine_tree(*tree.main, c, comp_name, part.index(), plan, amap,
                         use, per_thread);
      }
      for (auto& server : tree.servers) {
        data_refine_tree(*server, c, per_thread ? server->name : comp_name,
                         part.index(), plan, amap, use, per_thread);
      }
    }
  }

  // -- 3. architecture-related refinement -----------------------------------
  std::vector<BehaviorPtr> interfaces;
  std::vector<BehaviorPtr> memories;
  {
    telemetry::Span span("refine.arch", telemetry::Stability::Stable);
    for (const InterfacePlan& ip : plan.interfaces()) {
      InterfaceBehaviors ib = generate_interfaces(ip, plan, amap, use);
      if (ib.outbound) interfaces.push_back(std::move(ib.outbound));
      if (ib.inbound) interfaces.push_back(std::move(ib.inbound));
    }
    for (const MemoryModule& m : plan.memories()) {
      memories.push_back(generate_memory(m, proto, amap, part.index()));
    }
  }

  // Procedures + arbitration: a bus with >= 2 masters is arbitrated, and its
  // masters' procedures acquire/release via req/ack.
  RefineResult result{Specification{}, std::move(plan), std::move(amap),
                      RefineStats{}, {}};
  Specification& out = result.refined;
  out.name = orig.name + "_" + to_string(cfg.model);

  std::vector<BehaviorPtr> arbiters;
  for (const auto& [bus, masters] : use.bus_masters) {
    const bool arbitrated = masters.size() > 1;
    if (arbitrated) {
      declare_arbitration_signals(bus, masters, out.signals);
      arbiters.push_back(generate_arbiter(bus, masters));
    }
    for (const std::string& m : masters) {
      const std::string req = arbitrated ? req_signal(bus, m) : "";
      const std::string ack = arbitrated ? ack_signal(bus, m) : "";
      out.procedures.push_back(
          proto.master_read_proc(ProtocolGen::read_proc_name(bus, m), bus,
                                 req, ack));
      out.procedures.push_back(
          proto.master_write_proc(ProtocolGen::write_proc_name(bus, m), bus,
                                  req, ack));
      result.stats.generated_procs += 2;
    }
    result.bus_masters.emplace(bus, masters);
  }

  // -- 4. assembly ------------------------------------------------------------
  for (const SignalDecl& s : ctrl.signals) out.signals.push_back(s);
  for (const BusDecl& b : result.plan.buses()) {
    proto.declare_bus_signals(b.name, out.signals);
  }
  for (const Procedure& p_orig : orig.procedures) {
    out.procedures.push_back(p_orig.clone());
  }

  std::vector<BehaviorPtr> sys_children;
  for (size_t c = 0; c < p; ++c) {
    ComponentTree& tree = ctrl.components[c];
    if (tree.empty()) continue;
    std::vector<BehaviorPtr> kids;
    if (tree.main) kids.push_back(std::move(tree.main));
    for (auto& s : tree.servers) kids.push_back(std::move(s));
    sys_children.push_back(Behavior::make_conc(
        part.allocation().components[c].name + "_top", std::move(kids)));
  }
  for (auto& m : memories) sys_children.push_back(std::move(m));
  for (auto& a : arbiters) sys_children.push_back(std::move(a));
  for (auto& i : interfaces) sys_children.push_back(std::move(i));

  if (sys_children.empty()) {
    throw SpecError("refine: nothing to assemble (empty specification?)");
  }
  out.top = Behavior::make_conc("SYS", std::move(sys_children));

  if (cfg.inline_protocols) {
    telemetry::Span span("refine.inline", telemetry::Stability::Stable);
    std::set<std::string> generated;
    for (const auto& [bus, masters] : use.bus_masters) {
      for (const std::string& m : masters) {
        generated.insert(ProtocolGen::read_proc_name(bus, m));
        generated.insert(ProtocolGen::write_proc_name(bus, m));
      }
    }
    result.stats.inlined_sites = inline_procedure_calls(
        out, [&](const std::string& n) { return generated.count(n) != 0; });
    result.stats.generated_procs = 0;
  }

  // -- stats -------------------------------------------------------------------
  result.stats.memories = result.plan.memories().size();
  for (const MemoryModule& m : result.plan.memories()) {
    result.stats.memory_ports += m.port_buses.size();
  }
  result.stats.arbiters = arbiters.size();
  result.stats.interfaces = 0;
  for (const InterfacePlan& ip : result.plan.interfaces()) {
    result.stats.interfaces +=
        (ip.has_outbound ? 1 : 0) + (ip.has_inbound ? 1 : 0);
  }
  result.stats.buses = result.plan.buses().size();
  result.stats.control_signals = ctrl.signals.size();
  result.stats.moved_behaviors = ctrl.moved_behaviors.size();
  result.stats.behaviors = out.all_behaviors().size();

  validate_or_throw(out);
  // The model must read back: the parser rejects deeper nesting.
  if (const size_t depth = nesting_depth(out); depth > kMaxNestingDepth) {
    throw SpecError("[SP002] refine: the refined model nests " +
                    std::to_string(depth) + " levels deep; the parser accepts " +
                    std::to_string(kMaxNestingDepth));
  }
  return result;
}

}  // namespace specsyn
