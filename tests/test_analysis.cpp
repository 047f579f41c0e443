// Tests for the static refinement verifier (src/analysis).
//
// Two halves:
//  * refiner output is CLEAN — every model x protocol x scheme combination
//    of the medical workload produces a report with zero findings, and
//  * every checker is LIVE — hand-corrupting a refined specification (drop
//    an ack wait, overlap two decodes, swap arbiter priorities, bypass the
//    bus, ...) fires exactly the documented diagnostic code.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <type_traits>

#include "analysis/context.h"
#include "analysis/verifier.h"
#include "graph/access_graph.h"
#include "refine/refiner.h"
#include "spec/builder.h"
#include "test_util.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

using namespace build;

std::string dump(const analysis::Report& rep) {
  std::string out;
  for (const analysis::Finding& f : rep.findings) out += f.str() + "\n";
  return out;
}

/// True when some `code` finding's message contains `text`.
bool has_message(const analysis::Report& rep, const std::string& code,
                 const std::string& text) {
  return std::any_of(rep.findings.begin(), rep.findings.end(),
                     [&](const analysis::Finding& f) {
                       return f.code == code &&
                              f.message.find(text) != std::string::npos;
                     });
}

/// Medical workload, design 1, refined to the given configuration.
Specification refined_medical(ImplModel model,
                              ProtocolStyle proto = ProtocolStyle::FullHandshake,
                              LeafScheme scheme = LeafScheme::LoopLeaf,
                              bool inline_protocols = true) {
  static Specification spec = make_medical_system();
  static AccessGraph graph = build_access_graph(spec);
  PartitionerResult design = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = model;
  cfg.protocol = proto;
  cfg.leaf_scheme = scheme;
  cfg.inline_protocols = inline_protocols;
  return refine(design.partition, graph, cfg).refined;
}

// -- mutation helpers --------------------------------------------------------

void for_each_stmt(StmtList& list, const std::function<void(Stmt&)>& fn) {
  for (StmtPtr& s : list) {
    if (!s) continue;
    fn(*s);
    for_each_stmt(s->then_block, fn);
    for_each_stmt(s->else_block, fn);
  }
}

void erase_stmts(StmtList& list, const std::function<bool(const Stmt&)>& pred) {
  for (auto it = list.begin(); it != list.end();) {
    if (*it && pred(**it)) {
      it = list.erase(it);
      continue;
    }
    if (*it) {
      erase_stmts((*it)->then_block, pred);
      erase_stmts((*it)->else_block, pred);
    }
    ++it;
  }
}

/// Deletes, in the first leaf that contains a match, every statement matching
/// `pred`. Returns the mutated leaf's name ("" when nothing matched).
std::string erase_in_first_leaf(Specification& spec,
                                const std::function<bool(const Stmt&)>& pred) {
  std::string hit;
  spec.top->for_each([&](Behavior& b) {
    if (!hit.empty() || !b.is_leaf()) return;
    bool found = false;
    for_each_stmt(b.body, [&](Stmt& s) {
      if (pred(s)) found = true;
    });
    if (!found) return;
    erase_stmts(b.body, pred);
    hit = b.name;
  });
  return hit;
}

bool is_sassign_level(const Stmt& s, const std::string& name, uint64_t level) {
  return s.kind == Stmt::Kind::SignalAssign && s.target == name && s.expr &&
         s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == level;
}

void delete_behavior(Specification& spec, const std::string& name) {
  for (Behavior* parent : spec.all_behaviors()) {
    auto& kids = parent->children;
    for (auto it = kids.begin(); it != kids.end(); ++it) {
      if ((*it)->name == name) {
        kids.erase(it);
        return;
      }
    }
  }
  FAIL() << "behavior not found: " << name;
}

/// First behavior whose name ends with `suffix`, or empty.
std::string find_by_suffix(const Specification& spec,
                           const std::string& suffix) {
  for (const Behavior* b : spec.all_behaviors()) {
    if (b->name.size() >= suffix.size() &&
        b->name.compare(b->name.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
      return b->name;
    }
  }
  return {};
}

/// The six-signal bundle declarations of one hand-built bus.
void declare_bus(Specification& spec, const std::string& bus) {
  spec.signals.push_back(signal(bus + "_start"));
  spec.signals.push_back(signal(bus + "_done"));
  spec.signals.push_back(signal(bus + "_rd"));
  spec.signals.push_back(signal(bus + "_wr"));
  spec.signals.push_back(signal(bus + "_addr", Type::u32()));
  spec.signals.push_back(signal(bus + "_data", Type::u32()));
}

/// One complete inlined master read of `addr` on `bus` (Figure 5(d)).
StmtList master_read(const std::string& bus, uint64_t addr,
                     const std::string& into) {
  return block(sassign(bus + "_rd", lit(1, Type::bit())),
               sassign(bus + "_addr", lit(addr)),
               sassign(bus + "_start", lit(1, Type::bit())),
               wait_eq(bus + "_done", 1), assign(into, ref(bus + "_data")),
               sassign(bus + "_rd", lit(0, Type::bit())),
               sassign(bus + "_start", lit(0, Type::bit())),
               wait_eq(bus + "_done", 0));
}

/// A one-variable memory server on `bus` at `addr` (Figure 5(c)).
BehaviorPtr memory_leaf(const std::string& name, const std::string& bus,
                        uint64_t addr, const std::string& var_name) {
  auto b = leaf(
      name,
      block(loop(block(
          wait(land(eq(ref(bus + "_start"), lit(1, Type::bit())),
                    eq(ref(bus + "_addr"), lit(addr)))),
          if_(eq(ref(bus + "_rd"), lit(1, Type::bit())),
              block(if_(eq(ref(bus + "_addr"), lit(addr)),
                        block(sassign(bus + "_data", ref(var_name)))))),
          if_(eq(ref(bus + "_wr"), lit(1, Type::bit())),
              block(if_(eq(ref(bus + "_addr"), lit(addr)),
                        block(assign(var_name, ref(bus + "_data")))))),
          set(bus + "_done", 1), wait_eq(bus + "_start", 0),
          set(bus + "_done", 0)))));
  b->vars.push_back(var(var_name, Type::u32()));
  return b;
}

// -- the refiner's output is clean -------------------------------------------

TEST(Analysis, MedicalModelsAreClean) {
  for (const ImplModel m : {ImplModel::Model1, ImplModel::Model2,
                            ImplModel::Model3, ImplModel::Model4}) {
    for (const ProtocolStyle p :
         {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
      const Specification spec = refined_medical(m, p);
      const analysis::Report rep = analysis::analyze(spec);
      EXPECT_TRUE(rep.clean())
          << "model " << static_cast<int>(m) << " proto "
          << static_cast<int>(p) << ":\n"
          << dump(rep);
    }
  }
}

TEST(Analysis, WrapperSchemeAndSharedProceduresAreClean) {
  for (const bool inl : {true, false}) {
    const Specification spec =
        refined_medical(ImplModel::Model4, ProtocolStyle::ByteSerial,
                        LeafScheme::WrapperSeq, inl);
    const analysis::Report rep = analysis::analyze(spec);
    EXPECT_TRUE(rep.clean()) << "inline=" << inl << ":\n" << dump(rep);
  }
}

TEST(Analysis, ContextRecoversBusStructure) {
  const Specification spec = refined_medical(ImplModel::Model2);
  const analysis::Context ctx(spec);
  // The analysis is only meaningful if the walk actually recovered the
  // refiner's structure: buses, masters, serve loops, address traffic.
  EXPECT_FALSE(ctx.topology().buses.empty());
  EXPECT_FALSE(ctx.masters().empty());
  EXPECT_FALSE(ctx.accesses().empty());
  bool any_serve_loop = false;
  for (const analysis::SlavePort& sp : ctx.slaves()) {
    any_serve_loop |= sp.serve_loop;
  }
  EXPECT_TRUE(any_serve_loop);
  bool any_mediated = false;
  for (const auto& [name, accesses] : ctx.var_access()) {
    (void)name;
    for (const analysis::VarAccess& a : accesses) any_mediated |= a.bus_mediated;
  }
  EXPECT_TRUE(any_mediated);
  // Model2's single shared bus is arbitrated; the priority chain of its
  // arbiter must be recognized in declaration order.
  bool any_chain = false;
  for (uint32_t bus = 0; bus < ctx.topology().buses.size(); ++bus) {
    const std::vector<int32_t> chain = ctx.arbiter_chain(bus);
    if (chain.empty()) continue;
    any_chain = true;
    EXPECT_EQ(chain.size(), ctx.topology().buses[bus].masters.size());
  }
  EXPECT_TRUE(any_chain);
}

// -- Context facts, derived by hand from one small spec ------------------------

// Master reads through a shared procedure (in-parameter bound to a signal
// expression, out-parameter renamed to `res`) with a ByteSerial beat loop,
// writes y inline, then reads into y through a wrapper procedure (renames
// chain through the nested call); Mem serves gbus with read and write decode
// cases, one of them serving two variables; Watcher only waits.
constexpr const char* kFactsSpec = R"(spec Facts;

signal gbus_start : bit;
signal gbus_done : bit;
signal gbus_rd : bit;
signal gbus_wr : bit;
signal gbus_addr : int8;
signal gbus_data : int8;
signal sel : int8 := 2;
var x : int8 := 3;
var y : int8;
var res : int8;

proc Fetch(a : int8, out d : int8) {
  var k : int8;
  k := 0;
  while k < 4 {
    gbus_rd <= 1;
    gbus_addr <= 8 + k;
    gbus_start <= 1;
    wait gbus_done == 1;
    d := gbus_data;
    gbus_rd <= 0;
    gbus_start <= 0;
    wait gbus_done == 0;
    k := k + 1;
  }
  d := d + a;
}

proc Outer(out o : int8) {
  call Fetch(0, o);
}

behavior Top : conc {
  behavior Master : leaf {
    call Fetch(sel + 1, res);
    y := x * x;
    gbus_wr <= 1;
    gbus_addr <= 2;
    gbus_data <= y;
    gbus_start <= 1;
    wait gbus_done == 1;
    gbus_wr <= 0;
    gbus_start <= 0;
    wait gbus_done == 0;
    call Outer(y);
  }
  behavior Mem : leaf {
    loop {
      wait gbus_start == 1;
      if gbus_rd == 1 {
        if gbus_addr == 2 {
          gbus_data <= x;
        }
        if gbus_addr == 3 {
          gbus_data <= y;
        }
        if gbus_addr == 4 {
          gbus_data <= x + y;
        }
      }
      if gbus_wr == 1 {
        if gbus_addr == 2 {
          x := gbus_data;
        }
      }
      gbus_done <= 1;
      wait gbus_start == 0;
      gbus_done <= 0;
    }
  }
  behavior Watcher : leaf {
    wait gbus_done == 1 && sel > 0;
    wait gbus_done == 1;
  }
}
)";

static_assert(!std::is_copy_constructible_v<analysis::Context>);
static_assert(!std::is_move_constructible_v<analysis::Context>);

struct FactsFixture {
  Specification spec = testing::parse_or_die(kFactsSpec);
  const Behavior* master = spec.find_behavior("Master");
  const Behavior* mem = spec.find_behavior("Mem");
  const Behavior* watcher = spec.find_behavior("Watcher");
};

using Accesses = std::vector<std::tuple<const Behavior*, bool, bool>>;

Accesses accesses_of(const analysis::Context& ctx, const std::string& var) {
  Accesses out;
  const auto it = ctx.var_access().find(var);
  if (it == ctx.var_access().end()) return out;
  for (const analysis::VarAccess& a : it->second) {
    out.emplace_back(a.behavior, a.is_write, a.bus_mediated);
  }
  return out;
}

TEST(ContextFacts, VarAccessSequences) {
  const FactsFixture f;
  const analysis::Context ctx(f.spec);
  std::vector<std::string> names;
  for (const auto& [name, accesses] : ctx.var_access()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"res", "x", "y"}));
  constexpr bool R = false, W = true;
  // The call site reads its out-argument; inside Fetch, `d` is `res` and the
  // signal-bound `a` is no variable at all.
  EXPECT_EQ(accesses_of(ctx, "res"), (Accesses{{f.master, R, false},
                                               {f.master, W, false},
                                               {f.master, R, false},
                                               {f.master, W, false}}));
  // `x * x` reads x twice; Mem's accesses sit inside its serve loop.
  EXPECT_EQ(accesses_of(ctx, "x"), (Accesses{{f.master, R, false},
                                             {f.master, R, false},
                                             {f.mem, R, true},
                                             {f.mem, R, true},
                                             {f.mem, W, true}}));
  // `call Outer(y)` reads y at the call site, Outer's `call Fetch(0, o)`
  // reads it as `o`, and Fetch's `d` is y through both renames.
  EXPECT_EQ(accesses_of(ctx, "y"), (Accesses{{f.master, W, false},
                                             {f.master, R, false},
                                             {f.master, R, false},
                                             {f.master, R, false},
                                             {f.master, W, false},
                                             {f.master, R, false},
                                             {f.master, W, false},
                                             {f.mem, R, true},
                                             {f.mem, R, true}}));
}

TEST(ContextFacts, SignalUseIsUniqueInFirstOccurrenceOrder) {
  const FactsFixture f;
  const analysis::Context ctx(f.spec);
  using B = std::vector<const Behavior*>;
  const auto& use = ctx.signal_use();
  std::vector<std::string> names;
  for (const auto& [name, u] : use) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"gbus_addr", "gbus_data",
                                             "gbus_done", "gbus_rd",
                                             "gbus_start", "gbus_wr", "sel"}));
  EXPECT_EQ(use.at("gbus_addr").writers, (B{f.master}));
  EXPECT_EQ(use.at("gbus_addr").readers, (B{f.mem}));
  EXPECT_EQ(use.at("gbus_addr").literal_levels, (std::set<uint64_t>{2}));
  EXPECT_EQ(use.at("gbus_data").writers, (B{f.master, f.mem}));
  EXPECT_EQ(use.at("gbus_data").readers, (B{f.master, f.mem}));
  EXPECT_TRUE(use.at("gbus_data").waiters.empty());
  EXPECT_EQ(use.at("gbus_done").writers, (B{f.mem}));
  EXPECT_EQ(use.at("gbus_done").readers, (B{f.master, f.watcher}));
  EXPECT_EQ(use.at("gbus_done").waiters, (B{f.master, f.watcher}));
  EXPECT_EQ(use.at("gbus_done").literal_levels, (std::set<uint64_t>{0, 1}));
  EXPECT_EQ(use.at("gbus_rd").writers, (B{f.master}));
  EXPECT_EQ(use.at("gbus_rd").readers, (B{f.mem}));
  EXPECT_EQ(use.at("gbus_start").writers, (B{f.master}));
  EXPECT_EQ(use.at("gbus_start").readers, (B{f.mem}));
  EXPECT_EQ(use.at("gbus_start").waiters, (B{f.mem}));
  EXPECT_EQ(use.at("gbus_wr").writers, (B{f.master}));
  // The in-argument `sel + 1` is read at the call site; Watcher waits on it.
  EXPECT_TRUE(use.at("sel").writers.empty());
  EXPECT_EQ(use.at("sel").readers, (B{f.master, f.watcher}));
  EXPECT_EQ(use.at("sel").waiters, (B{f.watcher}));
}

TEST(ContextFacts, MasterAccessRanges) {
  const FactsFixture f;
  const analysis::Context ctx(f.spec);
  ASSERT_EQ(ctx.accesses().size(), 3u);
  // `gbus_addr <= 8 + k` inside `while k < 4` covers four beats.
  const analysis::MasterAccess& beat = ctx.accesses()[0];
  EXPECT_EQ(beat.behavior, f.master);
  EXPECT_EQ(beat.bus, 0u);
  EXPECT_TRUE(beat.resolved);
  EXPECT_EQ(beat.range.lo, 8u);
  EXPECT_EQ(beat.range.hi, 11u);
  EXPECT_TRUE(beat.is_read);
  EXPECT_FALSE(beat.is_write);
  const analysis::MasterAccess& point = ctx.accesses()[1];
  EXPECT_EQ(point.behavior, f.master);
  EXPECT_TRUE(point.resolved);
  EXPECT_EQ(point.range.lo, 2u);
  EXPECT_EQ(point.range.hi, 2u);
  EXPECT_FALSE(point.is_read);
  EXPECT_TRUE(point.is_write);
  const analysis::MasterAccess& nested = ctx.accesses()[2];
  EXPECT_EQ(nested.behavior, f.master);
  EXPECT_TRUE(nested.resolved);
  EXPECT_EQ(nested.range.lo, 8u);
  EXPECT_EQ(nested.range.hi, 11u);
  EXPECT_TRUE(nested.is_read);
  EXPECT_FALSE(nested.is_write);
  ASSERT_EQ(ctx.masters().size(), 2u);
  EXPECT_EQ(ctx.masters()[0].behavior, f.master);
  EXPECT_TRUE(ctx.masters()[0].drives_start_1);
  EXPECT_TRUE(ctx.masters()[0].drives_start_0);
  EXPECT_TRUE(ctx.masters()[0].waits_done);
  EXPECT_EQ(ctx.masters()[1].behavior, f.watcher);
  EXPECT_TRUE(ctx.masters()[1].waits_done);
  EXPECT_EQ(ctx.waits().size(), 10u);
}

TEST(ContextFacts, ConstEvalFoldsDeclaredInitialValues) {
  const FactsFixture f;
  const analysis::Context ctx(f.spec);
  uint64_t value = 0;
  EXPECT_TRUE(ctx.const_eval(*add(ref("x"), ref("sel")), value));
  EXPECT_EQ(value, 5u);
  EXPECT_TRUE(ctx.const_eval(*eq(ref("res"), lit(0)), value));
  EXPECT_EQ(value, 1u);
  // A procedure local is no declared name.
  EXPECT_FALSE(ctx.const_eval(*ref("k"), value));
}

// SA011 folds a wait condition with the simulator's operator semantics
// (sim/value.h), so it fires exactly on the waits a run blocks on forever.
TEST(ContextFacts, ConstEvalShiftsModulo64LikeTheSimulator) {
  const Specification spec = testing::parse_or_die(
      "spec Shift;\n"
      "signal s : int8 := 1;\n"
      "behavior W : leaf { wait (s << 64) == 1; }\n");
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_FALSE(rep.has("SA011")) << dump(rep);
  EXPECT_TRUE(testing::run(spec).root_completed);  // 1 << (64 & 63) == 1
}

TEST(ContextFacts, ConstEvalDividesByZeroLikeTheSimulator) {
  const Specification spec = testing::parse_or_die(
      "spec DivZero;\n"
      "signal s : int8 := 1;\n"
      "behavior W : leaf { wait (s / 0) != 0; }\n");
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA011")) << dump(rep);
  EXPECT_FALSE(testing::run(spec).root_completed);  // 1 / 0 == 0
}

TEST(ContextFacts, ServeLoopDecodeCases) {
  const FactsFixture f;
  const analysis::Context ctx(f.spec);
  ASSERT_EQ(ctx.slaves().size(), 1u);
  const analysis::SlavePort& port = ctx.slaves()[0];
  EXPECT_EQ(port.behavior, f.mem);
  EXPECT_EQ(port.bus, 0u);
  EXPECT_TRUE(port.serve_loop);
  EXPECT_TRUE(port.full_range);
  EXPECT_TRUE(port.waits_start);
  EXPECT_TRUE(port.drives_done_1);
  EXPECT_TRUE(port.drives_done_0);
  // `gbus_data <= x + y` serves two variables: no read case at 4.
  EXPECT_EQ(port.read_cases,
            (std::map<uint64_t, std::string>{{2, "x"}, {3, "y"}}));
  EXPECT_EQ(port.write_cases, (std::map<uint64_t, std::string>{{2, "x"}}));
}

// -- mutation tests: each checker is live ------------------------------------

TEST(AnalysisMutation, DroppedStartDeassertFiresSA001) {
  Specification spec = refined_medical(ImplModel::Model1);
  const BusTopology topo = BusTopology::discover(spec);
  // In the first master leaf, delete every `<bus>_start <= 0`.
  const std::string leaf_name = erase_in_first_leaf(spec, [&](const Stmt& s) {
    return s.kind == Stmt::Kind::SignalAssign && s.expr &&
           s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 0 &&
           topo.role_of(s.target).role == BusSignalRole::Start;
  });
  ASSERT_FALSE(leaf_name.empty());
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA001")) << dump(rep);
}

TEST(AnalysisMutation, DroppedDonePulseFiresSA002) {
  Specification spec = refined_medical(ImplModel::Model1);
  const BusTopology topo = BusTopology::discover(spec);
  const std::string leaf_name = erase_in_first_leaf(spec, [&](const Stmt& s) {
    return s.kind == Stmt::Kind::SignalAssign && s.expr &&
           s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 1 &&
           topo.role_of(s.target).role == BusSignalRole::Done;
  });
  ASSERT_FALSE(leaf_name.empty());
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA002")) << dump(rep);
}

TEST(AnalysisMutation, DroppedAckWaitFiresSA003) {
  // Model2: every master on the single shared bus acquires it via req/ack.
  Specification spec = refined_medical(ImplModel::Model2);
  const BusTopology topo = BusTopology::discover(spec);
  const std::string leaf_name = erase_in_first_leaf(spec, [&](const Stmt& s) {
    if (s.kind != Stmt::Kind::Wait || !s.expr) return false;
    std::vector<std::string> names;
    s.expr->collect_names(names);
    for (const std::string& n : names) {
      if (topo.role_of(n).role == BusSignalRole::Ack) return true;
    }
    return false;
  });
  ASSERT_FALSE(leaf_name.empty());
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA003")) << dump(rep);
}

// The other two SA003 shapes: a master that transfers without raising its
// request line, and one that raises it but never drops it.
TEST(AnalysisMutation, DroppedRequestAssertFiresSA003) {
  Specification spec = refined_medical(ImplModel::Model2);
  const BusTopology topo = BusTopology::discover(spec);
  const std::string leaf_name = erase_in_first_leaf(spec, [&](const Stmt& s) {
    return s.kind == Stmt::Kind::SignalAssign && s.expr &&
           s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 1 &&
           topo.role_of(s.target).role == BusSignalRole::Req;
  });
  ASSERT_FALSE(leaf_name.empty());
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(has_message(rep, "SA003",
                          "' without asserting any request line"))
      << dump(rep);
}

TEST(AnalysisMutation, DroppedRequestReleaseFiresSA003) {
  Specification spec = refined_medical(ImplModel::Model2);
  const BusTopology topo = BusTopology::discover(spec);
  const std::string leaf_name = erase_in_first_leaf(spec, [&](const Stmt& s) {
    return s.kind == Stmt::Kind::SignalAssign && s.expr &&
           s.expr->kind == Expr::Kind::IntLit && s.expr->int_value == 0 &&
           topo.role_of(s.target).role == BusSignalRole::Req;
  });
  ASSERT_FALSE(leaf_name.empty());
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(has_message(rep, "SA003", "never releases its request on bus"))
      << dump(rep);
}

// Three of the six bundle members under one stem: a renamed or half-deleted
// bus, reported with the members it lacks.
TEST(AnalysisMutation, PartialBundleFiresSA004) {
  Specification spec = refined_medical(ImplModel::Model1);
  for (const char* name : {"pb_start", "pb_rd", "pb_addr"}) {
    spec.signals.push_back(signal(name));
  }
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(has_message(rep, "SA004",
                          "signals of 'pb' look like a bus bundle but lack: "
                          "pb_done, pb_wr, pb_data"))
      << dump(rep);
}

TEST(AnalysisMutation, BusHoldCycleFiresSA010) {
  // Two forwarding servers, each serving one bus while mastering the other:
  // the textbook hold-and-wait cycle.
  Specification spec;
  spec.name = "deadlock";
  declare_bus(spec, "A");
  declare_bus(spec, "B");
  auto serve_and_forward = [](const std::string& name, const std::string& in,
                              const std::string& out) {
    auto b = leaf(name,
                  block(loop(block(
                      wait(eq(ref(in + "_start"), lit(1, Type::bit()))),
                      sassign(out + "_rd", lit(1, Type::bit())),
                      sassign(out + "_addr", lit(0)),
                      sassign(out + "_start", lit(1, Type::bit())),
                      wait_eq(out + "_done", 1),
                      assign(name + "_buf", ref(out + "_data")),
                      sassign(out + "_rd", lit(0, Type::bit())),
                      sassign(out + "_start", lit(0, Type::bit())),
                      wait_eq(out + "_done", 0), set(in + "_done", 1),
                      wait_eq(in + "_start", 0), set(in + "_done", 0)))));
    b->vars.push_back(var(name + "_buf", Type::u32()));
    return b;
  };
  spec.top = conc("SYS", behaviors(serve_and_forward("F1", "A", "B"),
                                   serve_and_forward("F2", "B", "A")));
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA010")) << dump(rep);
}

TEST(AnalysisMutation, UnsatisfiableWaitFiresSA011) {
  Specification spec;
  spec.name = "stuck";
  spec.signals.push_back(signal("go"));
  spec.top = conc("SYS", behaviors(leaf("W", block(wait_eq("go", 1),
                                                   assign("x", lit(1)))),
                                   leaf("P", block(assign("y", lit(2))))));
  spec.top->children[0]->vars.push_back(var("x", Type::u32()));
  spec.top->children[1]->vars.push_back(var("y", Type::u32()));
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA011")) << dump(rep);
}

TEST(AnalysisMutation, BusBypassFiresSA020) {
  Specification spec = refined_medical(ImplModel::Model1);
  // Pick a variable the refiner put behind a bus (a mediated access exists),
  // then write it directly from a control stub in another subtree — exactly
  // the access data refinement exists to rewrite.
  std::string victim;
  {
    const analysis::Context ctx(spec);
    for (const auto& [name, accesses] : ctx.var_access()) {
      for (const analysis::VarAccess& a : accesses) {
        if (a.bus_mediated) {
          victim = name;
          break;
        }
      }
      if (!victim.empty()) break;
    }
  }
  ASSERT_FALSE(victim.empty());
  const std::string stub = find_by_suffix(spec, "_CTRL");
  ASSERT_FALSE(stub.empty());
  spec.find_behavior(stub)->body.push_back(assign(victim, lit(7)));
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA020")) << dump(rep);
}

TEST(AnalysisMutation, OverlappingDecodesFireSA030) {
  // Two memories on one bus both decoding address 0.
  Specification spec;
  spec.name = "overlap";
  declare_bus(spec, "G");
  auto master = leaf("M", master_read("G", 0, "t"));
  master->vars.push_back(var("t", Type::u32()));
  spec.top = conc("SYS", behaviors(std::move(master),
                                   memory_leaf("MEM1", "G", 0, "v1"),
                                   memory_leaf("MEM2", "G", 0, "v2")));
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA030")) << dump(rep);
}

TEST(AnalysisMutation, UnmappedMasterAddressFiresSA031) {
  Specification spec = refined_medical(ImplModel::Model1);
  const BusTopology topo = BusTopology::discover(spec);
  // Retarget the first literal master address to far outside the map.
  bool done = false;
  spec.top->for_each([&](Behavior& b) {
    if (done || !b.is_leaf()) return;
    for_each_stmt(b.body, [&](Stmt& s) {
      if (!done && s.kind == Stmt::Kind::SignalAssign && s.expr &&
          s.expr->kind == Expr::Kind::IntLit &&
          topo.role_of(s.target).role == BusSignalRole::Addr) {
        s.expr->int_value += 100000;
        done = true;
      }
    });
  });
  ASSERT_TRUE(done);
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA031")) << dump(rep);
}

TEST(AnalysisMutation, DeadDecodeFiresSA032) {
  // The slave serves addresses 0 and 7; no master ever addresses 7.
  Specification spec;
  spec.name = "dead_decode";
  declare_bus(spec, "G");
  auto master = leaf("M", master_read("G", 0, "t"));
  master->vars.push_back(var("t", Type::u32()));
  auto mem = leaf(
      "MEM",
      block(loop(block(
          wait(land(eq(ref("G_start"), lit(1, Type::bit())),
                    lor(eq(ref("G_addr"), lit(0)),
                        eq(ref("G_addr"), lit(7))))),
          if_(eq(ref("G_rd"), lit(1, Type::bit())),
              block(if_(eq(ref("G_addr"), lit(0)),
                        block(sassign("G_data", ref("v1")))),
                    if_(eq(ref("G_addr"), lit(7)),
                        block(sassign("G_data", ref("v2")))))),
          if_(eq(ref("G_wr"), lit(1, Type::bit())),
              block(if_(eq(ref("G_addr"), lit(0)),
                        block(assign("v1", ref("G_data")))),
                    if_(eq(ref("G_addr"), lit(7)),
                        block(assign("v2", ref("G_data")))))),
          set("G_done", 1), wait_eq("G_start", 0), set("G_done", 0)))));
  mem->vars.push_back(var("v1", Type::u32()));
  mem->vars.push_back(var("v2", Type::u32()));
  spec.top = conc("SYS", behaviors(std::move(master), std::move(mem)));
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA032")) << dump(rep);
  EXPECT_FALSE(rep.has("SA031")) << dump(rep);
}

TEST(AnalysisMutation, DeletedArbiterFiresSA040) {
  Specification spec = refined_medical(ImplModel::Model2);
  std::string arb_name;
  for (const Behavior* b : spec.all_behaviors()) {
    if (b->name.rfind("ARB_", 0) == 0) arb_name = b->name;
  }
  ASSERT_FALSE(arb_name.empty());
  delete_behavior(spec, arb_name);
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA040")) << dump(rep);
}

TEST(AnalysisMutation, SwappedArbiterPrioritiesFireSA041) {
  Specification spec = refined_medical(ImplModel::Model2);
  std::string arb_name;
  for (const Behavior* b : spec.all_behaviors()) {
    if (b->name.rfind("ARB_", 0) == 0) arb_name = b->name;
  }
  ASSERT_FALSE(arb_name.empty());
  Behavior* arb = spec.find_behavior(arb_name);
  // Swap the request conditions of the outer if and its first nested else-if:
  // the arbiter then tests priorities out of declaration order.
  Stmt* outer = nullptr;
  for_each_stmt(arb->body, [&](Stmt& s) {
    if (outer == nullptr && s.kind == Stmt::Kind::If) outer = &s;
  });
  ASSERT_NE(outer, nullptr);
  ASSERT_FALSE(outer->else_block.empty());
  Stmt* inner = outer->else_block.front().get();
  ASSERT_EQ(inner->kind, Stmt::Kind::If);
  std::swap(outer->expr, inner->expr);
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA041")) << dump(rep);
}

TEST(AnalysisMutation, DeletedServerFiresSA050) {
  Specification spec = refined_medical(ImplModel::Model1);
  const std::string server = find_by_suffix(spec, "_NEW");
  ASSERT_FALSE(server.empty());
  delete_behavior(spec, server);
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA050")) << dump(rep);
}

TEST(AnalysisMutation, DeletedStubFiresSA051) {
  Specification spec = refined_medical(ImplModel::Model1);
  const std::string stub = find_by_suffix(spec, "_CTRL");
  ASSERT_FALSE(stub.empty());
  delete_behavior(spec, stub);
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA051")) << dump(rep);
}

TEST(AnalysisMutation, BrokenStubHandshakeFiresSA052) {
  Specification spec = refined_medical(ImplModel::Model1);
  const std::string stub = find_by_suffix(spec, "_CTRL");
  ASSERT_FALSE(stub.empty());
  Behavior* b = spec.find_behavior(stub);
  // The stub pulses <B>_start; removing the deassert breaks the 4-phase
  // shape without touching stub or server uniqueness.
  const std::string start_sig = stub.substr(0, stub.size() - 5) + "_start";
  erase_stmts(b->body, [&](const Stmt& s) {
    return is_sassign_level(s, start_sig, 0);
  });
  const analysis::Report rep = analysis::analyze(spec);
  EXPECT_TRUE(rep.has("SA052")) << dump(rep);
}

TEST(Analysis, JsonReportIsWellFormed) {
  Specification spec = refined_medical(ImplModel::Model1);
  const std::string stub = find_by_suffix(spec, "_CTRL");
  ASSERT_FALSE(stub.empty());
  delete_behavior(spec, stub);
  const analysis::Report rep = analysis::analyze(spec);
  const std::string json = rep.json(spec.name);
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  EXPECT_NE(json.find("\"SA051\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\""), std::string::npos);
}

}  // namespace
}  // namespace specsyn
