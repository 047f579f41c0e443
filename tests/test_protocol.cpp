// Unit tests for the protocol/arbiter/memory generators, exercised both
// structurally and by simulating the generated artifacts in isolation.
#include <gtest/gtest.h>

#include "refine/arbiter_gen.h"
#include "refine/memory_gen.h"
#include "refine/protocol.h"
#include "printer/printer.h"
#include "spec/builder.h"
#include "test_util.h"

namespace specsyn {
namespace {

using namespace build;

TEST(BusSignalsNames, Bundle) {
  BusSignals s = BusSignals::of("b1");
  EXPECT_EQ(s.start, "b1_start");
  EXPECT_EQ(s.done, "b1_done");
  EXPECT_EQ(s.rd, "b1_rd");
  EXPECT_EQ(s.wr, "b1_wr");
  EXPECT_EQ(s.addr, "b1_addr");
  EXPECT_EQ(s.data, "b1_data");
  EXPECT_EQ(req_signal("b1", "M"), "b1_req_M");
  EXPECT_EQ(ack_signal("b1", "M"), "b1_ack_M");
}

TEST(ProtocolGen, SignalDeclarationWidths) {
  ProtocolGen proto(ProtocolStyle::FullHandshake, Type::of_width(5),
                    Type::of_width(24), Type::of_width(24));
  std::vector<SignalDecl> sigs;
  proto.declare_bus_signals("b", sigs);
  ASSERT_EQ(sigs.size(), 6u);
  EXPECT_EQ(sigs[0].type, Type::bit());   // start
  EXPECT_EQ(sigs[4].type.width, 5u);      // addr
  EXPECT_EQ(sigs[5].type.width, 24u);     // data
}

TEST(ProtocolGen, ProcNames) {
  EXPECT_EQ(ProtocolGen::read_proc_name("b1", "M"), "MST_receive_b1_M");
  EXPECT_EQ(ProtocolGen::write_proc_name("b1", ""), "MST_send_b1");
}

TEST(ProtocolGen, HandshakeProcStructure) {
  ProtocolGen proto(ProtocolStyle::FullHandshake, Type::u8(), Type::u16(),
                    Type::u16());
  Procedure rd = proto.master_read_proc("R", "b", "", "");
  ASSERT_EQ(rd.params.size(), 3u);
  EXPECT_EQ(rd.params[0].name, "a");
  EXPECT_FALSE(rd.params[0].is_out);
  EXPECT_TRUE(rd.params[2].is_out);
  EXPECT_TRUE(rd.locals.empty());
  // Unarbitrated: 8 statements (Fig 5d), first raises rd.
  ASSERT_EQ(rd.body.size(), 8u);
  EXPECT_EQ(rd.body[0]->kind, Stmt::Kind::SignalAssign);
  EXPECT_EQ(rd.body[0]->target, "b_rd");

  Procedure rd_arb = proto.master_read_proc("R2", "b", "b_req_M", "b_ack_M");
  EXPECT_EQ(rd_arb.body.size(), 12u);  // + acquire (2) + release (2)
  EXPECT_EQ(rd_arb.body[0]->target, "b_req_M");
  EXPECT_EQ(rd_arb.body.back()->kind, Stmt::Kind::Wait);
}

TEST(ProtocolGen, ByteSerialProcHasBeatLoop) {
  ProtocolGen proto(ProtocolStyle::ByteSerial, Type::u8(), Type::u8(),
                    Type::u32());
  Procedure wr = proto.master_write_proc("W", "b", "", "");
  ASSERT_EQ(wr.locals.size(), 1u);  // k
  const std::string text = print(wr);
  EXPECT_NE(text.find("while k < beats"), std::string::npos);
  Procedure rd = proto.master_read_proc("R", "b", "", "");
  EXPECT_EQ(rd.locals.size(), 3u);  // k, acc, byte_v
}

TEST(ProtocolGen, SlaveLoopGatesOnOwnAddresses) {
  ProtocolGen proto(ProtocolStyle::FullHandshake, Type::u8(), Type::u16(),
                    Type::u16());
  StmtList body = proto.slave_server_loop("b", {{"x", 3, Type::u16()},
                                                {"y", 7, Type::u16()}});
  ASSERT_EQ(body.size(), 1u);
  ASSERT_EQ(body[0]->kind, Stmt::Kind::Loop);
  const Stmt& w = *body[0]->then_block[0];
  ASSERT_EQ(w.kind, Stmt::Kind::Wait);
  const std::string cond = print(*w.expr);
  // Responds only to its own addresses — crucial on shared buses.
  EXPECT_NE(cond.find("b_addr == 3"), std::string::npos);
  EXPECT_NE(cond.find("b_addr == 7"), std::string::npos);
  EXPECT_NE(cond.find("b_start == 1"), std::string::npos);
}

TEST(ProtocolGen, ByteSerialSlaveUsesRanges) {
  ProtocolGen proto(ProtocolStyle::ByteSerial, Type::u8(), Type::u8(),
                    Type::u32());
  StmtList body = proto.slave_server_loop("b", {{"w", 4, Type::u32()}});
  const std::string text = print(*body[0]);
  // 4 beats: addresses 4..7.
  EXPECT_NE(text.find("b_addr >= 4"), std::string::npos);
  EXPECT_NE(text.find("b_addr <= 7"), std::string::npos);
}

// --- end-to-end micro-simulations -----------------------------------------

/// Builds a two-process spec: a master leaf executing `master_body` and a
/// memory slave holding `vars`, connected by bus "b".
Specification transfer_rig(ProtocolStyle style, Type data_t, Type word_t,
                           std::vector<SlaveVar> vars, StmtList master_body,
                           std::vector<Procedure> procs) {
  Specification s;
  s.name = "Rig";
  ProtocolGen proto(style, Type::u8(), data_t, word_t);
  proto.declare_bus_signals("b", s.signals);
  for (auto& p : procs) s.procedures.push_back(std::move(p));

  auto master = leaf("Master", std::move(master_body));
  master->vars.push_back(var("got", word_t, 0, true));

  MemoryModule mod;
  mod.name = "Mem";
  mod.port_buses = {{"b", 0}};
  Specification holder;  // provides the stored variables' declarations
  holder.name = "H";
  for (const SlaveVar& v : vars) {
    mod.vars.push_back(v.name);
    holder.vars.push_back(build::var(v.name, v.type, 0, true));
  }
  AddressMap dummy_map = [&] {
    Partition p(holder, Allocation::asics(1));
    return AddressMap(p, style);
  }();
  (void)dummy_map;
  // Build the memory behavior directly from the slave loop (the address
  // values come from `vars`).
  auto mem = Behavior::make_leaf("Mem", proto.slave_server_loop("b", vars));
  for (const SlaveVar& v : vars) {
    mem->vars.push_back(build::var(v.name, v.type, 0, true));
  }
  s.top = conc("Top", behaviors(std::move(master), std::move(mem)));
  return s;
}

TEST(ProtocolSim, HandshakeWriteThenRead) {
  ProtocolGen proto(ProtocolStyle::FullHandshake, Type::u8(), Type::u16(),
                    Type::u16());
  std::vector<Procedure> procs;
  procs.push_back(proto.master_read_proc("R", "b", "", ""));
  procs.push_back(proto.master_write_proc("W", "b", "", ""));
  StmtList body = block(
      call("W", args(lit(3), lit(1), lit(0xBEEF))),
      call("R", args(lit(3), lit(1), ref("got"))));
  Specification s = transfer_rig(ProtocolStyle::FullHandshake, Type::u16(),
                                 Type::u16(), {{"x", 3, Type::u16()}},
                                 std::move(body), std::move(procs));
  testing::expect_valid(s);
  SimResult r = testing::run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_EQ(r.final_vars.at("x"), 0xBEEFu);
  EXPECT_EQ(r.final_vars.at("got"), 0xBEEFu);
}

TEST(ProtocolSim, ByteSerialRoundTripsWideValues) {
  ProtocolGen proto(ProtocolStyle::ByteSerial, Type::u8(), Type::u8(),
                    Type::of_width(24));
  std::vector<Procedure> procs;
  procs.push_back(proto.master_read_proc("R", "b", "", ""));
  procs.push_back(proto.master_write_proc("W", "b", "", ""));
  // 24-bit variable at base addr 4: 3 beats.
  StmtList body = block(
      call("W", args(lit(4), lit(3), lit(0xABCDEF))),
      call("R", args(lit(4), lit(3), ref("got"))));
  Specification s = transfer_rig(ProtocolStyle::ByteSerial, Type::u8(),
                                 Type::of_width(24),
                                 {{"w", 4, Type::of_width(24)}},
                                 std::move(body), std::move(procs));
  testing::expect_valid(s);
  SimResult r = testing::run(s);
  EXPECT_EQ(r.final_vars.at("w"), 0xABCDEFu);
  EXPECT_EQ(r.final_vars.at("got"), 0xABCDEFu);
}

TEST(ProtocolSim, TwoSlavesOneBusNoCrosstalk) {
  // The regression the property sweep found: two memories share a bus; each
  // must ignore the other's transactions.
  ProtocolGen proto(ProtocolStyle::FullHandshake, Type::u8(), Type::u16(),
                    Type::u16());
  Specification s;
  s.name = "TwoSlaves";
  proto.declare_bus_signals("b", s.signals);
  s.procedures.push_back(proto.master_read_proc("R", "b", "", ""));
  s.procedures.push_back(proto.master_write_proc("W", "b", "", ""));

  auto mem1 = Behavior::make_leaf(
      "Mem1", proto.slave_server_loop("b", {{"x", 0, Type::u16()}}));
  mem1->vars.push_back(var("x", Type::u16(), 0, true));
  auto mem2 = Behavior::make_leaf(
      "Mem2", proto.slave_server_loop("b", {{"y", 1, Type::u16()}}));
  mem2->vars.push_back(var("y", Type::u16(), 0, true));

  auto master = leaf("Master", block(call("W", args(lit(0), lit(1), lit(111))),
                                     call("W", args(lit(1), lit(1), lit(222))),
                                     call("R", args(lit(0), lit(1), ref("g1"))),
                                     call("R", args(lit(1), lit(1), ref("g2")))));
  master->vars.push_back(var("g1", Type::u16(), 0, true));
  master->vars.push_back(var("g2", Type::u16(), 0, true));
  s.top = conc("Top", behaviors(std::move(master), std::move(mem1),
                                std::move(mem2)));
  testing::expect_valid(s);
  SimResult r = testing::run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_EQ(r.final_vars.at("x"), 111u);
  EXPECT_EQ(r.final_vars.at("y"), 222u);
  EXPECT_EQ(r.final_vars.at("g1"), 111u);
  EXPECT_EQ(r.final_vars.at("g2"), 222u);
}

// --- arbiter ----------------------------------------------------------------

TEST(Arbiter, RequiresTwoMasters) {
  EXPECT_THROW(generate_arbiter("b", {"only"}), SpecError);
}

TEST(Arbiter, SignalDeclarations) {
  std::vector<SignalDecl> sigs;
  declare_arbitration_signals("b", {"M1", "M2"}, sigs);
  ASSERT_EQ(sigs.size(), 4u);
  EXPECT_EQ(sigs[0].name, "b_req_M1");
  EXPECT_EQ(sigs[1].name, "b_ack_M1");
}

TEST(Arbiter, MutualExclusionAndPriority) {
  // Two masters request simultaneously and repeatedly; the arbiter must
  // never grant both, and must grant M1 (higher priority) first.
  Specification s;
  s.name = "Arb";
  declare_arbitration_signals("b", {"M1", "M2"}, s.signals);
  s.vars.push_back(var("overlap", Type::u8(), 0, true));
  s.vars.push_back(var("first", Type::u8(), 0, true));
  s.vars.push_back(var("m1_cnt", Type::u8()));
  s.vars.push_back(var("m2_cnt", Type::u8()));

  auto master = [&](const char* name, const char* req, const char* ack,
                    const char* cnt, uint64_t id) {
    // Request; once granted, check the other ack is low; record grant order.
    const std::string other_ack =
        id == 1 ? "b_ack_M2" : "b_ack_M1";
    return leaf(name,
                block(while_(lt(ref(cnt), lit(3)),
                             block(set(req, 1), wait_eq(ack, 1),
                                   if_(eq(ref(other_ack), lit(1, Type::bit())),
                                       block(assign("overlap", lit(1)))),
                                   if_(eq(ref("first"), lit(0)),
                                       block(assign("first", lit(id)))),
                                   delay(3), set(req, 0), wait_eq(ack, 0),
                                   assign(cnt, add(ref(cnt), lit(1)))))));
  };
  auto arb = generate_arbiter("b", {"M1", "M2"});
  s.top = conc("Top", behaviors(master("MA", "b_req_M1", "b_ack_M1",
                                       "m1_cnt", 1),
                                master("MB", "b_req_M2", "b_ack_M2",
                                       "m2_cnt", 2),
                                std::move(arb)));
  testing::expect_valid(s);
  SimResult r = testing::run(s);
  EXPECT_EQ(r.status, SimResult::Status::Quiescent);
  EXPECT_EQ(r.final_vars.at("m1_cnt"), 3u);  // both masters served
  EXPECT_EQ(r.final_vars.at("m2_cnt"), 3u);
  EXPECT_EQ(r.final_vars.at("overlap"), 0u);  // never both granted
  EXPECT_EQ(r.final_vars.at("first"), 1u);    // M1 has priority
}

TEST(Arbiter, ThreeMastersAllServed) {
  Specification s;
  s.name = "Arb3";
  std::vector<std::string> masters = {"A", "B", "C"};
  declare_arbitration_signals("b", masters, s.signals);
  std::vector<BehaviorPtr> procs_b;
  for (const auto& m : masters) {
    s.vars.push_back(var("done_" + m, Type::u8(), 0, true));
    procs_b.push_back(leaf("M" + m,
                           block(set(req_signal("b", m), 1),
                                 wait_eq(ack_signal("b", m), 1), delay(2),
                                 set(req_signal("b", m), 0),
                                 wait_eq(ack_signal("b", m), 0),
                                 assign("done_" + m, lit(1)))));
  }
  procs_b.push_back(generate_arbiter("b", masters));
  s.top = conc("Top", std::move(procs_b));
  testing::expect_valid(s);
  SimResult r = testing::run(s);
  EXPECT_EQ(r.final_vars.at("done_A"), 1u);
  EXPECT_EQ(r.final_vars.at("done_B"), 1u);
  EXPECT_EQ(r.final_vars.at("done_C"), 1u);
}

// --- memory generation --------------------------------------------------------

TEST(MemoryGen, SinglePortShape) {
  Specification orig;
  orig.name = "O";
  orig.vars = {var("x", Type::u16(), 5, true), var("y", Type::u8(), 2)};
  orig.top = leaf("T", block(assign("x", ref("y"))));
  Partition part(orig, Allocation::asics(1));
  AddressMap amap(part, ProtocolStyle::FullHandshake);
  ProtocolGen proto(ProtocolStyle::FullHandshake, amap.addr_type(),
                    amap.data_type(), Type::u16());
  MemoryModule m;
  m.name = "MEM";
  m.vars = {"x", "y"};
  m.port_buses = {{"b", 0}};
  BehaviorPtr b = generate_memory(m, proto, amap, part.index());
  EXPECT_TRUE(b->is_leaf());
  ASSERT_EQ(b->vars.size(), 2u);
  EXPECT_EQ(b->vars[0].init, 5u);               // init preserved
  EXPECT_TRUE(b->vars[0].is_observable);        // observability preserved
}

TEST(MemoryGen, MultiPortIsConcurrentComposite) {
  Specification orig;
  orig.name = "O";
  orig.vars = {var("x", Type::u16())};
  orig.top = leaf("T", block(assign("x", lit(1))));
  Partition part(orig, Allocation::asics(1));
  AddressMap amap(part, ProtocolStyle::FullHandshake);
  ProtocolGen proto(ProtocolStyle::FullHandshake, amap.addr_type(),
                    amap.data_type(), Type::u16());
  MemoryModule m;
  m.name = "GMEM";
  m.vars = {"x"};
  m.port_buses = {{"b1", 0}, {"b2", 1}};
  BehaviorPtr b = generate_memory(m, proto, amap, part.index());
  EXPECT_EQ(b->kind, BehaviorKind::Concurrent);
  EXPECT_EQ(b->children.size(), 2u);
  EXPECT_EQ(b->vars.size(), 1u);  // variables shared at the composite
}

TEST(MemoryGen, Errors) {
  Specification orig;
  orig.name = "O";
  orig.vars = {var("x")};
  orig.top = leaf("T", block(assign("x", lit(1))));
  Partition part(orig, Allocation::asics(1));
  AddressMap amap(part, ProtocolStyle::FullHandshake);
  ProtocolGen proto(ProtocolStyle::FullHandshake, amap.addr_type(),
                    amap.data_type(), Type::u32());
  MemoryModule no_ports;
  no_ports.name = "M";
  no_ports.vars = {"x"};
  EXPECT_THROW(generate_memory(no_ports, proto, amap, part.index()), SpecError);
  MemoryModule ghost;
  ghost.name = "M";
  ghost.vars = {"ghost"};
  ghost.port_buses = {{"b", 0}};
  EXPECT_THROW(generate_memory(ghost, proto, amap, part.index()), SpecError);
}

}  // namespace
}  // namespace specsyn
