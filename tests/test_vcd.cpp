// VcdRecorder tests: header wire declarations, $dumpvars initial values,
// monotone timestamps, deduplication and change_count() accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "refine/refiner.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "spec/builder.h"
#include "workloads/medical.h"

namespace specsyn {
namespace {

using namespace build;

Specification toggler() {
  Specification s;
  s.name = std::string("T");  // a bare literal trips g++ 12 -O3 -Wrestrict
  s.vars = {var("seen", Type::u32(), 0, /*observable=*/true)};
  s.signals = {signal("go"), signal("bus", Type::u8(), 5)};
  auto driver = leaf("Driver", block(sassign("go", lit(1)),
                                     sassign("bus", lit(0x2A)),
                                     wait_eq("go", 1),
                                     sassign("go", lit(0)),
                                     assign("seen", ref("bus"))));
  s.top = std::move(driver);
  return s;
}

struct Recorded {
  VcdRecorder rec;

  explicit Recorded(const Specification& spec) : rec(spec) {
    Simulator sim(spec, SimConfig{});
    sim.add_slot_observer(&rec);
    sim.run();
  }
};

std::string record(const Specification& spec) {
  return Recorded(spec).rec.str();
}

TEST(Vcd, HeaderDeclaresEveryWire) {
  const Specification spec = toggler();
  const std::string vcd = record(spec);
  EXPECT_NE(vcd.find("$timescale 1 ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module T $end"), std::string::npos);
  // One $var per signal with its width; observables ride along by default.
  EXPECT_NE(vcd.find("$var wire 1 ! go $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8 \" bus $end"), std::string::npos);
  EXPECT_NE(vcd.find(" seen $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, DumpvarsHoldsInitialValues) {
  const std::string vcd = record(toggler());
  const size_t begin = vcd.find("$dumpvars");
  const size_t end = vcd.find("$end", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string dump = vcd.substr(begin, end - begin);
  EXPECT_NE(dump.find("0!"), std::string::npos);  // go initializes low
  // bus initializes to 5 = 00000101 on 8 bits.
  EXPECT_NE(dump.find("b00000101 \""), std::string::npos);
  // The dump section sits at time zero.
  const size_t t0 = vcd.find("#0\n");
  ASSERT_NE(t0, std::string::npos);
  EXPECT_LT(t0, begin);
}

TEST(Vcd, TimestampsAreStrictlyIncreasing) {
  const std::string vcd = record(toggler());
  std::istringstream in(vcd);
  std::vector<uint64_t> times;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] == '#') {
      times.push_back(std::stoull(line.substr(1)));
    }
  }
  ASSERT_GE(times.size(), 2u);  // #0 plus at least one change time
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
}

TEST(Vcd, ChangeCountMatchesRecordedEdges) {
  Recorded r(toggler());
  const std::string vcd = r.rec.str();
  // go 0->1 and 1->0, bus 5->42, seen 0->42: four recorded changes.
  // Initial values in $dumpvars do not count.
  EXPECT_EQ(r.rec.change_count(), 4u);
  // Re-commits of an unchanged value are deduplicated: the body holds
  // exactly one rising edge of `go`.
  size_t rising_go = 0;
  const size_t defs_end = vcd.find("$enddefinitions");
  for (size_t at = vcd.find("\n1!", defs_end); at != std::string::npos;
       at = vcd.find("\n1!", at + 1)) {
    ++rising_go;
  }
  EXPECT_EQ(rising_go, 1u);
}

// Every tier feeds the recorder the same commits and observable writes, so
// the dump of a refined model (bus handshakes plus observables) is
// byte-identical between the tree and bytecode tiers.
TEST(Vcd, TreeTierMatchesBytecode) {
  const Specification spec = make_medical_system();
  const AccessGraph graph = build_access_graph(spec);
  auto d = make_medical_design(spec, graph, 1);
  RefineConfig cfg;
  cfg.model = ImplModel::Model1;
  const Specification refined = refine(d.partition, graph, cfg).refined;
  auto dump = [&](ExecTier tier) {
    SimConfig sc;
    sc.exec_tier = tier;
    VcdRecorder rec(refined);
    Simulator sim(refined, sc);
    sim.add_slot_observer(&rec);
    sim.run();
    return std::pair(rec.str(), rec.change_count());
  };
  const auto bytecode = dump(ExecTier::Bytecode);
  const auto tree = dump(ExecTier::Tree);
  EXPECT_GT(bytecode.second, 100u);
  EXPECT_EQ(tree.second, bytecode.second);
  EXPECT_EQ(tree.first, bytecode.first);
}

}  // namespace
}  // namespace specsyn
