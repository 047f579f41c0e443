// Shared helpers for the test suite: tiny canned specifications and
// convenience runners.
#pragma once

#include <string>
#include <vector>

#include "parser/parser.h"
#include "printer/printer.h"
#include "sim/simulator.h"
#include "spec/builder.h"

namespace specsyn::testing {

/// Parses SpecLang text or aborts the test with the parser diagnostics.
inline Specification parse_or_die(const std::string& text) {
  DiagnosticSink diags;
  auto spec = parse_spec(text, diags);
  if (!spec) {
    throw SpecError("test spec failed to parse:\n" + diags.str());
  }
  return std::move(*spec);
}

/// Validates or aborts with the diagnostics.
inline void expect_valid(const Specification& spec) {
  validate_or_throw(spec);
}

/// Runs a spec to quiescence and returns the result.
inline SimResult run(const Specification& spec, SimConfig cfg = {}) {
  Simulator sim(spec, cfg);
  return sim.run();
}

/// The canonical run of `plan` under `cfg` with its schedule recorded: a
/// baseline for analysis::schedules::explore and check_inclusion.
inline SimResult recorded_run(std::shared_ptr<const SimPlan> plan,
                              SimConfig cfg = {}) {
  cfg.record_schedule = true;
  return Simulator(std::move(plan), std::move(cfg)).run();
}

/// The paper's Section 2 example: behaviors A, B, C under a sequential
/// composite with guarded arcs A->(x>1)B, A->(x<1)C; B and C read/write x.
/// `x_seed` steers which arc fires.
inline Specification abc_spec(uint64_t x_seed) {
  using namespace build;
  Specification s;
  s.name = "ABCExample";
  s.vars.push_back(var("x", Type::u16(), 0, /*observable=*/true));
  s.vars.push_back(var("r", Type::u16(), 0, /*observable=*/true));
  auto a = leaf("A", block(assign("x", lit(x_seed))));
  auto b = leaf("B", block(assign("r", add(ref("x"), lit(10)))));
  auto c = leaf("C", block(assign("r", add(ref("x"), lit(100)))));
  std::vector<Transition> ts;
  ts.push_back(on("A", gt(ref("x"), lit(1)), "B"));
  ts.push_back(on("A", lt(ref("x"), lit(1)), "C"));
  ts.push_back(done("B"));
  ts.push_back(done("C"));
  s.top = seq("Main", behaviors(std::move(a), std::move(b), std::move(c)),
              std::move(ts));
  return s;
}

/// A mid-sized sequential spec with mixed private/shared variable access
/// patterns — enough structure for the ratio partitioner to hit all three
/// goal classes.
inline Specification medical_like_spec() {
  using namespace build;
  Specification s;
  s.name = "MedLike";
  for (const char* v : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    s.vars.push_back(var(v, Type::u16()));
  }
  auto l0 = leaf("L0", block(assign("a", add(ref("a"), lit(1))),
                             assign("e", add(ref("e"), ref("a"))),
                             assign("g", add(ref("g"), lit(1)))));
  auto l1 = leaf("L1", block(assign("b", add(ref("b"), lit(2))),
                             assign("f", add(ref("f"), ref("b")))));
  auto l2 = leaf("L2", block(assign("c", add(ref("c"), lit(3))),
                             assign("e", add(ref("e"), ref("c")))));
  auto l3 = leaf("L3", block(assign("d", add(ref("d"), lit(1))),
                             assign("f", add(ref("f"), ref("d"))),
                             assign("g", add(ref("g"), ref("d")))));
  auto l4 = leaf("L4", block(assign("h", add(ref("h"), lit(1)))));
  auto l5 = leaf("L5", block(assign("h", mul(ref("h"), lit(2)))));
  s.top = seq("Top", behaviors(std::move(l0), std::move(l1), std::move(l2),
                               std::move(l3), std::move(l4), std::move(l5)));
  return s;
}

/// Two concurrent writers storing different constants into one shared
/// observable variable — the canonical schedule-sensitive spec.
inline Specification racy_spec() {
  using namespace build;
  Specification s;
  s.name = "Racy";
  s.vars.push_back(var("winner", Type::u8(), 0, /*observable=*/true));
  auto a = leaf("WriterA", block(assign("winner", lit(1))));
  auto b = leaf("WriterB", block(assign("winner", lit(2))));
  s.top = conc("Race", behaviors(std::move(a), std::move(b)));
  return s;
}

// Records every observer callback as a printable line, with slots and ids
// resolved to names through the Binding, so whole streams can be compared
// across tiers; proves every tier fires the same events at the same times in
// the same order.
class RecordingObserver : public SlotObserver {
 public:
  void on_bind(const Binding& b) override {
    binding_ = b;
    add("bind", std::to_string(b.vars->size()),
        std::to_string(b.signals->size()), 0, b.behavior_names->size());
  }
  void on_var_read(uint32_t slot, uint32_t behavior, uint64_t time) override {
    add("read", var(slot), name(behavior), time, 0);
  }
  void on_var_write(uint32_t slot, uint32_t behavior, uint64_t time,
                    uint64_t value) override {
    add("write", var(slot), name(behavior), time, value);
  }
  void on_signal_commit(uint32_t slot, uint64_t time,
                        uint64_t value) override {
    add("commit", signal(slot), "", time, value);
  }
  void on_signal_schedule(uint32_t slot, uint32_t behavior, uint64_t time,
                          uint64_t value) override {
    add("schedule", signal(slot), name(behavior), time, value);
  }
  void on_behavior_start(uint32_t behavior, uint64_t process,
                         uint64_t time) override {
    add("start", name(behavior), std::to_string(process), time, 0);
  }
  void on_behavior_end(uint32_t behavior, uint64_t process,
                       uint64_t time) override {
    add("end", name(behavior), std::to_string(process), time, 0);
  }
  void on_run_end(uint64_t end_time) override {
    add("run_end", "", "", end_time, 0);
  }

  std::vector<std::string> events;

 private:
  [[nodiscard]] const std::string& var(uint32_t slot) const {
    return binding_.vars->name_of(slot);
  }
  [[nodiscard]] const std::string& signal(uint32_t slot) const {
    return binding_.signals->name_of(slot);
  }
  [[nodiscard]] const std::string& name(uint32_t behavior) const {
    return binding_.behavior_names->at(behavior);
  }
  void add(const char* kind, const std::string& a, const std::string& b,
           uint64_t time, uint64_t value) {
    events.push_back(std::string(kind) + " " + a + " " + b + " @" +
                     std::to_string(time) + " = " + std::to_string(value));
  }

  Binding binding_;
};

}  // namespace specsyn::testing
