// Micro-benchmarks for the compiled execution tiers: lowered and bytecode
// interpretation vs legacy tree-walking of the same specifications, the
// and the one-time compilation cost each tier pays at Simulator
// construction.
//
// All three interpreters drive the same frame machine and produce
// bit-identical SimResults (tests/test_lowering.cpp proves it); this harness
// quantifies the steady-state win of pre-resolved slots (lowered) and
// threaded register bytecode (bytecode) over string-keyed lookups. The
// execution rows construct one simulator up front and reset()+run() per
// iteration — the shape a warm sweep fleet runs in — so they price execution
// alone, while the BM_Construct_* rows price each tier's one-time
// validation/compile cost.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "obs/bus_trace.h"
#include "refine/refiner.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "workloads/medical.h"
#include "workloads/synthetic.h"

namespace specsyn {
namespace {

const Specification& medical() {
  static const Specification spec = make_medical_system();
  return spec;
}

const Specification& refined_medical(ImplModel m) {
  static std::map<ImplModel, RefineResult> cache = [] {
    std::map<ImplModel, RefineResult> c;
    const Specification& spec = medical();
    AccessGraph graph = build_access_graph(spec);
    auto d = make_medical_design(spec, graph, 1);
    for (ImplModel mm : {ImplModel::Model1, ImplModel::Model2,
                         ImplModel::Model3, ImplModel::Model4}) {
      RefineConfig cfg;
      cfg.model = mm;
      c.emplace(mm, refine(d.partition, graph, cfg));
    }
    return c;
  }();
  return cache.at(m).refined;
}

const Specification& synthetic_spec() {
  static const Specification spec = [] {
    SyntheticOptions opts;
    opts.seed = 11;
    opts.leaf_behaviors = 16;
    opts.variables = 20;
    return make_synthetic_spec(opts);
  }();
  return spec;
}

void simulate(benchmark::State& state, const Specification& spec,
              ExecTier tier) {
  SimConfig cfg;
  cfg.exec_tier = tier;
  Simulator sim(spec, cfg);  // validation + compile priced by BM_Construct_*
  uint64_t steps = 0;
  for (auto _ : state) {
    sim.reset();
    SimResult r = sim.run();
    steps = r.steps;
    benchmark::DoNotOptimize(r.final_vars);
  }
  state.counters["steps"] = static_cast<double>(steps);
}

void BM_Lowered_Medical(benchmark::State& state) {
  simulate(state, medical(), ExecTier::Lowered);
}
BENCHMARK(BM_Lowered_Medical);

void BM_Bytecode_Medical(benchmark::State& state) {
  simulate(state, medical(), ExecTier::Bytecode);
}
BENCHMARK(BM_Bytecode_Medical);

void BM_Legacy_Medical(benchmark::State& state) {
  simulate(state, medical(), ExecTier::Tree);
}
BENCHMARK(BM_Legacy_Medical);

void BM_Lowered_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  simulate(state, refined_medical(model), ExecTier::Lowered);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Lowered_RefinedMedical)->DenseRange(0, 3);

void BM_Bytecode_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  simulate(state, refined_medical(model), ExecTier::Bytecode);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Bytecode_RefinedMedical)->DenseRange(0, 3);

void BM_Legacy_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  simulate(state, refined_medical(model), ExecTier::Tree);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Legacy_RefinedMedical)->DenseRange(0, 3);

// Observability price: the same lowered run with a BusTracer attached. Slot
// observers flip the kernel to its observed template instantiation, so the
// delta against BM_Lowered_RefinedMedical is the whole cost of bus tracing —
// and BM_Lowered_RefinedMedical itself (no observers) must not move at all.
void BM_Traced_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  const Specification& spec = refined_medical(model);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Lowered;
  Simulator sim(spec, cfg);
  uint64_t txns = 0;
  for (auto _ : state) {
    BusTracer tracer(spec);
    sim.reset();
    sim.add_slot_observer(&tracer);
    SimResult r = sim.run();
    sim.clear_observers();
    txns = tracer.transactions().size();
    benchmark::DoNotOptimize(r.final_vars);
  }
  state.counters["txns"] = static_cast<double>(txns);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Traced_RefinedMedical)->DenseRange(0, 3);

// The same price under the bytecode tier: tracing hops the VM to its
// observed instantiation, and the unobserved bytecode rows must not move.
void BM_TracedBytecode_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  const Specification& spec = refined_medical(model);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  Simulator sim(spec, cfg);
  uint64_t txns = 0;
  for (auto _ : state) {
    BusTracer tracer(spec);
    sim.reset();
    sim.add_slot_observer(&tracer);
    SimResult r = sim.run();
    sim.clear_observers();
    txns = tracer.transactions().size();
    benchmark::DoNotOptimize(r.final_vars);
  }
  state.counters["txns"] = static_cast<double>(txns);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_TracedBytecode_RefinedMedical)->DenseRange(0, 3);

// Telemetry A/B: the identical bytecode run with stats collection switched
// on. With collection off, every instrumentation site is one relaxed atomic
// load — priced by BM_Bytecode_RefinedMedical above, which must not move.
// This row prices the ON path (span bookkeeping plus the per-run counter
// flush); the regression gate in bench/CMakeLists.txt holds the off:on
// ratio at >= 0.75 — measured overhead is ~0-5%, the slack covers the
// load-window gap between the two rows on shared machines, and a real
// 1.3x+ structural cost still fails the gate.
void BM_BytecodeStats_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  const Specification& spec = refined_medical(model);
  SimConfig cfg;
  cfg.exec_tier = ExecTier::Bytecode;
  Simulator sim(spec, cfg);
  telemetry::enable(true, false);
  uint64_t steps = 0;
  for (auto _ : state) {
    sim.reset();
    SimResult r = sim.run();
    steps = r.steps;
    benchmark::DoNotOptimize(r.final_vars);
  }
  telemetry::enable(false, false);
  telemetry::reset();
  state.counters["steps"] = static_cast<double>(steps);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_BytecodeStats_RefinedMedical)->DenseRange(0, 3);

void BM_Lowered_Synthetic(benchmark::State& state) {
  simulate(state, synthetic_spec(), ExecTier::Lowered);
}
BENCHMARK(BM_Lowered_Synthetic);

void BM_Bytecode_Synthetic(benchmark::State& state) {
  simulate(state, synthetic_spec(), ExecTier::Bytecode);
}
BENCHMARK(BM_Bytecode_Synthetic);

void BM_Legacy_Synthetic(benchmark::State& state) {
  simulate(state, synthetic_spec(), ExecTier::Tree);
}
BENCHMARK(BM_Legacy_Synthetic);

// Construction cost only: validation + table building, plus (compiled tiers)
// the Specification -> Program / BytecodeProgram compile. This is the fixed
// price each tier pays before the first event fires.
void construct(benchmark::State& state, const Specification& spec,
               ExecTier tier) {
  SimConfig cfg;
  cfg.exec_tier = tier;
  for (auto _ : state) {
    Simulator sim(spec, cfg);
    benchmark::DoNotOptimize(sim);
  }
}

void BM_Construct_Lowered_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  construct(state, refined_medical(model), ExecTier::Lowered);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Construct_Lowered_RefinedMedical)->DenseRange(0, 3);

void BM_Construct_Bytecode_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  construct(state, refined_medical(model), ExecTier::Bytecode);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Construct_Bytecode_RefinedMedical)->DenseRange(0, 3);

void BM_Construct_Legacy_RefinedMedical(benchmark::State& state) {
  const auto model = static_cast<ImplModel>(state.range(0));
  construct(state, refined_medical(model), ExecTier::Tree);
  state.SetLabel(to_string(model));
}
BENCHMARK(BM_Construct_Legacy_RefinedMedical)->DenseRange(0, 3);

}  // namespace
}  // namespace specsyn

int main(int argc, char** argv) {
  return specsyn::run_with_json(argc, argv, "BENCH_interp_lowering.json");
}
