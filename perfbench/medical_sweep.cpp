// medical_sweep: the paper's Section 5 experiment as users run it. One round
// sweeps the full 32-point refinement matrix with equivalence verification
// over each of the three medical designs (96 points, one item per point) on
// a fresh ThreadPool, so per-worker program caches start cold just as in
// one `specsyn sweep` process. Mid-size refined programs simulated to
// completion: simulation and equivalence dominate, the generator and the
// parser never run.
//
// The inputs are fixed by the paper; the workload seed only permutes the
// design order and the matrix order (which changes how jobs pack onto the
// pool, not the work done).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/verifier.h"
#include "batch/sweep.h"
#include "estimate/cost.h"
#include "estimate/rates.h"
#include "fuzz/rng.h"
#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "support/diagnostics.h"
#include "trace.h"
#include "workload.h"
#include "workloads/medical.h"

namespace perfbench {
namespace {

using namespace specsyn;

struct Design {
  int number = 0;
  AccessGraph graph;
  std::optional<PartitionerResult> partitioner;  // references graph
  ProfileResult prof;

  [[nodiscard]] const Partition& part() const {
    return partitioner->partition;
  }
};

template <typename T>
void shuffle(std::vector<T>& v, fuzz::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

void append_row(std::string& out, int design, const batch::SweepRow& r) {
  char buf[320];
  snprintf(buf, sizeof buf,
           "d%d %s ok=%d lines=%zu cycles=%llu buses=%zu sa=%zu/%zu eq=%d "
           "live=%d contention=%llu cost=%.1f peak=%.1f\n",
           design, r.point.label().c_str(), r.refine_ok ? 1 : 0, r.lines,
           static_cast<unsigned long long>(r.cycles), r.buses, r.sa_errors,
           r.sa_warnings, r.equivalent ? 1 : 0, r.root_completed ? 1 : 0,
           static_cast<unsigned long long>(r.contention_cycles), r.cost,
           r.peak_mbps);
  out += buf;
}

class MedicalSweep final : public Workload {
 public:
  MedicalSweep(uint64_t seed, size_t workers)
      : seed_(seed), workers_(workers) {
    opts_.verify = true;
  }

  void setup() override {
    fuzz::Rng rng(seed_);
    std::vector<int> order = {1, 2, 3};
    shuffle(order, rng);
    std::vector<batch::SweepPoint> matrix = batch::full_matrix();
    shuffle(matrix, rng);

    auto spec = std::make_unique<Specification>(make_medical_system());
    validate_or_throw(*spec);
    std::vector<std::unique_ptr<Design>> designs;
    for (int n : order) {
      auto d = std::make_unique<Design>();
      d->number = n;
      d->graph = build_access_graph(*spec);
      d->partitioner.emplace(make_medical_design(*spec, d->graph, n));
      d->prof = profile_spec(*spec);
      designs.push_back(std::move(d));
    }
    // Old designs reference the old spec: drop them first.
    designs_ = std::move(designs);
    spec_ = std::move(spec);
    matrix_ = std::move(matrix);
  }

  [[nodiscard]] size_t setup_reps() const override { return 15; }

  RoundResult warmup() override { return round(false); }

  RoundResult round(bool traced) override {
    batch::ThreadPool pool(workers_);
    RoundResult out;
    for (const auto& d : designs_) {
      std::vector<batch::SweepRow> rows =
          traced ? traced_sweep(*d, pool)
                 : batch::run_sweep(*spec_, d->part(), d->graph, d->prof,
                                    matrix_, opts_, pool)
                       .rows;
      std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.matrix_index < b.matrix_index;
      });
      for (const batch::SweepRow& r : rows) {
        ++out.items;
        out.refined_lines += r.lines;
        out.sim_cycles += r.cycles;
        append_row(out.fingerprint, d->number, r);
        if (!r.refine_ok || !r.equivalent || r.sa_errors != 0 ||
            !r.root_completed) {
          std::string line;
          append_row(line, d->number, r);
          line.pop_back();
          out.fail(line + (r.error.empty() ? "" : " error=" + r.error));
        }
      }
    }
    return out;
  }

 private:
  std::vector<batch::SweepRow> traced_sweep(const Design& d,
                                            batch::ThreadPool& pool) const {
    trace::Span span("batch");
    trace::count("batch.jobs", static_cast<double>(matrix_.size()));
    const uint64_t parent = span.id();
    return batch::run_batch<batch::SweepRow>(
        pool, matrix_.size(), [&](size_t job, batch::WorkerContext& ctx) {
          return traced_point(d, matrix_[job], job, ctx, parent);
        });
  }

  /// The sweep's per-point evaluation (batch/sweep.cpp eval_point), one
  /// module call per span.
  batch::SweepRow traced_point(const Design& d, const batch::SweepPoint& point,
                               size_t index, batch::WorkerContext& ctx,
                               uint64_t parent) const {
    trace::Span job("job", parent);
    batch::SweepRow row;
    row.point = point;
    row.matrix_index = index;
    try {
      RefineResult r = [&] {
        trace::Span s("refine");
        return refine(d.part(), d.graph, point.config);
      }();
      trace::count("refine.behaviors_out",
                   static_cast<double>(r.stats.behaviors));
      {
        trace::Span s("estimate");
        const BusRateReport rates =
            bus_rates(d.prof, d.part(), r.plan, opts_.clock_hz);
        const CostReport cost = estimate_cost(r, rates);
        row.peak_mbps = rates.max_rate();
        row.cost = cost.total;
      }
      row.buses = r.stats.buses;
      {
        trace::Span s("printer");
        row.lines = count_lines(print(r.refined));
      }
      trace::count("printer.lines", static_cast<double>(row.lines));
      {
        trace::Span s("analysis");
        const analysis::Report rep = analysis::analyze(r.refined);
        row.sa_errors = rep.count(Severity::Error);
        row.sa_warnings = rep.count(Severity::Warning);
        trace::count("analysis.findings",
                     static_cast<double>(rep.findings.size()));
      }

      SimConfig sc;
      sc.exec_tier = opts_.exec_tier;
      sc.clock_hz = opts_.clock_hz;
      std::unique_ptr<Simulator> sim;
      {
        trace::Span s("sim.construct");
        sim = std::make_unique<Simulator>(r.refined, sc, ctx.programs);
      }
      std::unique_ptr<BusTracer> tracer;
      if (sc.exec_tier != ExecTier::Tree) {
        trace::Span s("obs");
        tracer = std::make_unique<BusTracer>(r.refined);
        sim->add_slot_observer(tracer.get());
      }
      const SimResult res = [&] {
        trace::Span s("sim.run");
        return sim->run();
      }();
      row.cycles = res.end_time;
      row.root_completed = res.root_completed;
      if (!row.root_completed && spec_->top) {
        const auto it = res.behavior_completions.find(spec_->top->name);
        row.root_completed =
            it != res.behavior_completions.end() && it->second > 0;
      }
      if (tracer) {
        trace::Span s("obs");
        const MetricsReport m = MetricsReport::from(*tracer);
        for (const MetricsReport::BusRow& b : m.buses) {
          row.contention_cycles += b.contention_cycles;
          if (b.utilization_pct > row.peak_util_pct) {
            row.peak_util_pct = b.utilization_pct;
            row.busiest_bus = b.name;
          }
        }
        trace::count("obs.transactions",
                     static_cast<double>(tracer->transactions().size()));
      }

      EquivalenceOptions eo;
      eo.config = sc;
      eo.compare_write_traces =
          point.config.protocol == ProtocolStyle::FullHandshake;
      eo.programs = ctx.programs;
      row.verified = true;
      {
        trace::Span s("sim.equivalence");
        row.equivalent = check_equivalence(*spec_, r.refined, eo).equivalent;
      }
      row.refine_ok = true;
    } catch (const SpecError& e) {
      row.refine_ok = false;
      row.error = e.what();
    }
    return row;
  }

  uint64_t seed_;
  size_t workers_;
  batch::SweepOptions opts_;
  std::unique_ptr<Specification> spec_;
  std::vector<std::unique_ptr<Design>> designs_;
  std::vector<batch::SweepPoint> matrix_;
};

}  // namespace

std::unique_ptr<Workload> make_medical_sweep(uint64_t seed, size_t workers) {
  return std::make_unique<MedicalSweep>(seed, workers);
}

}  // namespace perfbench
