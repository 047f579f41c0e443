#include "batch/sweep.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "estimate/cost.h"
#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "printer/printer.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/plan.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "telemetry/telemetry.h"

namespace specsyn::batch {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

SimConfig sim_config(const SweepOptions& opts) {
  SimConfig sc;
  sc.exec_tier = opts.exec_tier;
  if (opts.max_cycles != 0) sc.max_cycles = opts.max_cycles;
  sc.clock_hz = opts.clock_hz;
  return sc;
}

/// The original spec's outcome under the sweep's SimConfig and, under
/// --explore-schedules, its explored schedules: made once per sweep and
/// shared read-only by every point's equivalence and inclusion checks.
struct OriginalRun {
  Outcome outcome;
  std::optional<analysis::schedules::ExploreResult> explored;
  std::optional<std::string> error;  ///< what simulating or exploring threw
};

/// Refine + verify + price + simulate one matrix point. Everything this
/// reads is shared const and everything it writes lives in the returned
/// row — the determinism contract of ThreadPool jobs.
SweepRow eval_point(const Specification& spec, const Partition& part,
                    const AccessGraph& graph, const ProfileResult& prof,
                    const SweepOptions& opts, const OriginalRun& original,
                    const SweepPoint& point, size_t index) {
  SweepRow row;
  row.point = point;
  row.matrix_index = index;
  telemetry::Span tm_point("sweep.point", telemetry::Stability::Stable,
                           telemetry::enabled() ? point.label()
                                                : std::string());
  try {
    RefineResult r = refine(part, graph, point.config);
    const auto [rates, cost] = [&] {
      telemetry::Span span("price", telemetry::Stability::Stable);
      BusRateReport rr = bus_rates(prof, part, r.plan, opts.clock_hz);
      CostReport cr = estimate_cost(r, rr);
      return std::pair(std::move(rr), std::move(cr));
    }();
    row.buses = r.stats.buses;
    row.lines = count_lines(r.refined);
    row.peak_mbps = rates.max_rate();
    row.cost = cost.total;

    // One Context and one plan per refined spec: the Context serves the
    // verifier, the bus tracer and schedule-inclusion pruning, the plan the
    // measured run and every explored schedule.
    const analysis::Context rctx(r.refined);
    const analysis::Report rep = analysis::analyze(rctx);
    row.sa_errors = rep.count(Severity::Error);
    row.sa_warnings = rep.count(Severity::Warning);

    const SimConfig sc = sim_config(opts);
    const std::shared_ptr<const SimPlan> plan =
        SimPlan::build(r.refined, sc.exec_tier);
    Simulator sim(plan, sc);
    BusTracer tracer(rctx);
    sim.add_slot_observer(&tracer);
    const SimResult res = sim.run();
    row.cycles = res.end_time;
    row.root_completed = top_completed(spec, res);
    const MetricsReport m = MetricsReport::from(tracer);
    for (const MetricsReport::BusRow& b : m.buses) {
      row.contention_cycles += b.contention_cycles;
      if (b.utilization_pct > row.peak_util_pct) {
        row.peak_util_pct = b.utilization_pct;
        row.busiest_bus = b.name;
      }
    }

    if (opts.verify) {
      const bool compare_write_traces =
          keeps_write_sequences(point.config.protocol);
      row.verified = true;
      if (original.error) throw SpecError(*original.error);
      // The measured run doubles as the refined side: observers never
      // change a SimResult, and both runs used the same SimConfig.
      row.equivalent = compare_results(spec, original.outcome, res,
                                       compare_write_traces)
                           .equivalent;

      if (original.explored) {
        analysis::schedules::ExploreOptions xo;
        xo.max_schedules = opts.explore_schedules;
        xo.config = sc;
        xo.compare_write_traces = compare_write_traces;
        const analysis::schedules::InclusionResult inc =
            analysis::schedules::check_inclusion(spec, *original.explored,
                                                 rctx, plan, xo);
        row.sched_checked = true;
        row.sched_consistent = inc.holds;
        row.sched_explored = inc.refined_explored;
      }
    }
    row.refine_ok = true;
  } catch (const SpecError& e) {
    row.refine_ok = false;
    row.error = e.what();
  }
  return row;
}

}  // namespace

std::string SweepPoint::label() const {
  std::string s = "model";
  s += std::to_string(static_cast<int>(config.model) + 1);
  s += '/';
  s += kProtocolNames[static_cast<size_t>(config.protocol)];
  s += '/';
  s += kSchemeNames[static_cast<size_t>(config.leaf_scheme)];
  s += config.inline_protocols ? "/inline" : "/shared";
  return s;
}

std::vector<SweepPoint> full_matrix() {
  std::vector<SweepPoint> points;
  points.reserve(32);
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    for (ProtocolStyle p :
         {ProtocolStyle::FullHandshake, ProtocolStyle::ByteSerial}) {
      for (LeafScheme s : {LeafScheme::LoopLeaf, LeafScheme::WrapperSeq}) {
        for (bool inl : {true, false}) {
          SweepPoint pt;
          pt.config.model = m;
          pt.config.protocol = p;
          pt.config.leaf_scheme = s;
          pt.config.inline_protocols = inl;
          points.push_back(pt);
        }
      }
    }
  }
  return points;
}

std::vector<SweepPoint> model_axis() {
  std::vector<SweepPoint> points;
  points.reserve(4);
  for (ImplModel m : {ImplModel::Model1, ImplModel::Model2, ImplModel::Model3,
                      ImplModel::Model4}) {
    SweepPoint pt;
    pt.config.model = m;
    points.push_back(pt);
  }
  return points;
}

SweepReport run_sweep(const Specification& spec, const Partition& part,
                      const AccessGraph& graph, const ProfileResult& prof,
                      const std::vector<SweepPoint>& matrix,
                      const SweepOptions& opts, ThreadPool& pool) {
  SweepReport report;
  report.verify = opts.verify;
  OriginalRun original;
  if (opts.verify) {
    try {
      const SimConfig sc = sim_config(opts);
      const std::shared_ptr<const SimPlan> plan =
          SimPlan::build(spec, sc.exec_tier);
      original.outcome = outcome_of(Simulator(plan, sc).run());
      if (opts.explore_schedules > 0) {
        analysis::schedules::ExploreOptions xo;
        xo.max_schedules = opts.explore_schedules;
        xo.config = sc;
        original.explored =
            analysis::schedules::explore(analysis::Context(spec), plan, xo);
      }
    } catch (const SpecError& e) {
      original.error = e.what();  // lands in every verified row
    }
  }
  report.rows = run_batch<SweepRow>(
      pool, matrix.size(), [&](size_t job, WorkerContext&) {
        return eval_point(spec, part, graph, prof, opts, original, matrix[job],
                          job);
      });
  // Rank best-first. Every key is deterministic per-row data and the matrix
  // index breaks all remaining ties, so the order (and hence table()/json())
  // is identical for any worker count.
  std::stable_sort(
      report.rows.begin(), report.rows.end(),
      [](const SweepRow& x, const SweepRow& y) {
        const auto key = [](const SweepRow& r) {
          return std::make_tuple(r.refine_ok ? 0 : 1,
                                 r.verified && !r.equivalent ? 1 : 0,
                                 r.sched_checked && !r.sched_consistent ? 1
                                                                        : 0,
                                 r.root_completed || !r.refine_ok ? 0 : 1,
                                 r.sa_errors, r.cycles, r.cost,
                                 r.matrix_index);
        };
        return key(x) < key(y);
      });
  return report;
}

const SweepRow* recommend(const SweepReport& report, double max_bus_mbps) {
  const SweepRow* best = nullptr;
  for (const SweepRow& r : report.rows) {
    if (!r.refine_ok || (max_bus_mbps > 0.0 && r.peak_mbps > max_bus_mbps)) {
      continue;
    }
    if (best == nullptr || std::tie(r.cost, r.matrix_index) <
                               std::tie(best->cost, best->matrix_index)) {
      best = &r;
    }
  }
  return best;
}

std::string SweepReport::table() const {
  const bool sched = std::any_of(rows.begin(), rows.end(),
                                 [](const SweepRow& r) {
                                   return r.sched_checked;
                                 });
  std::string out;
  appendf(out, "sweep: %zu configuration(s)%s%s\n", rows.size(),
          verify ? ", equivalence-verified" : "",
          sched ? ", schedule-checked" : "");
  appendf(out, "%4s  %-28s %5s %12s %9s %6s %10s %6s %5s %-5s %s\n", "rank",
          "config", "buses", "peak Mbit/s", "cost", "SA e/w", "cycles",
          "util%", "live", verify ? "equiv" : "", sched ? "sched" : "");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    if (!r.refine_ok) {
      appendf(out, "%4zu  %-28s FAILED: %s\n", i + 1, r.point.label().c_str(),
              r.error.c_str());
      continue;
    }
    char saw[32];
    snprintf(saw, sizeof saw, "%zu/%zu", r.sa_errors, r.sa_warnings);
    appendf(out, "%4zu  %-28s %5zu %12.1f %9.1f %6s %10" PRIu64
                 " %6.1f %5s %-5s %s\n",
            i + 1, r.point.label().c_str(), r.buses, r.peak_mbps, r.cost, saw,
            r.cycles, r.peak_util_pct, r.root_completed ? "yes" : "no",
            !verify ? "" : (r.equivalent ? "yes" : "NO"),
            !r.sched_checked ? "" : (r.sched_consistent ? "ok" : "RACE"));
  }
  return out;
}

std::string SweepReport::json() const {
  std::string out = "{\n";
  appendf(out, "  \"configs\": %zu,\n", rows.size());
  appendf(out, "  \"verify\": %s,\n", verify ? "true" : "false");
  out += "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    out += "    {";
    appendf(out, "\"rank\": %zu, ", i + 1);
    appendf(out, "\"config\": \"%s\", ", r.point.label().c_str());
    appendf(out, "\"model\": %d, ",
            static_cast<int>(r.point.config.model) + 1);
    appendf(out, "\"protocol\": \"%s\", ",
            kProtocolNames[static_cast<size_t>(r.point.config.protocol)]);
    appendf(out, "\"scheme\": \"%s\", ",
            kSchemeNames[static_cast<size_t>(r.point.config.leaf_scheme)]);
    appendf(out, "\"inline\": %s, ",
            r.point.config.inline_protocols ? "true" : "false");
    appendf(out, "\"refine_ok\": %s, ", r.refine_ok ? "true" : "false");
    appendf(out, "\"buses\": %zu, ", r.buses);
    appendf(out, "\"lines\": %zu, ", r.lines);
    appendf(out, "\"peak_mbps\": %.1f, ", r.peak_mbps);
    appendf(out, "\"cost\": %.1f, ", r.cost);
    appendf(out, "\"sa_errors\": %zu, ", r.sa_errors);
    appendf(out, "\"sa_warnings\": %zu, ", r.sa_warnings);
    appendf(out, "\"cycles\": %" PRIu64 ", ", r.cycles);
    appendf(out, "\"root_completed\": %s, ",
            r.root_completed ? "true" : "false");
    appendf(out, "\"peak_util_pct\": %.1f, ", r.peak_util_pct);
    appendf(out, "\"contention_cycles\": %" PRIu64 ", ", r.contention_cycles);
    appendf(out, "\"busiest_bus\": \"%s\", ",
            json_escape(r.busiest_bus).c_str());
    appendf(out, "\"verified\": %s, ", r.verified ? "true" : "false");
    appendf(out, "\"equivalent\": %s, ", r.equivalent ? "true" : "false");
    appendf(out, "\"sched_checked\": %s, ", r.sched_checked ? "true" : "false");
    appendf(out, "\"sched_consistent\": %s, ",
            r.sched_consistent ? "true" : "false");
    appendf(out, "\"sched_explored\": %" PRIu64 ", ", r.sched_explored);
    appendf(out, "\"error\": \"%s\"", json_escape(r.error).c_str());
    out += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace specsyn::batch
