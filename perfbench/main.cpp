// The specsyn benchmark program. Runs one workload as a closed loop for a
// fixed time and prints its metrics; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit ID]
//
// --trace 0: set-up (repeated, median reported), one untimed warm-up round,
//   then timed rounds for S seconds; prints the end-to-end metrics.
// --trace 1: S/2 seconds of untimed-path rounds, then S/2 seconds of traced
//   rounds (benchmark-owned spans plus the library's telemetry counters);
//   prints the per-layer metrics and a self-time table, and writes the spans
//   as Chrome trace JSON under .bench_out/.
//
// Exit status: 0 all outputs correct, 1 some item failed (metrics are still
// printed), 2 refused to run (bad arguments, unoptimized build, or a set
// SPECSYN_EXEC_TIER — either would change what is measured).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.h"
#include "support/json.h"
#include "telemetry/telemetry.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Pool size cap: enough to show pool scaling, small enough to keep the
/// benchmark's footprint bounded on a shared many-core host.
constexpr size_t kMaxWorkers = 4;

const char* const kOutDir = ".bench_out";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// statistics.quantiles-style linear interpolation at fraction q.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string fmt_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

void write_metrics(specsyn::JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.key("value").raw(fmt_number(m.value));
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

/// The timed rounds of one phase (untraced or traced). Rates are medians
/// over rounds: this host class slows down for seconds at a time, and a
/// median round ignores those phases where a mean would absorb them.
struct Phase {
  std::vector<double> round_ms;
  std::vector<double> items_per_s;      ///< per round
  std::vector<double> cpu_ms_per_item;  ///< per round, user + sys
  size_t items = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
};

void absorb_errors(std::vector<std::string>& into, const RoundResult& r,
                   uint32_t round) {
  for (const std::string& e : r.errors) {
    if (into.size() < 20) into.push_back("round " + std::to_string(round) + ": " + e);
  }
}

/// Closed loop: rounds back to back until `seconds` have elapsed (at least
/// one). Every round's output must match the warm-up round's.
Phase run_phase(Workload& w, bool traced, double seconds,
                const RoundResult& warm, uint32_t& round_id) {
  Phase p;
  const Clock::time_point start = Clock::now();
  do {
    trace::set_round(++round_id);
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    RoundResult r;
    {
      trace::Span span("round");
      r = w.round(traced);
    }
    const double dt = seconds_since(t0);
    const double items = static_cast<double>(std::max<size_t>(r.items, 1));
    p.round_ms.push_back(dt * 1e3);
    p.items_per_s.push_back(items / dt);
    p.cpu_ms_per_item.push_back((cpu_seconds() - cpu0) * 1e3 / items);
    if (r.fingerprint != warm.fingerprint) {
      r.fail("round output differs from the warm-up round's");
    }
    if ((r.refined_lines != 0 && r.refined_lines != warm.refined_lines) ||
        (r.sim_cycles != 0 && r.sim_cycles != warm.sim_cycles)) {
      r.fail("refined lines or cycles differ from the warm-up round's");
    }
    p.items += r.items;
    p.failed += std::min(r.failed, r.items);
    absorb_errors(p.errors, r, round_id);
  } while (seconds_since(start) < seconds);
  return p;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Round and pool-job time that no layer span covers. Rounds and jobs are
/// the only spans on their own threads without a parent there, so the
/// denominator of any share of it is root_ms minus the batch spans (a round
/// waiting on its pool would otherwise count twice).
double unattributed_ms(const trace::Summary& s) {
  double ms = 0;
  for (const char* name : {"round", "job"}) {
    if (const auto it = s.spans.find(name); it != s.spans.end()) {
      ms += it->second.self_ms;
    }
  }
  return ms;
}

/// The per-layer metrics of the traced phase; every name is reported on
/// every workload (0 where the workload never calls the layer).
std::vector<Metric> layer_metrics(const trace::Summary& s,
                                  const specsyn::telemetry::Snapshot& tm,
                                  double rounds, size_t workers,
                                  double overhead_pct) {
  const auto span = [&](const char* n) {
    const auto it = s.spans.find(n);
    return it == s.spans.end() ? trace::SpanTotals{} : it->second;
  };
  const auto count = [&](const char* n) {
    const auto it = s.counts.find(n);
    return it == s.counts.end() ? 0.0 : it->second;
  };
  const auto tm_count = [&](const char* n) {
    const auto it = tm.counters.find(n);
    return it == tm.counters.end() ? 0.0 : static_cast<double>(it->second.value);
  };
  const auto self = [&](const char* n) { return span(n).self_ms / rounds; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const auto sim_span = tm.spans.find("simulate");
  const double simulate_s =
      sim_span == tm.spans.end()
          ? 0.0
          : static_cast<double>(sim_span->second.total_ns) / 1e9;
  const double construct = span("sim.construct").self_ms;
  const double run = span("sim.run").self_ms;
  const double batch_ms = span("batch").total_ms;

  return {
      {"sim.run_ms", self("sim.run"), "ms"},
      {"sim.runs", tm_count("sim.runs") / rounds, "count"},
      {"sim.steps", tm_count("sim.steps") / rounds, "count"},
      {"sim.steps_per_s", ratio(tm_count("sim.steps"), simulate_s), "1/s"},
      {"sim.equivalence_ms", self("sim.equivalence"), "ms"},
      {"sim.construct_ms", self("sim.construct"), "ms"},
      {"sim.construct_share", ratio(construct, construct + run), "ratio"},
      {"refine.ms", self("refine"), "ms"},
      {"refine.calls", static_cast<double>(span("refine").spans) / rounds,
       "count"},
      {"refine.behaviors_out", count("refine.behaviors_out") / rounds, "count"},
      {"analysis.ms", self("analysis"), "ms"},
      {"analysis.findings", count("analysis.findings") / rounds, "count"},
      {"schedules.ms", self("schedules"), "ms"},
      {"schedules.explored", tm_count("sched.explored") / rounds, "count"},
      {"schedules.pruned", tm_count("sched.pruned") / rounds, "count"},
      {"parser.ms", self("parser"), "ms"},
      {"parser.mb_per_s",
       ratio(count("parser.bytes") / 1e6, span("parser").self_ms / 1e3),
       "MB/s"},
      {"printer.ms", self("printer"), "ms"},
      {"printer.lines", count("printer.lines") / rounds, "count"},
      {"spec.validate_ms", self("spec.validate"), "ms"},
      {"graph.ms", self("graph"), "ms"},
      {"partition.ms", self("partition"), "ms"},
      {"estimate.ms", self("estimate"), "ms"},
      {"obs.ms", self("obs"), "ms"},
      {"obs.transactions", count("obs.transactions") / rounds, "count"},
      {"batch.wall_ms", batch_ms / rounds, "ms"},
      {"batch.busy_share",
       ratio(span("job").total_ms, static_cast<double>(workers) * batch_ms),
       "ratio"},
      {"batch.jobs", count("batch.jobs") / rounds, "count"},
      {"fuzz.generate_ms", self("fuzz.generate"), "ms"},
      {"fuzz.oracles_ms", span("fuzz.oracles").total_ms / rounds, "ms"},
      {"trace.unattributed_share",
       ratio(unattributed_ms(s), s.root_ms - batch_ms), "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

/// Per-span self time per round, largest first, with the time no layer
/// span covers as "(unattributed)".
void print_self_time_table(const trace::Summary& s, double rounds) {
  const double batch_ms = s.spans.count("batch") ? s.spans.at("batch").total_ms : 0;
  const double work = s.root_ms - batch_ms;
  std::vector<std::pair<std::string, trace::SpanTotals>> rows;
  for (const auto& [name, t] : s.spans) {
    if (name != "round" && name != "job" && name != "batch") {
      rows.emplace_back(name, t);
    }
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  trace::SpanTotals unattributed;
  unattributed.self_ms = unattributed_ms(s);
  rows.emplace_back("(unattributed)", unattributed);
  printf("# self time per round (thread-ms; work = %.1f ms/round)\n",
         work / rounds);
  printf("#   %-20s %10s %12s %12s %7s\n", "layer", "spans", "self ms",
         "total ms", "share");
  for (const auto& [name, t] : rows) {
    printf("#   %-20s %10.1f %12.3f %12.3f %6.1f%%\n", name.c_str(),
           static_cast<double>(t.spans) / rounds, t.self_ms / rounds,
           t.total_ms / rounds, work > 0 ? 100.0 * t.self_ms / work : 0.0);
  }
  if (batch_ms > 0) {
    printf("#   (batch wall, main thread waiting: %.3f ms/round)\n",
           batch_ms / rounds);
  }
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    fprintf(stderr,
            "usage: perfbench --workload medical_sweep|fuzz_campaign|"
            "synthetic_large --seed N --seconds S --trace 0|1 [--commit ID]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  fprintf(stderr, "perfbench: refusing to measure an unoptimized build\n");
  return 2;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    fprintf(stderr, "perfbench: refusing build type '%s'\n", build_type.c_str());
    return 2;
  }
  if (std::getenv("SPECSYN_EXEC_TIER") != nullptr) {
    fprintf(stderr,
            "perfbench: SPECSYN_EXEC_TIER is set; unset it so the library's "
            "default exec tier is measured\n");
    return 2;
  }

  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min(nproc, kMaxWorkers);
  std::unique_ptr<Workload> w;
  if (args.workload == "medical_sweep") {
    w = make_medical_sweep(args.seed, workers);
  } else if (args.workload == "fuzz_campaign") {
    w = make_fuzz_campaign(args.seed, workers);
  } else if (args.workload == "synthetic_large") {
    w = make_synthetic_large(args.seed);
  } else {
    fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool pooled = args.workload != "synthetic_large";
  const char* tier = specsyn::exec_tier_name(specsyn::default_exec_tier());

  printf("# workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
         static_cast<unsigned long long>(args.seed), args.seconds,
         args.trace ? 1 : 0);
  printf("# host: nproc=%zu workers=%zu compiler=\"%s\" build_type=%s "
         "exec_tier=%s commit=%s\n",
         nproc, pooled ? workers : 1, PERFBENCH_COMPILER, build_type.c_str(),
         tier, args.commit.c_str());

  std::vector<double> setup_s;
  for (size_t i = 0; i < w->setup_reps(); ++i) {
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  }

  const RoundResult warm = w->warmup();
  // Peak memory of set-up plus one round: what a one-shot `specsyn sweep` or
  // `fuzz` process holds. Later rounds add only the allocator's retention
  // across fresh pool threads, which varies from run to run by a third.
  const double rss_mb = peak_rss_mb();
  std::vector<std::string> errors;
  absorb_errors(errors, warm, 0);

  uint32_t round_id = 0;
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  const Phase plain = run_phase(*w, false, phase_s, warm, round_id);
  errors.insert(errors.end(), plain.errors.begin(), plain.errors.end());
  size_t attempted = warm.items + plain.items;
  size_t failed = std::min(warm.failed, warm.items) + plain.failed;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"items_per_s", quantile(plain.items_per_s, 0.5), "1/s"},
        {"round_ms_p50", quantile(plain.round_ms, 0.5), "ms"},
        {"cpu_ms_per_item", quantile(plain.cpu_ms_per_item, 0.5), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"refined_lines", static_cast<double>(warm.refined_lines), "count"},
        {"sim_cycles", static_cast<double>(warm.sim_cycles), "count"},
    };
  } else {
    namespace tm = specsyn::telemetry;
    trace::enable(true);
    tm::enable(/*stats=*/true, /*trace=*/false);
    tm::reset();
    const Phase traced = run_phase(*w, true, phase_s, warm, round_id);
    tm::enable(false, false);
    trace::enable(false);
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    attempted += traced.items;
    failed += traced.failed;

    const double rounds = static_cast<double>(traced.round_ms.size());
    const double overhead_pct = (quantile(plain.items_per_s, 0.5) /
                                     quantile(traced.items_per_s, 0.5) -
                                 1.0) * 100.0;
    const trace::Summary summary = trace::summarize();
    metrics = layer_metrics(summary, tm::snapshot(), rounds, workers,
                            overhead_pct);
    printf("# traced rounds=%zu untraced rounds=%zu\n", traced.round_ms.size(),
           plain.round_ms.size());
    print_self_time_table(summary, rounds);

    std::filesystem::create_directories(kOutDir);
    const std::string trace_path = std::string(kOutDir) + "/" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".trace.json";
    std::ofstream(trace_path, std::ios::binary) << trace::chrome_json();
    printf("# spans written to %s\n", trace_path.c_str());
  }

  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(std::max<size_t>(attempted, 1));
  printf("# rounds=%zu items=%zu failed=%zu error_rate=%s\n",
         plain.round_ms.size(), attempted, failed, fmt_number(error_rate).c_str());
  if (plain.round_ms.size() >= 100) {
    printf("# round_ms_p90=%s (%zu rounds)\n",
           fmt_number(quantile(plain.round_ms, 0.9)).c_str(),
           plain.round_ms.size());
  }
  for (const Metric& m : metrics) {
    printf("%-26s %18s %s\n", m.name.c_str(), fmt_number(m.value).c_str(), m.unit);
  }
  for (const std::string& e : errors) printf("# FAIL %s\n", e.c_str());

  // The result file: metadata, per-round times and metrics of this run.
  std::filesystem::create_directories(kOutDir);
  {
    std::string doc;
    specsyn::JsonWriter w(&doc, 2);
    w.begin_object();
    w.kv("workload", args.workload.c_str());
    w.kv("seed", args.seed);
    w.key("seconds").raw(fmt_number(args.seconds));
    w.kv("trace", args.trace);
    w.key("host").begin_object();
    w.kv("nproc", nproc);
    w.kv("workers", pooled ? workers : 1);
    w.kv("compiler", PERFBENCH_COMPILER);
    w.kv("build_type", build_type.c_str());
    w.kv("exec_tier", tier);
    w.kv("commit", args.commit.c_str());
    w.end_object();
    w.key("setup_s").begin_array();
    for (double v : setup_s) w.raw(fmt_number(v));
    w.end_array();
    w.key("round_ms").begin_array();
    for (double v : plain.round_ms) w.raw(fmt_number(v));
    w.end_array();
    w.kv("attempted", attempted);
    w.kv("failed", failed);
    w.key("error_rate").raw(fmt_number(error_rate));
    w.key("metrics");
    write_metrics(w, metrics);
    w.key("errors").begin_array();
    for (const std::string& e : errors) w.value(e);
    w.end_array();
    w.end_object();
    doc += '\n';
    std::ofstream(std::string(kOutDir) + "/" + args.workload + "-seed" +
                      std::to_string(args.seed) + "-trace" +
                      (args.trace ? "1" : "0") + ".json",
                  std::ios::binary)
        << doc;
  }

  std::string result;
  specsyn::JsonWriter rw(&result);
  rw.begin_object();
  rw.kv("correct", failed == 0);
  rw.kv("attempted", attempted);
  rw.kv("failed", failed);
  rw.key("metrics");
  write_metrics(rw, metrics);
  rw.end_object();
  printf("%s\n", result.c_str());
  fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
