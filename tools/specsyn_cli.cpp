// specsyn — command-line front end to the model-refinement library.
//
//   specsyn check    <file.spec> [--json]            parse + validate + stats
//                                                    + static verifier (SA0xx)
//                    [--explore-schedules[=N]]       + bounded schedule
//                    [--jobs N]                      exploration (SA021 with
//                                                    replayable witnesses)
//   specsyn print    <file.spec>                     canonical pretty-print
//   specsyn simulate <file.spec> [options]           run and report results
//   specsyn graph    <file.spec> [partition opts]    Graphviz DOT export
//   specsyn refine   <file.spec> [options]           full model refinement
//   specsyn sweep    <file.spec> [options]           parallel design-space
//                                                    sweep over the model x
//                                                    protocol x scheme matrix
//   specsyn fuzz     [options]                       differential fuzzing
//
// simulate options:
//   --trace FILE           write a Perfetto-loadable Chrome trace-event JSON
//                          (behavior tracks + decoded bus transactions)
//   --metrics              print the per-bus utilization/contention table
//   --metrics-json FILE    write the same bus metrics as JSON
//   --max-cycles N         stop the run after N cycles (default 50M)
//   --clock-hz HZ          nominal clock for cycle->time conversion (100e6)
//   --vcd FILE             dump a VCD waveform of every signal
//   --exec-tier T          execution tier: tree | lowered | bytecode
//                          (default bytecode, or $SPECSYN_EXEC_TIER)
//   --sched-policy P       ready-set tie-break policy: fifo | random | replay
//   --sched-seed N         seed for --sched-policy random
//   --replay-witness W     replay a schedule witness ("picks:1,0,2" or
//                          "seed:42") attached to an SA020/SA021 diagnostic;
//                          reproduces the diverging run byte-for-byte
//
// refine options:
//   --model N              implementation model 1..4 (default 1)
//   --protocol hs|bs       full-handshake / byte-serial (default hs)
//   --scheme loop|wrapper  leaf control-refinement scheme (default loop)
//   --no-inline            emit shared MST_* procedures instead of inlining
//   --assign B=C           pin behavior B to component index C (repeatable)
//   --pin-var V=C          pin variable V to component index C (repeatable)
//   --ratio balanced|local|global   auto-partition to a ratio goal instead
//   --asics N              allocate N ASICs instead of PROC+ASIC
//   --vhdl                 emit VHDL-93 instead of SpecLang
//   --report               emit the architecture report instead of the spec
//   --rates                print the per-bus transfer-rate table
//   --verify               check functional equivalence (exit 1 on mismatch)
//   -o FILE                write primary output to FILE (default stdout)
//
// sweep options:
//   partition options as for refine (--assign/--pin-var/--ratio/--asics),
//   --jobs N               worker threads (default 1; 0 = one per core);
//                          output is byte-identical for any value
//   --verify               also check functional equivalence per point
//   --explore-schedules[=N] partition-consistency check per point
//   --json                 emit the ranked rows as JSON instead of the table
//   --max-cycles N ; --clock-hz HZ ; --exec-tier T ; -o FILE
//
// fuzz options:
//   --seeds N              number of seeds to run (default 100)
//   --seed S               first seed (default 1)
//   --jobs N               worker threads for the seed sweep (default 1;
//                          0 = one per core); output is byte-identical
//   --budget B             generator statement budget per spec (default 40)
//   --reduce               shrink failing specs before writing reproducers
//   --out DIR              reproducer directory (default fuzz-failures)
//   --dump DIR             also dump every generated spec (corpus mining)
//   --json FILE            write the machine-readable report to FILE
//   --inject-bug done|data plant a known refiner bug (oracle self-test)
//   --max-cycles N         per-simulation bound (default 5000000)
//   --explore-schedules[=N] schedule-inclusion oracle depth (default 4)
//   --exec-tier T          as for simulate (equivalence oracle)
//
// global options (every subcommand):
//   --stats                print the telemetry summary table on stderr
//   --stats-json FILE      write the telemetry stats JSON (specsyn-stats-v1)
//   --pipeline-trace FILE  write a Perfetto-loadable Chrome trace of the
//                          tool's own pipeline phases (one lane per worker)
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/verifier.h"
#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "fuzz/fuzzer.h"
#include "estimate/rates.h"
#include "graph/access_graph.h"
#include "parser/parser.h"
#include "partition/partitioner.h"
#include "printer/dot.h"
#include "printer/printer.h"
#include "printer/report.h"
#include "printer/vhdl.h"
#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/sched.h"
#include "sim/vcd.h"
#include "telemetry/telemetry.h"

using namespace specsyn;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: specsyn <check|print|simulate|graph|refine|sweep> "
               "<file.spec> [options]\n"
               "       specsyn fuzz [options]\n"
               "run `specsyn help` for the full option list\n");
  return 2;
}

int help() {
  std::printf(R"(specsyn — model refinement for hardware-software codesign

commands:
  check    <file.spec>   parse, validate, print summary statistics, then run
                         the static refinement verifier (protocol, deadlock,
                         race, address-map, arbiter and control-order checks;
                         exit 1 on any SA0xx error)
                         --json    emit the verifier report as JSON instead
                                   (schema specsyn-check-v1; see
                                   tools/check_diag_json.py)
                         --explore-schedules[=N]  additionally simulate up to
                                   N schedules (default 16), branching only at
                                   SA020-racing ready sets; a divergent
                                   observable outcome becomes an SA021 error
                                   with a replayable witness
                         --jobs N  worker threads for the exploration waves
                                   (default 1; 0 = one per core); output is
                                   byte-identical for any value
  print    <file.spec>   canonical pretty-print
  simulate <file.spec>   run the discrete-event simulator, report results
  graph    <file.spec>   Graphviz DOT of the access graph
  refine   <file.spec>   transform into an implementation model
  sweep    <file.spec>   refine, statically verify, price and simulate every
                         point of the model x protocol x scheme x inline
                         matrix (32 configurations) on a worker pool; print
                         the ranked comparison (the paper's Section 5
                         experiment as one command)
  fuzz                   generate random specs, refine each under a sampled
                         config, and cross-check every pipeline layer
                         (round-trip, interpreter diff, equivalence, static
                         verifier); exit 1 if any seed fails

simulate options:
  --trace FILE           Perfetto-loadable Chrome trace-event JSON: behavior
                         tracks plus decoded bus transactions and counters
  --metrics              per-bus utilization / contention / grant table
  --metrics-json FILE    the same bus metrics as JSON
  --max-cycles N         stop after N cycles (default 50000000)
  --clock-hz HZ          nominal clock for cycle->time conversion (100e6)
  --vcd FILE             dump a VCD waveform of every signal
  --exec-tier T          execution tier: tree (legacy tree-walking), lowered
                         (flattened statement plans), or bytecode (threaded
                         register bytecode). Default bytecode, overridable
                         via $SPECSYN_EXEC_TIER. Every output (--vcd,
                         --trace, --metrics) is identical on all tiers.
  --sched-policy P       ready-set tie-break policy when several processes
                         are runnable at the same instant: fifo (default,
                         event order), random (seeded shuffle), replay
                         (consume --replay-witness picks)
  --sched-seed N         seed for --sched-policy random (default 0)
  --replay-witness W     replay a schedule witness from an SA020/SA021
                         diagnostic ("picks:1,0,2" or "seed:42"); the run
                         reproduces the diverging schedule byte-for-byte on
                         any --exec-tier

refine options:
  --model N ; --protocol hs|bs ; --scheme loop|wrapper ; --no-inline
  --assign B=C ; --pin-var V=C ; --ratio balanced|local|global ; --asics N
  --vhdl ; --report ; --rates ; --verify ; --exec-tier T ; -o FILE

sweep options:
  --jobs N               worker threads (default 1; 0 = one per core); the
                         ranked output is byte-identical for any value
  --verify               also check per-point functional equivalence
  --explore-schedules[=N]  with --verify (implied): per point, check that
                         every refined outcome over up to N explored
                         schedules (default 16) is one the original spec
                         permits (partition consistency); inconsistent
                         points rank last and show RACE in the sched column
  --json                 emit the ranked rows as JSON instead of the table
  partition options as for refine ; --max-cycles N ; --clock-hz HZ ;
  --exec-tier T ; -o FILE

fuzz options:
  --seeds N              number of seeds to run (default 100)
  --seed S               first seed (default 1)
  --jobs N               worker threads for the seed sweep (default 1;
                         0 = one per core); report, reproducers and log are
                         byte-identical for any value
  --budget B             generator statement budget per spec (default 40)
  --reduce               shrink failing specs before writing reproducers
  --out DIR              reproducer directory (default fuzz-failures)
  --dump DIR             also dump every generated spec (corpus mining)
  --json FILE            write the machine-readable report to FILE
  --inject-bug done|data plant a known refiner bug (oracle self-test)
  --max-cycles N         per-simulation bound (default 5000000)
  --explore-schedules[=N]  schedules per side for the schedule-inclusion
                         oracle (default 4; =0 disables)
  --exec-tier T          as for simulate (selects the tier whose runs
                         the equivalence oracle compares)

global options (accepted by every subcommand):
  --stats                print the telemetry summary table (counters,
                         histograms, per-phase span totals) on stderr
  --stats-json FILE      write the telemetry stats as JSON (schema
                         specsyn-stats-v1; the "stable" sections are
                         byte-identical across --jobs values — see
                         tools/check_stats_json.py --strip)
  --pipeline-trace FILE  write a Perfetto-loadable Chrome trace of the
                         tool's own pipeline phases (parse, refine, price,
                         check, lower, simulate, equivalence ...) with one
                         lane per worker thread
  --exec-tier T          execution tier (tree | lowered | bytecode)

telemetry never changes the bytes of any primary output: stats go to stderr
or to the named files only.
)");
  return 0;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Options accepted uniformly by every subcommand (including `fuzz`, which
/// runs its own option loop). One parser, two call sites — the help text and
/// the behavior cannot drift apart per subcommand again.
struct GlobalOpts {
  bool stats = false;
  std::string stats_json_file;
  std::string pipeline_trace_file;
  std::optional<ExecTier> exec_tier;  // unset = process default

  [[nodiscard]] bool stats_requested() const {
    return stats || !stats_json_file.empty();
  }
  [[nodiscard]] bool trace_requested() const {
    return !pipeline_trace_file.empty();
  }
};

/// Tries to consume `f` as a global option. Returns 1 when consumed, 0 when
/// `f` is not a global option, -1 on a malformed value (error already
/// printed). `next` yields the following argv word or nullptr.
template <typename NextFn>
int parse_global_flag(const std::string& f, NextFn&& next, GlobalOpts& g) {
  if (f == "--stats") {
    g.stats = true;
    return 1;
  }
  if (f == "--stats-json") {
    const char* v = next();
    if (!v) return -1;
    g.stats_json_file = v;
    return 1;
  }
  if (f == "--pipeline-trace") {
    const char* v = next();
    if (!v) return -1;
    g.pipeline_trace_file = v;
    return 1;
  }
  if (f == "--exec-tier") {
    const char* v = next();
    if (!v) return -1;
    ExecTier tier;
    if (!parse_exec_tier(v, &tier)) {
      std::fprintf(stderr, "--exec-tier must be tree, lowered or bytecode\n");
      return -1;
    }
    g.exec_tier = tier;
    return 1;
  }
  return 0;
}

/// Emits the requested telemetry outputs. Called once, after the subcommand
/// finished — the summary table goes to stderr, JSON documents to their
/// files, so primary stdout/-o output is never touched. Returns nonzero if
/// a requested file could not be written.
int finish_telemetry(const GlobalOpts& g, const std::string& command) {
  if (!telemetry::enabled()) return 0;
  const telemetry::Snapshot snap = telemetry::snapshot();
  if (g.stats) std::fputs(telemetry::render_stats_table(snap).c_str(), stderr);
  int rc = 0;
  const auto write_doc = [&](const std::string& path, std::string doc,
                             const char* what) {
    if (path.empty()) return;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      rc = 1;
      return;
    }
    out << doc;
    std::fprintf(stderr, "wrote %s (%s, %zu bytes)\n", path.c_str(), what,
                 doc.size());
  };
  write_doc(g.stats_json_file, telemetry::stats_to_json(snap, command),
            "stats");
  write_doc(g.pipeline_trace_file, telemetry::trace_to_chrome_json(snap),
            "pipeline trace");
  return rc;
}

struct Args {
  std::string command;
  std::string file;
  std::string out_file;
  int model = 1;
  ProtocolStyle protocol = ProtocolStyle::FullHandshake;
  LeafScheme scheme = LeafScheme::LoopLeaf;
  bool inline_protocols = true;
  bool vhdl = false;
  bool report = false;
  bool rates = false;
  bool verify = false;
  bool json = false;
  ExecTier exec_tier = default_exec_tier();
  GlobalOpts global;
  bool metrics = false;
  uint64_t max_cycles = 0;  // 0 => SimConfig default
  double clock_hz = 0.0;    // 0 => SimConfig default
  std::string vcd_file;
  std::string trace_file;
  std::string metrics_json_file;
  size_t asics = 0;  // 0 => PROC+ASIC
  size_t jobs = 1;   // sweep/check workers; 0 => one per core
  size_t explore_schedules = 0;  // --explore-schedules[=N]; 0 => off
  SchedPolicy sched_policy = SchedPolicy::Fifo;
  uint64_t sched_seed = 0;
  std::string replay_witness;
  std::vector<std::pair<std::string, size_t>> assigns;
  std::vector<std::pair<std::string, size_t>> var_pins;
  std::string ratio;  // "", balanced, local, global
};

/// `--explore-schedules[=N]` (shared by check, sweep and fuzz). Returns 1
/// when consumed, 0 when `f` is some other flag, -1 on a malformed count
/// (error already printed). The bare form means N=16; `=0` disables.
int parse_explore_flag(const std::string& f, size_t& out) {
  static const std::string kFlag = "--explore-schedules";
  if (f == kFlag) {
    out = 16;
    return 1;
  }
  if (f.rfind(kFlag + "=", 0) != 0) return 0;
  const std::string v = f.substr(kFlag.size() + 1);
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "--explore-schedules expects a schedule count\n");
    return -1;
  }
  out = static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
  return 1;
}

bool parse_kv(const char* arg, std::pair<std::string, size_t>& out) {
  const char* eq = std::strchr(arg, '=');
  if (eq == nullptr || eq == arg) return false;
  out.first.assign(arg, eq);
  out.second = static_cast<size_t>(std::strtoul(eq + 1, nullptr, 10));
  return true;
}

int parse_args(int argc, char** argv, Args& a) {
  if (argc < 2) return usage();
  a.command = argv[1];
  if (a.command == "help" || a.command == "--help") return -1;
  if (argc < 3) return usage();
  a.file = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string f = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", f.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (const int g = parse_global_flag(f, next, a.global); g != 0) {
      if (g < 0) return 2;
      continue;
    }
    if (const int x = parse_explore_flag(f, a.explore_schedules); x != 0) {
      if (x < 0) return 2;
      continue;
    }
    if (f == "--model") {
      const char* v = next();
      if (!v) return 2;
      a.model = std::atoi(v);
      if (a.model < 1 || a.model > 4) {
        std::fprintf(stderr, "--model must be 1..4\n");
        return 2;
      }
    } else if (f == "--protocol") {
      const char* v = next();
      if (!v) return 2;
      if (std::string(v) == "hs") {
        a.protocol = ProtocolStyle::FullHandshake;
      } else if (std::string(v) == "bs") {
        a.protocol = ProtocolStyle::ByteSerial;
      } else {
        std::fprintf(stderr, "--protocol must be hs or bs\n");
        return 2;
      }
    } else if (f == "--scheme") {
      const char* v = next();
      if (!v) return 2;
      a.scheme = std::string(v) == "wrapper" ? LeafScheme::WrapperSeq
                                             : LeafScheme::LoopLeaf;
    } else if (f == "--no-inline") {
      a.inline_protocols = false;
    } else if (f == "--vhdl") {
      a.vhdl = true;
    } else if (f == "--report") {
      a.report = true;
    } else if (f == "--rates") {
      a.rates = true;
    } else if (f == "--verify") {
      a.verify = true;
    } else if (f == "--json") {
      a.json = true;
    } else if (f == "--vcd") {
      const char* v = next();
      if (!v) return 2;
      a.vcd_file = v;
    } else if (f == "--trace") {
      const char* v = next();
      if (!v) return 2;
      a.trace_file = v;
    } else if (f == "--metrics") {
      a.metrics = true;
    } else if (f == "--metrics-json") {
      const char* v = next();
      if (!v) return 2;
      a.metrics_json_file = v;
    } else if (f == "--max-cycles") {
      const char* v = next();
      if (!v) return 2;
      a.max_cycles = std::strtoull(v, nullptr, 10);
      if (a.max_cycles == 0) {
        std::fprintf(stderr, "--max-cycles expects a positive cycle count\n");
        return 2;
      }
    } else if (f == "--clock-hz") {
      const char* v = next();
      if (!v) return 2;
      a.clock_hz = std::strtod(v, nullptr);
      if (a.clock_hz <= 0.0) {
        std::fprintf(stderr, "--clock-hz expects a positive frequency\n");
        return 2;
      }
    } else if (f == "--asics") {
      const char* v = next();
      if (!v) return 2;
      a.asics = static_cast<size_t>(std::atoi(v));
    } else if (f == "--jobs") {
      const char* v = next();
      if (!v) return 2;
      a.jobs = static_cast<size_t>(std::strtoul(v, nullptr, 10));
    } else if (f == "--assign") {
      const char* v = next();
      std::pair<std::string, size_t> kv;
      if (!v || !parse_kv(v, kv)) {
        std::fprintf(stderr, "--assign expects NAME=COMPONENT\n");
        return 2;
      }
      a.assigns.push_back(std::move(kv));
    } else if (f == "--pin-var") {
      const char* v = next();
      std::pair<std::string, size_t> kv;
      if (!v || !parse_kv(v, kv)) {
        std::fprintf(stderr, "--pin-var expects NAME=COMPONENT\n");
        return 2;
      }
      a.var_pins.push_back(std::move(kv));
    } else if (f == "--ratio") {
      const char* v = next();
      if (!v) return 2;
      a.ratio = v;
    } else if (f == "--sched-policy") {
      const char* v = next();
      if (!v) return 2;
      if (!parse_sched_policy(v, &a.sched_policy)) {
        std::fprintf(stderr, "--sched-policy must be fifo, random or replay\n");
        return 2;
      }
    } else if (f == "--sched-seed") {
      const char* v = next();
      if (!v) return 2;
      a.sched_seed = std::strtoull(v, nullptr, 10);
    } else if (f == "--replay-witness") {
      const char* v = next();
      if (!v) return 2;
      a.replay_witness = v;
    } else if (f == "-o") {
      const char* v = next();
      if (!v) return 2;
      a.out_file = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", f.c_str());
      return 2;
    }
  }
  if (a.global.exec_tier) a.exec_tier = *a.global.exec_tier;
  return 0;
}

int write_output(const Args& a, const std::string& text) {
  if (a.out_file.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(a.out_file);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", a.out_file.c_str());
    return 1;
  }
  out << text;
  std::fprintf(stderr, "wrote %s (%zu bytes)\n", a.out_file.c_str(),
               text.size());
  return 0;
}

Partition build_partition(const Args& a, const Specification& spec,
                          const AccessGraph& graph) {
  Allocation alloc = a.asics > 0 ? Allocation::asics(a.asics)
                                 : Allocation::proc_plus_asic();
  if (!a.ratio.empty()) {
    PartitionerOptions opts;
    if (a.ratio == "balanced") {
      opts.goal = RatioGoal::Balanced;
    } else if (a.ratio == "local") {
      opts.goal = RatioGoal::MoreLocal;
    } else if (a.ratio == "global") {
      opts.goal = RatioGoal::MoreGlobal;
    } else {
      throw SpecError("--ratio must be balanced, local or global");
    }
    return make_ratio_partition(spec, graph, std::move(alloc), opts).partition;
  }
  Partition part(spec, std::move(alloc));
  for (const auto& [name, comp] : a.assigns) part.assign_behavior(name, comp);
  for (const auto& [name, comp] : a.var_pins) part.assign_var(name, comp);
  part.auto_assign_vars(graph);
  return part;
}

int cmd_check(const Args& a, const Specification& spec) {
  // One Context serves the static checkers and the exploration's pruning.
  const analysis::Context ctx(spec);
  analysis::Report rep = analysis::analyze(ctx);
  if (a.explore_schedules > 0) {
    analysis::ScheduleCheckOptions sopts;
    sopts.max_schedules = a.explore_schedules;
    sopts.config.exec_tier = a.exec_tier;
    if (a.max_cycles != 0) sopts.config.max_cycles = a.max_cycles;
    const size_t workers =
        a.jobs == 0 ? batch::ThreadPool::default_workers() : a.jobs;
    // Always through a pool (even --jobs 1): exploration waves then take the
    // same code path and emit the same stable telemetry for any job count.
    batch::ThreadPool pool(workers);
    sopts.pool = &pool;
    analysis::check_schedules(ctx, rep, sopts);
  }
  if (a.json) {
    const int rc = write_output(a, rep.json(spec.name));
    return rc != 0 ? rc : (rep.has_errors() ? 1 : 0);
  }
  AccessGraph graph = build_access_graph(spec);
  std::printf("spec %s: OK\n", spec.name.c_str());
  std::printf("  behaviors:     %zu\n", spec.all_behaviors().size());
  std::printf("  variables:     %zu\n", spec.all_vars().size());
  std::printf("  signals:       %zu\n", spec.all_signals().size());
  std::printf("  procedures:    %zu\n", spec.procedures.size());
  std::printf("  statements:    %zu\n", spec.stmt_count());
  std::printf("  lines:         %zu\n", count_lines(print(spec)));
  std::printf("  data channels: %zu\n", graph.data_channel_pairs());
  std::printf("  control arcs:  %zu\n", graph.control_channels().size());
  std::printf("  sequential:    %s\n",
              spec.is_fully_sequential() ? "yes" : "no");
  for (const analysis::Finding& f : rep.findings) {
    std::printf("%s\n", f.str().c_str());
  }
  if (rep.schedules.ran) {
    std::printf("schedule exploration: %llu explored, %llu pruned, "
                "%llu divergent%s\n",
                static_cast<unsigned long long>(rep.schedules.explored),
                static_cast<unsigned long long>(rep.schedules.pruned),
                static_cast<unsigned long long>(rep.schedules.divergent),
                rep.schedules.complete ? "" : " (bound reached)");
  }
  std::printf("static verifier: %zu error(s), %zu warning(s)\n",
              rep.count(Severity::Error), rep.count(Severity::Warning));
  return rep.has_errors() ? 1 : 0;
}

int cmd_simulate(const Args& a, const Specification& spec) {
  SimConfig cfg;
  cfg.exec_tier = a.exec_tier;
  if (a.max_cycles != 0) cfg.max_cycles = a.max_cycles;
  if (a.clock_hz > 0.0) cfg.clock_hz = a.clock_hz;
  cfg.sched_policy = a.sched_policy;
  cfg.sched_seed = a.sched_seed;
  if (!a.replay_witness.empty() &&
      !apply_witness(a.replay_witness, &cfg)) {
    std::fprintf(stderr,
                 "malformed --replay-witness '%s' (expected picks:N,N,... "
                 "or seed:N)\n",
                 a.replay_witness.c_str());
    return 2;
  }
  Simulator sim(spec, cfg);
  std::unique_ptr<VcdRecorder> vcd;
  if (!a.vcd_file.empty()) {
    vcd = std::make_unique<VcdRecorder>(spec);
    sim.add_slot_observer(vcd.get());
  }
  std::unique_ptr<BusTracer> tracer;
  std::unique_ptr<TraceExporter> exporter;
  if (!a.trace_file.empty() || a.metrics || !a.metrics_json_file.empty()) {
    tracer = std::make_unique<BusTracer>(spec);
    sim.add_slot_observer(tracer.get());
  }
  if (!a.trace_file.empty()) {
    exporter = std::make_unique<TraceExporter>(cfg.clock_hz);
    sim.add_slot_observer(exporter.get());
  }
  SimResult r = sim.run();
  if (vcd) {
    std::ofstream out(a.vcd_file);
    out << vcd->str();
    std::fprintf(stderr, "wrote %s (%zu value changes)\n", a.vcd_file.c_str(),
                 vcd->change_count());
  }
  if (exporter) {
    exporter->write(a.trace_file, tracer.get());
    std::fprintf(stderr, "wrote %s (%zu spans, %zu bus transactions)\n",
                 a.trace_file.c_str(), exporter->spans().size(),
                 tracer->transactions().size());
  }
  if (tracer && (a.metrics || !a.metrics_json_file.empty())) {
    const MetricsReport m = MetricsReport::from(*tracer);
    if (a.metrics) std::fputs(m.table().c_str(), stdout);
    if (!a.metrics_json_file.empty()) {
      std::ofstream out(a.metrics_json_file);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", a.metrics_json_file.c_str());
        return 1;
      }
      out << m.to_json() << "\n";
      std::fprintf(stderr, "wrote %s\n", a.metrics_json_file.c_str());
    }
  }
  if (!r.blocked.empty() && !r.root_completed) {
    std::printf("blocked processes:\n");
    for (const BlockedProcess& b : r.blocked) {
      std::printf("  [%llu] in %s waiting on %s\n",
                  static_cast<unsigned long long>(b.process_id),
                  b.behavior.c_str(), b.waiting_on.c_str());
    }
  }
  std::printf("status: %s after %llu cycles (%llu steps)\n",
              r.status == SimResult::Status::Quiescent ? "quiescent"
                                                       : "max-cycles",
              static_cast<unsigned long long>(r.end_time),
              static_cast<unsigned long long>(r.steps));
  std::printf("root completed: %s\n", r.root_completed ? "yes" : "no");
  std::printf("final variable values:\n");
  for (const auto& [name, value] : r.final_vars) {
    std::printf("  %-24s = %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  if (!r.observable_writes.empty()) {
    std::printf("observable writes (%zu):\n", r.observable_writes.size());
    for (const WriteEvent& w : r.observable_writes) {
      std::printf("  t=%-8llu %s := %llu\n",
                  static_cast<unsigned long long>(w.time), w.var.c_str(),
                  static_cast<unsigned long long>(w.value));
    }
  }
  return 0;
}

int cmd_refine(const Args& a, const Specification& spec) {
  AccessGraph graph = build_access_graph(spec);
  Partition part = build_partition(a, spec, graph);
  auto [local_v, global_v] = part.local_global_counts(graph);
  std::fprintf(stderr, "partition: %zu local / %zu global variables\n",
               local_v, global_v);

  RefineConfig cfg;
  cfg.model = static_cast<ImplModel>(a.model - 1);
  cfg.protocol = a.protocol;
  cfg.leaf_scheme = a.scheme;
  cfg.inline_protocols = a.inline_protocols;
  RefineResult r = refine(part, graph, cfg);
  std::fprintf(stderr,
               "%s: %zu buses, %zu memories (%zu ports), %zu arbiters, "
               "%zu interfaces, %zu protocol sites\n",
               to_string(cfg.model), r.stats.buses, r.stats.memories,
               r.stats.memory_ports, r.stats.arbiters, r.stats.interfaces,
               r.stats.inlined_sites);

  if (a.rates) {
    ProfileResult prof = profile_spec(spec);
    BusRateReport rates = bus_rates(prof, part, r.plan, 100e6);
    std::fprintf(stderr, "bus transfer rates (Mbit/s):\n");
    for (const auto& [bus, mbps] : rates.bus_mbps) {
      std::fprintf(stderr, "  %-18s %10.1f\n", bus.c_str(), mbps);
    }
  }
  if (a.report) {
    ProfileResult prof = profile_spec(spec);
    BusRateReport rates = bus_rates(prof, part, r.plan, 100e6);
    return write_output(a, architecture_report(r, part, &rates));
  }
  if (a.verify) {
    EquivalenceOptions eo;
    eo.config.exec_tier = a.exec_tier;
    eo.compare_write_traces = a.protocol == ProtocolStyle::FullHandshake;
    eo.parallel = true;  // overlap the two runs; the report is unaffected
    EquivalenceReport rep = check_equivalence(spec, r.refined, eo);
    std::fprintf(stderr, "equivalence: %s\n", rep.summary().c_str());
    if (!rep.equivalent) return 1;
  }
  return write_output(a, a.vhdl ? to_vhdl(r.refined) : print(r.refined));
}

int cmd_sweep(const Args& a, const Specification& spec) {
  AccessGraph graph = build_access_graph(spec);
  Partition part = build_partition(a, spec, graph);
  auto [local_v, global_v] = part.local_global_counts(graph);
  std::fprintf(stderr, "partition: %zu local / %zu global variables\n",
               local_v, global_v);
  ProfileResult prof = profile_spec(spec);

  batch::SweepOptions so;
  so.exec_tier = a.exec_tier;
  so.verify = a.verify;
  so.explore_schedules = a.explore_schedules;
  if (so.explore_schedules > 0 && !so.verify) {
    std::fprintf(stderr,
                 "note: --explore-schedules implies --verify for sweep\n");
    so.verify = true;
  }
  if (a.max_cycles != 0) so.max_cycles = a.max_cycles;
  if (a.clock_hz > 0.0) so.clock_hz = a.clock_hz;

  const size_t workers =
      a.jobs == 0 ? batch::ThreadPool::default_workers() : a.jobs;
  batch::ThreadPool pool(workers);
  const batch::SweepReport rep = batch::run_sweep(
      spec, part, graph, prof, batch::full_matrix(), so, pool);
  return write_output(a, a.json ? rep.json() : rep.table());
}

// `fuzz` takes no input file, so it parses its own options. Global options
// (--stats*, --pipeline-trace, --exec-tier) go through the same
// parse_global_flag as every other subcommand.
int cmd_fuzz(int argc, char** argv) {
  fuzz::FuzzOptions opts;
  GlobalOpts global;
  std::string json_file;
  for (int i = 2; i < argc; ++i) {
    const std::string f = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", f.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (const int g = parse_global_flag(f, next, global); g != 0) {
      if (g < 0) return 2;
      continue;
    }
    if (const int x = parse_explore_flag(f, opts.explore_schedules); x != 0) {
      if (x < 0) return 2;
      continue;
    }
    if (f == "--seeds") {
      const char* v = next();
      if (!v) return 2;
      opts.seeds = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (f == "--seed") {
      const char* v = next();
      if (!v) return 2;
      opts.start_seed = std::strtoull(v, nullptr, 10);
    } else if (f == "--budget") {
      const char* v = next();
      if (!v) return 2;
      opts.stmt_budget = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (f == "--jobs") {
      const char* v = next();
      if (!v) return 2;
      opts.jobs = static_cast<size_t>(std::strtoul(v, nullptr, 10));
    } else if (f == "--json") {
      const char* v = next();
      if (!v) return 2;
      json_file = v;
    } else if (f == "--reduce") {
      opts.reduce = true;
    } else if (f == "--out") {
      const char* v = next();
      if (!v) return 2;
      opts.out_dir = v;
    } else if (f == "--dump") {
      const char* v = next();
      if (!v) return 2;
      opts.dump_dir = v;
    } else if (f == "--inject-bug") {
      const char* v = next();
      if (!v) return 2;
      if (!fuzz::parse_injected_bug(v, opts.inject)) {
        std::fprintf(stderr, "--inject-bug must be done, data or none\n");
        return 2;
      }
    } else if (f == "--max-cycles") {
      const char* v = next();
      if (!v) return 2;
      opts.max_cycles = std::strtoull(v, nullptr, 10);
      if (opts.max_cycles == 0) {
        std::fprintf(stderr, "--max-cycles expects a positive cycle count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", f.c_str());
      return 2;
    }
  }
  if (opts.seeds == 0) {
    std::fprintf(stderr, "--seeds expects a positive count\n");
    return 2;
  }
  opts.exec_tier = global.exec_tier;
  telemetry::enable(global.stats_requested(), global.trace_requested());
  const fuzz::FuzzReport report = fuzz::run_fuzz(opts, std::cout);
  int rc = report.ok() ? 0 : 1;
  if (!json_file.empty()) {
    std::ofstream out(json_file, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_file.c_str());
      rc = 1;
    } else {
      out << report.json();
      std::fprintf(stderr, "wrote %s\n", json_file.c_str());
    }
  }
  if (opts.inject != fuzz::InjectedBug::None &&
      report.injections_applied == 0) {
    std::fprintf(stderr,
                 "fuzz: --inject-bug %s never found an applicable site\n",
                 fuzz::to_string(opts.inject));
    rc = 1;
  }
  if (const int trc = finish_telemetry(global, "fuzz"); rc == 0) rc = trc;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "fuzz") {
    try {
      return cmd_fuzz(argc, argv);
    } catch (const SpecError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Args a;
  const int prc = parse_args(argc, argv, a);
  if (prc == -1) return help();
  if (prc != 0) return prc;

  telemetry::enable(a.global.stats_requested(), a.global.trace_requested());

  std::string text;
  if (!read_file(a.file, text)) {
    std::fprintf(stderr, "cannot read %s\n", a.file.c_str());
    return 1;
  }
  DiagnosticSink diags;
  std::optional<Specification> parsed;
  {
    telemetry::Span span("parse", telemetry::Stability::Stable);
    parsed = parse_spec(text, diags);
  }
  if (!parsed) {
    std::fprintf(stderr, "%s", diags.str().c_str());
    return 1;
  }
  Specification spec = std::move(*parsed);
  bool valid;
  {
    telemetry::Span span("validate", telemetry::Stability::Stable);
    valid = validate(spec, diags);
  }
  if (!valid) {
    std::fprintf(stderr, "%s", diags.str().c_str());
    return 1;
  }
  if (diags.all().size() > diags.error_count()) {
    std::fprintf(stderr, "%s", diags.str().c_str());  // warnings
  }

  int rc = 2;
  bool dispatched = true;
  try {
    if (a.command == "check") {
      rc = cmd_check(a, spec);
    } else if (a.command == "print") {
      rc = write_output(a, print(spec));
    } else if (a.command == "simulate") {
      rc = cmd_simulate(a, spec);
    } else if (a.command == "graph") {
      AccessGraph graph = build_access_graph(spec);
      if (!a.assigns.empty() || !a.ratio.empty()) {
        Partition part = build_partition(a, spec, graph);
        rc = write_output(a, to_dot(graph, part));
      } else {
        rc = write_output(a, to_dot(graph));
      }
    } else if (a.command == "refine") {
      rc = cmd_refine(a, spec);
    } else if (a.command == "sweep") {
      rc = cmd_sweep(a, spec);
    } else {
      dispatched = false;
    }
  } catch (const SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!dispatched) return usage();
  if (const int trc = finish_telemetry(a.global, a.command); rc == 0) {
    rc = trc;
  }
  return rc;
}
