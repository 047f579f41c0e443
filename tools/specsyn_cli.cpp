// specsyn — command-line front end to the model-refinement library.
//
//   specsyn <check|print|simulate|graph|refine|sweep> <file.spec> [options]
//   specsyn fuzz [options]
//
// Every option is one row of kOptions below: the parser, its error messages
// and `specsyn help` all read the rows, so run `specsyn help` for the list.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "analysis/context.h"
#include "analysis/schedules/explore.h"
#include "analysis/verifier.h"
#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "estimate/profile.h"
#include "estimate/rates.h"
#include "fuzz/fuzzer.h"
#include "graph/access_graph.h"
#include "obs/bus_trace.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "parser/parser.h"
#include "partition/partitioner.h"
#include "printer/dot.h"
#include "printer/printer.h"
#include "printer/report.h"
#include "printer/vhdl.h"
#include "refine/refiner.h"
#include "sim/equivalence.h"
#include "sim/sched.h"
#include "sim/vcd.h"
#include "telemetry/telemetry.h"

using namespace specsyn;

namespace {

/// One bit per command; an option row holds the set of commands that read it.
enum : unsigned {
  kCheck = 1u << 0,
  kPrint = 1u << 1,
  kSimulate = 1u << 2,
  kGraph = 1u << 3,
  kRefine = 1u << 4,
  kSweep = 1u << 5,
  kFuzz = 1u << 6,
  kEvery = (1u << 7) - 1,
  kPartitioned = kGraph | kRefine | kSweep,
};

using Pins = std::vector<std::pair<std::string, size_t>>;

/// Every option's destination. An unset optional (or an empty path) leaves
/// the command's own default: SimConfig, SweepOptions, FuzzOptions, ...
struct Opts {
  bool stats = false, json = false, metrics = false, no_inline = false,
       vhdl = false, report = false, rates = false, verify = false,
       reduce = false;
  std::optional<size_t> model, protocol, scheme, ratio, asics, jobs,
      max_cycles, explore, exec_tier, seeds, seed, budget, inject;
  std::optional<double> clock_hz;
  std::string out_file, stats_json, pipeline_trace, vcd, trace, metrics_json,
      replay_witness, json_file, out_dir, dump_dir;
  Pins assigns, var_pins;
};

enum class Kind : uint8_t {
  Switch,     // no value
  Count,      // decimal min..max, through parse_count
  Real,       // positive finite real
  Enum,       // one of `names`; stores the index
  Pin,        // NAME=COMPONENT, repeatable
  Path,       // a file or directory
  Schedules,  // --explore-schedules (16) or --explore-schedules=N
};

using Dest = std::variant<bool Opts::*, std::optional<size_t> Opts::*,
                          std::optional<double> Opts::*, std::string Opts::*,
                          Pins Opts::*>;

struct Option {
  const char* flag;
  unsigned commands;
  Kind kind;
  Dest dest;
  const char* arg = "";   // value placeholder in `specsyn help`
  const char* what = "";  // Count/Real/Schedules: the value, in errors
  size_t min = 0, max = SIZE_MAX;           // Count/Schedules bounds
  std::span<const char* const> names = {};  // Enum spellings
  const char* help = "";  // lines after the first start with '\n'
};

/// Upper bound on --jobs. Each worker is a thread, so a larger count buys
/// nothing on any realistic host and can exhaust the process's thread limit.
constexpr size_t kMaxJobs = 256;

/// Upper bound on --asics: one component per ASIC, far beyond any partition
/// the refiner has a use for.
constexpr size_t kMaxAsics = 256;

// Rows print in this order under each command of `specsyn help`; kEvery rows
// print once, under "every command".
const Option kOptions[] = {
    {.flag = "--json", .commands = kCheck | kSweep, .kind = Kind::Switch,
     .dest = &Opts::json,
     .help = "emit JSON instead of text"},
    {.flag = "--explore-schedules", .commands = kCheck | kSweep | kFuzz,
     .kind = Kind::Schedules, .dest = &Opts::explore,
     .what = "schedule count",
     .help = "explore up to N schedules (bare flag: 16), branching\n"
             "only at SA020-racing ready sets; =0 disables"},
    {.flag = "--jobs", .commands = kCheck | kSweep | kFuzz,
     .kind = Kind::Count, .dest = &Opts::jobs, .what = "worker count",
     .max = kMaxJobs,
     .help = "worker threads (default 1; 0 = one per core); the\n"
             "output is byte-identical for any value"},
    {.flag = "--max-cycles", .commands = kCheck | kSimulate | kSweep | kFuzz,
     .kind = Kind::Count, .dest = &Opts::max_cycles, .arg = "N",
     .what = "cycle count", .min = 1,
     .help = "stop each simulation after N cycles (default\n"
             "50000000; fuzz 5000000)"},
    {.flag = "-o", .commands = kCheck | kPrint | kGraph | kRefine | kSweep,
     .kind = Kind::Path, .dest = &Opts::out_file, .arg = "FILE",
     .help = "write the primary output to FILE (default stdout)"},
    {.flag = "--trace", .commands = kSimulate, .kind = Kind::Path,
     .dest = &Opts::trace, .arg = "FILE",
     .help = "Perfetto-loadable Chrome trace-event JSON: behavior\n"
             "tracks plus decoded bus transactions and counters"},
    {.flag = "--metrics", .commands = kSimulate, .kind = Kind::Switch,
     .dest = &Opts::metrics,
     .help = "per-bus utilization / contention / grant table"},
    {.flag = "--metrics-json", .commands = kSimulate, .kind = Kind::Path,
     .dest = &Opts::metrics_json, .arg = "FILE",
     .help = "the same bus metrics as JSON"},
    {.flag = "--clock-hz", .commands = kSimulate | kSweep, .kind = Kind::Real,
     .dest = &Opts::clock_hz, .arg = "HZ", .what = "frequency in Hz",
     .help = "nominal clock for cycle->time conversion (default\n"
             "100e6)"},
    {.flag = "--vcd", .commands = kSimulate, .kind = Kind::Path,
     .dest = &Opts::vcd, .arg = "FILE",
     .help = "dump a VCD waveform of every signal"},
    {.flag = "--replay-witness", .commands = kSimulate, .kind = Kind::Path,
     .dest = &Opts::replay_witness, .arg = "W",
     .help = "replay a schedule witness from an SA020/SA021\n"
             "diagnostic (\"picks:1,0,2\": the ready-set index taken\n"
             "at each instant where several processes are runnable);\n"
             "reproduces the diverging run byte-for-byte on any\n"
             "--exec-tier"},
    {.flag = "--assign", .commands = kPartitioned, .kind = Kind::Pin,
     .dest = &Opts::assigns, .arg = "B=C",
     .help = "pin behavior B to component index C (repeatable)"},
    {.flag = "--pin-var", .commands = kPartitioned, .kind = Kind::Pin,
     .dest = &Opts::var_pins, .arg = "V=C",
     .help = "pin variable V to component index C (repeatable)"},
    {.flag = "--ratio", .commands = kPartitioned, .kind = Kind::Enum,
     .dest = &Opts::ratio, .names = kRatioGoalNames,
     .help = "auto-partition to a local/global variable ratio goal\n"
             "(not with --assign or --pin-var)"},
    {.flag = "--asics", .commands = kPartitioned, .kind = Kind::Count,
     .dest = &Opts::asics, .what = "ASIC count", .max = kMaxAsics,
     .help = "allocate that many ASICs instead of PROC+ASIC\n"
             "(default 0 = PROC+ASIC)"},
    {.flag = "--model", .commands = kRefine, .kind = Kind::Count,
     .dest = &Opts::model, .what = "implementation model", .min = 1,
     .max = 4, .help = "implementation model (default 1)"},
    {.flag = "--protocol", .commands = kRefine, .kind = Kind::Enum,
     .dest = &Opts::protocol, .names = kProtocolNames,
     .help = "full-handshake / byte-serial protocol (default hs)"},
    {.flag = "--scheme", .commands = kRefine, .kind = Kind::Enum,
     .dest = &Opts::scheme, .names = kSchemeNames,
     .help = "leaf control-refinement scheme (default loop)"},
    {.flag = "--no-inline", .commands = kRefine, .kind = Kind::Switch,
     .dest = &Opts::no_inline,
     .help = "emit shared MST_* procedures instead of inlining"},
    {.flag = "--vhdl", .commands = kRefine, .kind = Kind::Switch,
     .dest = &Opts::vhdl, .help = "emit VHDL-93 instead of SpecLang"},
    {.flag = "--report", .commands = kRefine, .kind = Kind::Switch,
     .dest = &Opts::report,
     .help = "emit the architecture report instead of the spec"},
    {.flag = "--rates", .commands = kRefine, .kind = Kind::Switch,
     .dest = &Opts::rates,
     .help = "print the per-bus transfer-rate table on stderr"},
    {.flag = "--verify", .commands = kRefine | kSweep, .kind = Kind::Switch,
     .dest = &Opts::verify,
     .help = "check functional equivalence (refine: exit 1 on a\n"
             "mismatch; sweep: per point)"},
    {.flag = "--seeds", .commands = kFuzz, .kind = Kind::Count,
     .dest = &Opts::seeds, .arg = "N", .what = "seed count", .min = 1,
     .help = "number of seeds to run (default 100)"},
    {.flag = "--seed", .commands = kFuzz, .kind = Kind::Count,
     .dest = &Opts::seed, .arg = "S", .what = "seed",
     .help = "first seed (default 1)"},
    {.flag = "--budget", .commands = kFuzz, .kind = Kind::Count,
     .dest = &Opts::budget, .arg = "B", .what = "statement count",
     .help = "generator statement budget per spec (default 40)"},
    {.flag = "--reduce", .commands = kFuzz, .kind = Kind::Switch,
     .dest = &Opts::reduce,
     .help = "shrink failing specs before writing reproducers"},
    {.flag = "--out", .commands = kFuzz, .kind = Kind::Path,
     .dest = &Opts::out_dir, .arg = "DIR",
     .help = "reproducer directory (default fuzz-failures)"},
    {.flag = "--dump", .commands = kFuzz, .kind = Kind::Path,
     .dest = &Opts::dump_dir, .arg = "DIR",
     .help = "also dump every generated spec (corpus mining)"},
    {.flag = "--json", .commands = kFuzz, .kind = Kind::Path,
     .dest = &Opts::json_file, .arg = "FILE",
     .help = "write the machine-readable report to FILE"},
    {.flag = "--inject-bug", .commands = kFuzz, .kind = Kind::Enum,
     .dest = &Opts::inject, .names = fuzz::kInjectedBugNames,
     .help = "plant a known refiner bug (oracle self-test)"},
    {.flag = "--stats", .commands = kEvery, .kind = Kind::Switch,
     .dest = &Opts::stats,
     .help = "print the telemetry summary table (per-phase span\n"
             "totals, counters) on stderr"},
    {.flag = "--stats-json", .commands = kEvery, .kind = Kind::Path,
     .dest = &Opts::stats_json, .arg = "FILE",
     .help = "write the telemetry stats as JSON (schema\n"
             "specsyn-stats-v2; the \"stable\" counters and span\n"
             "counts are byte-identical across --jobs values, see\n"
             "tools/check_stats_json.py --strip)"},
    {.flag = "--pipeline-trace", .commands = kEvery, .kind = Kind::Path,
     .dest = &Opts::pipeline_trace, .arg = "FILE",
     .help = "write a Perfetto-loadable Chrome trace of the tool's\n"
             "own pipeline phases (parse, refine, price, check,\n"
             "lower, simulate, equivalence ...), one lane per worker\n"
             "thread"},
    {.flag = "--exec-tier", .commands = kEvery, .kind = Kind::Enum,
     .dest = &Opts::exec_tier, .names = kExecTierNames,
     .help = "execution tier: tree (tree-walking reference),\n"
             "lowered (flattened statement plans) or bytecode\n"
             "(threaded register bytecode); default bytecode, or\n"
             "$SPECSYN_EXEC_TIER. Every output is identical on all\n"
             "tiers"},
};

/// A decimal count from 0 to `max`: digits only, no sign. Returns false on
/// anything else, leaving `out` untouched.
bool parse_count(const char* v, size_t max, size_t& out) {
  const char* end = v + std::strlen(v);
  size_t n = 0;
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc() || ptr == v || ptr != end || n > max) return false;
  out = n;
  return true;
}

/// `NAME=COMPONENT` with a decimal component index.
bool parse_pin(const char* arg, std::pair<std::string, size_t>& out) {
  const char* eq = std::strchr(arg, '=');
  if (eq == nullptr || eq == arg) return false;
  out.first.assign(arg, eq);
  return parse_count(eq + 1, SIZE_MAX, out.second);
}

/// Parses `v` into the row's destination; false on a malformed value.
bool set_value(const Option& opt, const char* v, Opts& o) {
  const char* end = v == nullptr ? nullptr : v + std::strlen(v);
  size_t n = 0;
  switch (opt.kind) {
    case Kind::Switch:
      o.*std::get<bool Opts::*>(opt.dest) = true;
      return true;
    case Kind::Path:
      o.*std::get<std::string Opts::*>(opt.dest) = v;
      return true;
    case Kind::Pin: {
      std::pair<std::string, size_t> pin;
      if (!parse_pin(v, pin)) return false;
      (o.*std::get<Pins Opts::*>(opt.dest)).push_back(std::move(pin));
      return true;
    }
    case Kind::Real: {
      double x = 0.0;
      const auto [ptr, ec] = std::from_chars(v, end, x);
      if (ec != std::errc() || ptr != end || !std::isfinite(x) || x <= 0.0) {
        return false;
      }
      o.*std::get<std::optional<double> Opts::*>(opt.dest) = x;
      return true;
    }
    case Kind::Enum: {
      const auto it = std::find_if(
          opt.names.begin(), opt.names.end(),
          [&](const char* name) { return std::strcmp(name, v) == 0; });
      if (it == opt.names.end()) return false;
      n = static_cast<size_t>(it - opt.names.begin());
      break;
    }
    case Kind::Count:
    case Kind::Schedules:
      if (!parse_count(v, opt.max, n) || n < opt.min) return false;
      break;
  }
  o.*std::get<std::optional<size_t> Opts::*>(opt.dest) = n;
  return true;
}

/// "a|b|c" or "a, b or c".
std::string join_names(std::span<const char* const> names, bool prose) {
  std::string s;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) s += !prose ? "|" : i + 1 == names.size() ? " or " : ", ";
    s += names[i];
  }
  return s;
}

void print_value_error(const Option& opt) {
  switch (opt.kind) {
    case Kind::Enum:
      std::fprintf(stderr, "%s must be %s\n", opt.flag,
                   join_names(opt.names, true).c_str());
      return;
    case Kind::Pin:
      std::fprintf(stderr, "%s expects NAME=COMPONENT\n", opt.flag);
      return;
    case Kind::Real:
      std::fprintf(stderr, "%s expects a positive finite %s\n", opt.flag,
                   opt.what);
      return;
    default:
      break;
  }
  if (opt.max == SIZE_MAX) {
    std::fprintf(stderr, "%s expects a %s %s\n", opt.flag,
                 opt.min == 0 ? "decimal" : "positive", opt.what);
  } else {
    std::fprintf(stderr, "%s expects %s %s from %zu to %zu\n", opt.flag,
                 std::strchr("AEIOUaeiou", opt.what[0]) ? "an" : "a",
                 opt.what, opt.min, opt.max);
  }
}

/// Parses argv[first..] into `o` for the command `cmd` (named `name`).
/// Returns 0, or 2 after printing the usage error.
int parse_options(int argc, char** argv, int first, unsigned cmd,
                  const char* name, Opts& o) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view flag = arg.substr(0, arg.find('='));
    const Option* named = nullptr;  // a row with this flag, for any command
    const Option* row = nullptr;    // the row `cmd` reads
    for (const Option& opt : kOptions) {
      if ((opt.kind == Kind::Schedules ? flag : arg) != opt.flag) continue;
      named = &opt;
      if ((opt.commands & cmd) != 0) {
        row = &opt;
        break;
      }
    }
    if (named == nullptr) {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
    if (row == nullptr) {
      std::fprintf(stderr, "%s does not apply to %s\n", named->flag, name);
      return 2;
    }
    const char* v = nullptr;
    if (row->kind == Kind::Schedules) {  // the bare flag means 16
      v = flag.size() < arg.size() ? argv[i] + flag.size() + 1 : "16";
    } else if (row->kind != Kind::Switch) {
      if (++i == argc) {
        std::fprintf(stderr, "missing value for %s\n", row->flag);
        return 2;
      }
      v = argv[i];
    }
    if (!set_value(*row, v, o)) {
      print_value_error(*row);
      return 2;
    }
  }
  if (o.ratio && (!o.assigns.empty() || !o.var_pins.empty())) {
    std::fprintf(stderr,
                 "--ratio cannot be combined with --assign or --pin-var\n");
    return 2;
  }
  if (o.report && o.vhdl) {
    std::fprintf(stderr, "--report cannot be combined with --vhdl\n");
    return 2;
  }
  return 0;
}

ExecTier exec_tier(const Opts& o) {
  return o.exec_tier ? static_cast<ExecTier>(*o.exec_tier)
                     : default_exec_tier();
}

size_t workers(const Opts& o) {
  const size_t jobs = o.jobs.value_or(1);
  return jobs == 0 ? batch::ThreadPool::default_workers() : jobs;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Writes `text` to `path` and reports it on stderr: "wrote PATH (NOTE)",
/// or "cannot write PATH" when the file cannot be opened or written. Every
/// file a command writes goes through here. Returns the exit status, 0 or 1.
int write_file(const std::string& path, const std::string& text,
               const std::string& note) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, note.empty() ? "wrote %s\n" : "wrote %s (%s)\n",
               path.c_str(), note.c_str());
  return 0;
}

/// Emits the requested telemetry outputs. Called once, after the command
/// finished — the summary table goes to stderr, JSON documents to their
/// files, so primary stdout/-o output is never touched. Returns nonzero if
/// a requested file could not be written.
int finish_telemetry(const Opts& o, const std::string& command) {
  if (!telemetry::enabled()) return 0;
  const telemetry::Snapshot snap = telemetry::snapshot();
  if (o.stats) std::fputs(telemetry::render_stats_table(snap).c_str(), stderr);
  int rc = 0;
  const auto write_doc = [&](const std::string& path, const std::string& doc,
                             const char* what) {
    if (path.empty()) return;
    rc |= write_file(path, doc,
                     what + (", " + std::to_string(doc.size()) + " bytes"));
  };
  write_doc(o.stats_json, telemetry::stats_to_json(snap, command), "stats");
  write_doc(o.pipeline_trace, telemetry::trace_to_chrome_json(snap),
            "pipeline trace");
  return rc;
}

int write_output(const Opts& o, const std::string& text) {
  if (o.out_file.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  return write_file(o.out_file, text, std::to_string(text.size()) + " bytes");
}

/// The partition the options ask for; refine and sweep `announce` its
/// variable split on stderr. Options that do not fit the spec (an unknown
/// name, a component out of range, too few leaves for a ratio goal) are
/// usage errors: the message is printed and nullopt returned.
std::optional<Partition> build_partition(const Opts& o,
                                         const Specification& spec,
                                         const AccessGraph& graph,
                                         bool announce) {
  std::optional<Partition> part;
  try {
    Allocation alloc = o.asics.value_or(0) > 0 ? Allocation::asics(*o.asics)
                                               : Allocation::proc_plus_asic();
    if (o.ratio) {
      PartitionerOptions opts;
      opts.goal = static_cast<RatioGoal>(*o.ratio);
      part = make_ratio_partition(spec, graph, std::move(alloc), opts)
                 .partition;
    } else {
      part.emplace(spec, std::move(alloc));
      for (const auto& [name, c] : o.assigns) part->assign_behavior(name, c);
      for (const auto& [name, c] : o.var_pins) part->assign_var(name, c);
      part->auto_assign_vars(graph);
    }
  } catch (const SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
  if (announce) {
    auto [local_v, global_v] = part->local_global_counts(graph);
    std::fprintf(stderr, "partition: %zu local / %zu global variables\n",
                 local_v, global_v);
  }
  return part;
}

/// `check`'s text report: spec statistics, then the findings.
std::string check_text(const Specification& spec,
                       const analysis::Report& rep) {
  const AccessGraph graph = build_access_graph(spec);
  std::ostringstream os;
  os << "spec " << spec.name << ": OK\n"
     << "  behaviors:     " << spec.all_behaviors().size() << '\n'
     << "  variables:     " << spec.all_vars().size() << '\n'
     << "  signals:       " << spec.all_signals().size() << '\n'
     << "  procedures:    " << spec.procedures.size() << '\n'
     << "  statements:    " << spec.stmt_count() << '\n'
     << "  lines:         " << count_lines(spec) << '\n'
     << "  data channels: " << graph.data_channel_pairs() << '\n'
     << "  control arcs:  " << graph.control_channels().size() << '\n'
     << "  sequential:    " << (spec.is_fully_sequential() ? "yes" : "no")
     << '\n';
  for (const analysis::Finding& f : rep.findings) os << f.str() << '\n';
  if (rep.schedules.ran) {
    os << "schedule exploration: " << rep.schedules.explored << " explored, "
       << rep.schedules.pruned << " pruned, " << rep.schedules.divergent
       << " divergent" << (rep.schedules.complete ? "" : " (bound reached)")
       << '\n';
  }
  os << "static verifier: " << rep.count(Severity::Error) << " error(s), "
     << rep.count(Severity::Warning) << " warning(s)\n";
  return os.str();
}

int cmd_check(const Opts& o, const Specification& spec) {
  // One Context serves the static checkers and the exploration's pruning.
  const analysis::Context ctx(spec);
  analysis::Report rep = analysis::analyze(ctx);
  if (o.explore.value_or(0) > 0) {
    analysis::schedules::ExploreOptions sopts;
    sopts.max_schedules = *o.explore;
    sopts.config.exec_tier = exec_tier(o);
    if (o.max_cycles) sopts.config.max_cycles = *o.max_cycles;
    // Always through a pool (even --jobs 1): exploration waves then take the
    // same code path and emit the same stable telemetry for any job count.
    batch::ThreadPool pool(workers(o));
    sopts.pool = &pool;
    analysis::check_schedules(ctx, rep, sopts);
  }
  const int rc =
      write_output(o, o.json ? rep.json(spec.name) : check_text(spec, rep));
  return rc != 0 ? rc : (rep.has_errors() ? 1 : 0);
}

int cmd_print(const Opts& o, const Specification& spec) {
  return write_output(o, print(spec));
}

int cmd_simulate(const Opts& o, const Specification& spec) {
  SimConfig cfg;
  cfg.exec_tier = exec_tier(o);
  if (o.max_cycles) cfg.max_cycles = *o.max_cycles;
  if (o.clock_hz) cfg.clock_hz = *o.clock_hz;
  if (!o.replay_witness.empty() && !apply_witness(o.replay_witness, &cfg)) {
    std::fprintf(stderr,
                 "malformed --replay-witness '%s' (expected picks:N,N,...)\n",
                 o.replay_witness.c_str());
    return 2;
  }
  Simulator sim(spec, cfg);
  std::unique_ptr<VcdRecorder> vcd;
  if (!o.vcd.empty()) {
    vcd = std::make_unique<VcdRecorder>(spec);
    sim.add_slot_observer(vcd.get());
  }
  std::unique_ptr<BusTracer> tracer;
  std::unique_ptr<TraceExporter> exporter;
  if (!o.trace.empty() || o.metrics || !o.metrics_json.empty()) {
    tracer = std::make_unique<BusTracer>(spec);
    sim.add_slot_observer(tracer.get());
  }
  if (!o.trace.empty()) {
    exporter = std::make_unique<TraceExporter>(cfg.clock_hz);
    sim.add_slot_observer(exporter.get());
  }
  SimResult r = sim.run();
  int rc = 0;  // 1 once an output file could not be written
  if (vcd) {
    rc |= write_file(o.vcd, vcd->str(),
                     std::to_string(vcd->change_count()) + " value changes");
  }
  if (exporter) {
    rc |= write_file(o.trace, exporter->to_chrome_json(tracer.get()),
                     std::to_string(exporter->spans().size()) + " spans, " +
                         std::to_string(tracer->transactions().size()) +
                         " bus transactions");
  }
  if (tracer && (o.metrics || !o.metrics_json.empty())) {
    const MetricsReport m = MetricsReport::from(*tracer);
    if (o.metrics) std::fputs(m.table().c_str(), stdout);
    if (!o.metrics_json.empty()) {
      rc |= write_file(o.metrics_json, m.to_json() + "\n", "");
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
  return rc;
}

int cmd_graph(const Opts& o, const Specification& spec) {
  const AccessGraph graph = build_access_graph(spec);
  if (!o.ratio && !o.asics && o.assigns.empty() && o.var_pins.empty()) {
    return write_output(o, to_dot(graph));
  }
  const std::optional<Partition> part = build_partition(o, spec, graph, false);
  return part ? write_output(o, to_dot(graph, *part)) : 2;
}

int cmd_refine(const Opts& o, const Specification& spec) {
  AccessGraph graph = build_access_graph(spec);
  const std::optional<Partition> part = build_partition(o, spec, graph, true);
  if (!part) return 2;

  RefineConfig cfg;
  cfg.model = static_cast<ImplModel>(o.model.value_or(1) - 1);
  cfg.protocol = static_cast<ProtocolStyle>(o.protocol.value_or(0));
  cfg.leaf_scheme = static_cast<LeafScheme>(o.scheme.value_or(0));
  cfg.inline_protocols = !o.no_inline;
  RefineResult r = refine(*part, graph, cfg);
  std::fprintf(stderr,
               "%s: %zu buses, %zu memories (%zu ports), %zu arbiters, "
               "%zu interfaces, %zu protocol sites\n",
               to_string(cfg.model), r.stats.buses, r.stats.memories,
               r.stats.memory_ports, r.stats.arbiters, r.stats.interfaces,
               r.stats.inlined_sites);

  SimConfig sc;
  sc.exec_tier = exec_tier(o);
  std::optional<ProfileResult> prof;
  if (o.rates || o.report || o.verify) prof = profile_spec(spec, sc);
  std::optional<BusRateReport> rates;
  if (o.rates || o.report) rates = bus_rates(*prof, *part, r.plan, 100e6);
  if (o.rates) {
    std::fprintf(stderr, "bus transfer rates (Mbit/s):\n");
    for (const auto& [bus, mbps] : rates->bus_mbps) {
      std::fprintf(stderr, "  %-18s %10.1f\n", bus.c_str(), mbps);
    }
  }
  if (o.verify) {
    const EquivalenceReport rep =
        compare_results(spec, outcome_of(prof->sim),
                        Simulator(r.refined, sc).run(),
                        keeps_write_sequences(cfg.protocol));
    std::fprintf(stderr, "equivalence: %s\n", rep.summary().c_str());
    if (!rep.equivalent) return 1;
  }
  if (o.report) return write_output(o, architecture_report(r, *part, &*rates));
  return write_output(o, o.vhdl ? to_vhdl(r.refined) : print(r.refined));
}

int cmd_sweep(const Opts& o, const Specification& spec) {
  AccessGraph graph = build_access_graph(spec);
  const std::optional<Partition> part = build_partition(o, spec, graph, true);
  if (!part) return 2;
  // One SimConfig for the profile run and every point.
  SimConfig sc;
  sc.exec_tier = exec_tier(o);
  if (o.max_cycles) sc.max_cycles = *o.max_cycles;
  if (o.clock_hz) sc.clock_hz = *o.clock_hz;
  const ProfileResult prof = profile_spec(spec, sc);

  batch::SweepOptions so;
  so.exec_tier = sc.exec_tier;
  so.max_cycles = sc.max_cycles;
  so.clock_hz = sc.clock_hz;
  so.verify = o.verify;
  so.explore_schedules = o.explore.value_or(0);
  if (so.explore_schedules > 0 && !so.verify) {
    std::fprintf(stderr,
                 "note: --explore-schedules implies --verify for sweep\n");
    so.verify = true;
  }

  batch::ThreadPool pool(workers(o));
  const batch::SweepReport rep = batch::run_sweep(
      spec, *part, graph, prof, batch::full_matrix(), so, pool);
  return write_output(o, o.json ? rep.json() : rep.table());
}

int cmd_fuzz(const Opts& o) {
  fuzz::FuzzOptions f;
  f.start_seed = o.seed.value_or(f.start_seed);
  f.seeds = o.seeds.value_or(f.seeds);
  f.stmt_budget = o.budget.value_or(f.stmt_budget);
  f.max_cycles = o.max_cycles.value_or(f.max_cycles);
  f.explore_schedules = o.explore.value_or(f.explore_schedules);
  f.jobs = o.jobs.value_or(f.jobs);
  f.reduce = o.reduce;
  if (!o.out_dir.empty()) f.out_dir = o.out_dir;
  f.dump_dir = o.dump_dir;
  if (o.inject) f.inject = static_cast<fuzz::InjectedBug>(*o.inject);
  if (o.exec_tier) f.exec_tier = static_cast<ExecTier>(*o.exec_tier);
  const fuzz::FuzzReport report = fuzz::run_fuzz(f, std::cout);
  int rc = report.ok() ? 0 : 1;
  if (!o.json_file.empty()) rc |= write_file(o.json_file, report.json(), "");
  if (f.inject != fuzz::InjectedBug::None && report.injections_applied == 0) {
    std::fprintf(stderr,
                 "fuzz: --inject-bug %s never found an applicable site\n",
                 fuzz::to_string(f.inject));
    rc = 1;
  }
  return rc;
}

/// Reads, parses and validates the spec, then runs the command on it.
int run_on_file(const char* path, const Opts& o,
                int (*run)(const Opts&, const Specification&)) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  DiagnosticSink diags;
  const std::optional<Specification> parsed = parse_spec(text, diags);
  if (!parsed || !validate(*parsed, diags)) {
    std::fprintf(stderr, "%s", diags.str().c_str());
    return 1;
  }
  if (diags.all().size() > diags.error_count()) {
    std::fprintf(stderr, "%s", diags.str().c_str());  // warnings
  }
  return run(o, *parsed);
}

struct Command {
  const char* name;
  unsigned bit;
  int (*run)(const Opts&, const Specification&);  // null: takes no file
  const char* help;
};

const Command kCommands[] = {
    {"check", kCheck, cmd_check,
     "parse, validate, print summary statistics, then run the static\n"
     "refinement verifier (protocol, deadlock, race, address-map, arbiter\n"
     "and control-order checks); exit 1 on any SA0xx error. --json writes\n"
     "the report as JSON (schema specsyn-check-v1, see\n"
     "tools/check_diag_json.py) to stdout or -o FILE. With\n"
     "--explore-schedules, a divergent observable outcome is an SA021\n"
     "error with a replayable witness"},
    {"print", kPrint, cmd_print, "canonical pretty-print"},
    {"simulate", kSimulate, cmd_simulate,
     "run the discrete-event simulator, report results"},
    {"graph", kGraph, cmd_graph,
     "Graphviz DOT of the access graph, partitioned when any partition\n"
     "option is given"},
    {"refine", kRefine, cmd_refine, "transform into an implementation model"},
    {"sweep", kSweep, cmd_sweep,
     "refine, statically verify, price and simulate every point of the\n"
     "model x protocol x scheme x inline matrix (32 configurations) on a\n"
     "worker pool; print the ranked comparison (the paper's Section 5\n"
     "experiment as one command). --explore-schedules implies --verify\n"
     "and ranks last, RACE in the sched column, each point with a refined\n"
     "outcome the original spec does not permit"},
    {"fuzz", kFuzz, nullptr,
     "generate random specs, refine each under a sampled config, and\n"
     "cross-check every pipeline layer (round-trip, interpreter diff,\n"
     "equivalence, static verifier); exit 1 if any seed fails.\n"
     "--explore-schedules sets the schedules per side of the\n"
     "schedule-inclusion oracle (default 4)"},
};

constexpr const char* kUsage =
    "usage: specsyn <check|print|simulate|graph|refine|sweep> <file.spec> "
    "[options]\n"
    "       specsyn fuzz [options]\n";

int usage() {
  std::fprintf(stderr, "%srun `specsyn help` for the full option list\n",
               kUsage);
  return 2;
}

/// Prints `text` with every line after the first indented by `indent`.
void print_indented(const char* text, int indent) {
  for (const char* p = text; *p != '\0'; ++p) {
    std::putchar(*p);
    if (*p == '\n') std::printf("%*s", indent, "");
  }
  std::putchar('\n');
}

/// Lists the rows whose command set is exactly `kEvery` (when `bit` is
/// kEvery) or includes the command `bit` (otherwise).
void print_rows(unsigned bit) {
  constexpr int kHelpColumn = 25;
  for (const Option& opt : kOptions) {
    if ((opt.commands == kEvery) != (bit == kEvery) ||
        (opt.commands & bit) == 0) {
      continue;
    }
    std::string use = opt.flag;
    if (opt.kind == Kind::Schedules) {
      use += "[=N]";
    } else if (opt.kind == Kind::Enum) {
      use += ' ' + join_names(opt.names, false);
    } else if (opt.kind == Kind::Count && opt.max != SIZE_MAX) {
      use += ' ' + std::to_string(opt.min) + ".." + std::to_string(opt.max);
    } else if (opt.kind != Kind::Switch) {
      use += ' ';
      use += opt.arg;
    }
    if (use.size() + 3 > kHelpColumn) {
      std::printf("  %s\n%*s", use.c_str(), kHelpColumn, "");
    } else {
      std::printf("  %-*s ", kHelpColumn - 3, use.c_str());
    }
    print_indented(opt.help, kHelpColumn);
  }
}

int help() {
  std::printf("specsyn — model refinement for hardware-software codesign\n\n%s",
              kUsage);
  for (const Command& c : kCommands) {
    std::printf("\n%s%s\n  ", c.name, c.run ? " <file.spec>" : "");
    print_indented(c.help, 2);
    print_rows(c.bit);
  }
  std::printf("\nevery command:\n");
  print_rows(kEvery);
  std::printf(
      "\na flag that a command does not read is a usage error (exit 2).\n"
      "telemetry never changes the bytes of any primary output: stats go to\n"
      "stderr or to the named files only.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  if (name == "help" || name == "--help") return help();
  const Command* cmd = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return name == c.name; });
  if (cmd == std::end(kCommands)) return usage();
  const int first = cmd->run ? 3 : 2;
  if (argc < first) return usage();
  Opts o;
  if (const int prc = parse_options(argc, argv, first, cmd->bit, cmd->name, o);
      prc != 0) {
    return prc;
  }
  telemetry::enable(o.stats || !o.stats_json.empty(),
                    !o.pipeline_trace.empty());
  int rc = 1;
  try {
    rc = cmd->run ? run_on_file(argv[2], o, cmd->run) : cmd_fuzz(o);
  } catch (const SpecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  if (const int trc = finish_telemetry(o, cmd->name); rc == 0) rc = trc;
  return rc;
}
