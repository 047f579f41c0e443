// Pipeline-wide telemetry: a stats registry plus phase-span tracing for the
// tool itself (the simulated design's observability lives in src/obs).
//
// Design rules, in priority order:
//
//  1. Zero cost when off. Every entry point is guarded by one relaxed atomic
//     load (`telemetry::enabled()`); with collection off nothing else runs,
//     no memory is touched, and the macros below compile to a test+branch.
//     This is the same discipline as the lowered kernel's
//     `if constexpr (Obs)` seam, applied dynamically.
//
//  2. Telemetry never changes primary output bytes. Stats render to stderr
//     or to dedicated files; no instrumented subsystem may alter its own
//     results based on collection state.
//
//  3. Deterministic reports. Collection is sharded per thread (each thread
//     writes only its own shard; a light per-shard mutex makes the final
//     cross-thread read race-free), and reports merge shards into sorted
//     maps. Every metric carries a Stability class so reports can separate
//     what is bytewise reproducible across `--jobs` values from what is not:
//
//       Stable — identical bytes for identical inputs at any --jobs value
//                (per-seed sim step counts, oracle verdicts, pool job
//                totals, per-phase span *counts* for phases that run a
//                fixed number of times).
//       Sched  — deterministic work, scheduling-dependent accounting: which
//                worker ran how many jobs, which worker's L1 took the miss,
//                how many lowers ran before a cache hit covered the rest.
//       Time   — wall-clock durations and latencies; never reproducible.
//
//     The "byte-identical across --jobs" contract (tools/check_stats_json.py
//     --strip) applies to the Stable section only; Sched and Time sections
//     are still emitted for humans, clearly labeled.
//
// Spans additionally feed a Chrome trace-event export: each shard becomes a
// Perfetto lane (main thread first, then pool workers in index order), so a
// `specsyn sweep --jobs 8 --pipeline-trace t.json` opens as eight worker
// lanes of refine/price/check/simulate spans. Span *events* are only
// recorded when trace collection is on; with stats-only collection, spans
// cost one aggregate update and no allocation growth per span.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace specsyn::telemetry {

enum class Stability : uint8_t { Stable = 0, Sched = 1, Time = 2 };

const char* stability_name(Stability st);

namespace detail {
// Collection mode word; bit 0 = stats, bit 1 = trace. Exposed only so
// enabled() can inline to a single relaxed load at every instrumentation
// site.
inline constexpr uint32_t kStatsBit = 1u;
inline constexpr uint32_t kTraceBit = 2u;
extern std::atomic<uint32_t> g_mode;
}  // namespace detail

inline bool enabled() {
  return detail::g_mode.load(std::memory_order_relaxed) != 0;
}

/// Turns collection on/off. Captures the trace time origin and labels the
/// calling thread's lane "main" (sort order 0). Idempotent; (false, false)
/// stops collection but keeps already-collected data for snapshot().
void enable(bool stats, bool trace);

/// Drops all collected data in every shard (counters, span aggregates and
/// events). Shards themselves and lane labels survive, so
/// live threads keep writing to their registered shards.
void reset();

/// Adds `delta` to the named counter in the calling thread's shard.
void count(std::string_view name, Stability st, uint64_t delta = 1);

/// Labels the calling thread's trace lane. Lanes sort by `order` (main is
/// 0; pool workers use worker index + 1), then by registration order.
void set_lane(std::string name, int order);

/// RAII phase span. When stats collection is on, the destructor folds the
/// duration into the per-name aggregate (count classified by `st`, time by
/// wall clock); when trace collection is on it also appends a trace event
/// to the thread's lane. `name` must be a string literal (it is kept by
/// pointer). The stability classifies the span *count*: "simulate" runs a
/// fixed number of times per input (Stable) while "lower" runs once per L1
/// miss (Sched).
class Span {
 public:
  Span(const char* name, Stability st) : Span(name, st, std::string()) {}
  Span(const char* name, Stability st, std::string detail);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::string detail_;
  Stability st_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Report-time snapshot (deterministic merge of all shards).

struct CounterValue {
  Stability stability = Stability::Stable;
  uint64_t value = 0;
};

struct SpanAggregate {
  Stability stability = Stability::Stable;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
};

struct SpanEvent {
  const char* name;
  std::string detail;
  uint64_t start_ns;  // relative to the enable() time origin
  uint64_t dur_ns;
};

struct Lane {
  std::string name;
  int order;
  std::vector<SpanEvent> events;
};

struct Snapshot {
  std::map<std::string, CounterValue> counters;
  std::map<std::string, SpanAggregate> spans;
  std::vector<Lane> lanes;  // sorted: main first, then workers by index
};

Snapshot snapshot();

// ---------------------------------------------------------------------------
// Exporters. All three are pure functions of a snapshot.

/// Human-readable summary table (span totals + counters).
std::string render_stats_table(const Snapshot& snap);

/// `specsyn-stats-v2` JSON document; see tools/check_stats_json.py for the
/// schema. Counters are grouped by stability class; each span carries its
/// own.
std::string stats_to_json(const Snapshot& snap, std::string_view command);

/// Chrome trace-event JSON (Perfetto-loadable): one pid, one tid lane per
/// shard that recorded events, complete ("X") events per span.
std::string trace_to_chrome_json(const Snapshot& snap);

}  // namespace specsyn::telemetry

// Instrumentation-site macros. These exist so hot paths read as one line and
// provably compile to a relaxed-load test when collection is off.
#define SPECSYN_TM_COUNT(name, stability, delta)                          \
  do {                                                                    \
    if (::specsyn::telemetry::enabled())                                  \
      ::specsyn::telemetry::count((name), (stability), (delta));          \
  } while (0)
