// Benchmark-owned spans for the traced run.
//
// The benchmark wraps its own calls into each specsyn module in a Span; the
// library is not instrumented for this. Spans are kept in memory per thread
// (name, start, end, parent, round) and written at exit as Chrome trace-event
// JSON. With tracing disabled a Span is one relaxed load and a branch, so the
// untraced rounds that produce the end-to-end metrics pay nothing.
//
// A span's parent is the innermost open span on its thread, or an explicit
// span id when the work hops threads (a pool job names the batch span that
// submitted it). Self time subtracts only children on the same thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

/// Turns collection on or off. Call between rounds only, from the thread
/// that owns lane 0 (the first thread to enable becomes the "main" lane).
void enable(bool on);
bool enabled();

/// Tags every span opened from now on with this round id.
void set_round(uint32_t round);

class Span {
 public:
  /// `parent` names a span on another thread (a pool job's batch span);
  /// 0 picks the innermost span open on this thread.
  explicit Span(const char* name, uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id, 0 when tracing is off.
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Adds `delta` to a named per-layer count (no-op when tracing is off).
void count(const char* name, double delta);

struct SpanTotals {
  uint64_t spans = 0;
  double total_ms = 0;  ///< summed durations (inclusive of children)
  double self_ms = 0;   ///< minus same-thread children
};

struct Summary {
  std::map<std::string, SpanTotals> spans;  ///< by span name
  std::map<std::string, double> counts;
  /// Summed durations of the spans with no parent on their own thread (a
  /// round on the main thread, a pool job on a worker).
  double root_ms = 0;
};

/// Aggregates every recorded span. Call after all recording threads have
/// been joined.
[[nodiscard]] Summary summarize();

/// Chrome trace-event JSON (Perfetto-loadable, the `--pipeline-trace`
/// layout): one lane per recording thread, one complete event per span.
[[nodiscard]] std::string chrome_json();

}  // namespace perfbench::trace
