#include "telemetry/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

#include "support/json.h"

namespace specsyn::telemetry {

namespace detail {
std::atomic<uint32_t> g_mode{0};
}  // namespace detail

const char* stability_name(Stability st) {
  switch (st) {
    case Stability::Stable: return "stable";
    case Stability::Sched: return "sched";
    case Stability::Time: return "time";
  }
  return "?";
}

namespace {

struct CounterCell {
  Stability st = Stability::Stable;
  uint64_t value = 0;
};

struct SpanCell {
  Stability st = Stability::Stable;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t min_ns = std::numeric_limits<uint64_t>::max();
  uint64_t max_ns = 0;
};

// One shard per thread. The owning thread is the only writer; the mutex
// exists so snapshot()/reset() on another thread read a consistent state
// (and so TSan agrees). Uncontended lock cost is only paid when collection
// is on.
struct Shard {
  std::mutex mu;
  uint64_t seq = 0;           // registration order, lane-sort tie-break
  std::string lane;           // empty until set_lane()
  int lane_order = 1 << 20;   // unnamed lanes sort last
  std::map<std::string, CounterCell, std::less<>> counters;
  std::map<std::string, SpanCell, std::less<>> spans;
  std::vector<SpanEvent> events;
};

struct Registry {
  std::mutex mu;
  // Shards are shared_ptrs so they outlive their threads: fuzz/sweep tear
  // the pool down before the CLI reports, and the report still needs the
  // workers' data.
  std::vector<std::shared_ptr<Shard>> shards;
  std::chrono::steady_clock::time_point t0{};
  uint64_t next_seq = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

Shard& my_shard() {
  thread_local std::shared_ptr<Shard> t_shard;
  if (!t_shard) {
    auto s = std::make_shared<Shard>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    s->seq = r.next_seq++;
    r.shards.push_back(s);
    t_shard = std::move(s);
    return *r.shards.back();
  }
  return *t_shard;
}

uint64_t since_origin_ns(std::chrono::steady_clock::time_point tp) {
  const auto t0 = registry().t0;
  if (tp <= t0) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - t0).count());
}

}  // namespace

void enable(bool stats, bool trace) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.t0 == std::chrono::steady_clock::time_point{})
      r.t0 = std::chrono::steady_clock::now();
  }
  detail::g_mode.store((stats ? detail::kStatsBit : 0u) |
                           (trace ? detail::kTraceBit : 0u),
                       std::memory_order_relaxed);
  if (stats || trace) set_lane("main", 0);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& s : r.shards) {
    std::lock_guard<std::mutex> slk(s->mu);
    s->counters.clear();
    s->spans.clear();
    s->events.clear();
  }
}

void count(std::string_view name, Stability st, uint64_t delta) {
  Shard& s = my_shard();
  std::lock_guard<std::mutex> lk(s.mu);
  auto it = s.counters.find(name);
  if (it == s.counters.end())
    it = s.counters.emplace(std::string(name), CounterCell{st, 0}).first;
  it->second.value += delta;
}

void set_lane(std::string name, int order) {
  Shard& s = my_shard();
  std::lock_guard<std::mutex> lk(s.mu);
  s.lane = std::move(name);
  s.lane_order = order;
}

Span::Span(const char* name, Stability st, std::string detail)
    : name_(name), detail_(std::move(detail)), st_(st), active_(enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  const uint64_t dur_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  const uint32_t mode = detail::g_mode.load(std::memory_order_relaxed);
  const bool stats = (mode & detail::kStatsBit) != 0;
  const bool trace = (mode & detail::kTraceBit) != 0;
  if (!stats && !trace) return;
  Shard& s = my_shard();
  std::lock_guard<std::mutex> lk(s.mu);
  if (stats) {
    auto it = s.spans.find(name_);
    if (it == s.spans.end())
      it = s.spans.emplace(std::string(name_), SpanCell{st_}).first;
    SpanCell& c = it->second;
    c.count++;
    c.total_ns += dur_ns;
    c.min_ns = std::min(c.min_ns, dur_ns);
    c.max_ns = std::max(c.max_ns, dur_ns);
  }
  if (trace)
    s.events.push_back(
        SpanEvent{name_, detail_, since_origin_ns(start_), dur_ns});
}

Snapshot snapshot() {
  Snapshot out;
  Registry& r = registry();
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    shards = r.shards;
  }
  // Merge order doesn't matter for the sorted maps (sums are commutative);
  // lanes sort below.
  std::vector<std::pair<size_t, Lane>> lanes;  // (shard seq, lane)
  for (const auto& sp : shards) {
    std::lock_guard<std::mutex> lk(sp->mu);
    for (const auto& [name, cell] : sp->counters) {
      CounterValue& dst = out.counters[name];
      dst.stability = cell.st;
      dst.value += cell.value;
    }
    for (const auto& [name, cell] : sp->spans) {
      SpanAggregate& dst = out.spans[name];
      dst.stability = cell.st;
      if (dst.count == 0) {
        dst.min_ns = cell.min_ns;
        dst.max_ns = cell.max_ns;
      } else {
        dst.min_ns = std::min(dst.min_ns, cell.min_ns);
        dst.max_ns = std::max(dst.max_ns, cell.max_ns);
      }
      dst.count += cell.count;
      dst.total_ns += cell.total_ns;
    }
    if (!sp->events.empty()) {
      Lane lane;
      lane.name = sp->lane.empty() ? ("thread " + std::to_string(sp->seq))
                                   : sp->lane;
      lane.order = sp->lane_order;
      lane.events = sp->events;
      lanes.emplace_back(sp->seq, std::move(lane));
    }
  }
  // Main first (order 0), then workers by index; shard registration order
  // breaks ties so the lane list is stable run to run.
  std::sort(lanes.begin(), lanes.end(), [](const auto& a, const auto& b) {
    if (a.second.order != b.second.order) return a.second.order < b.second.order;
    return a.first < b.first;
  });
  out.lanes.reserve(lanes.size());
  for (auto& [seq, lane] : lanes) out.lanes.push_back(std::move(lane));
  return out;
}

// ---------------------------------------------------------------------------
// Exporters.

namespace {

std::string format_ns(uint64_t ns) {
  char buf[64];
  if (ns >= 1000000000ull)
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(ns) / 1e9);
  else if (ns >= 1000000ull)
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(ns) / 1e6);
  else if (ns >= 1000ull)
    std::snprintf(buf, sizeof buf, "%.3fus", static_cast<double>(ns) / 1e3);
  else
    std::snprintf(buf, sizeof buf, "%" PRIu64 "ns", ns);
  return buf;
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string render_stats_table(const Snapshot& snap) {
  std::string out;
  if (!snap.spans.empty()) {
    appendf(out, "%-34s %6s %5s %12s %12s %12s\n", "span", "class", "count",
            "total", "min", "max");
    for (const auto& [name, s] : snap.spans)
      appendf(out, "%-34s %6s %5" PRIu64 " %12s %12s %12s\n", name.c_str(),
              stability_name(s.stability), s.count,
              format_ns(s.total_ns).c_str(), format_ns(s.min_ns).c_str(),
              format_ns(s.max_ns).c_str());
  }
  if (!snap.counters.empty()) {
    if (!out.empty()) out += '\n';
    appendf(out, "%-34s %6s %12s\n", "counter", "class", "value");
    for (const auto& [name, c] : snap.counters)
      appendf(out, "%-34s %6s %12" PRIu64 "\n", name.c_str(),
              stability_name(c.stability), c.value);
  }
  if (out.empty()) out = "(no telemetry collected)\n";
  return out;
}

std::string stats_to_json(const Snapshot& snap, std::string_view command) {
  std::string out;
  JsonWriter w(&out, 2);
  w.begin_object();
  w.kv("schema", "specsyn-stats-v2");
  w.kv("command", command);
  w.key("counters").begin_object();
  for (Stability st :
       {Stability::Stable, Stability::Sched, Stability::Time}) {
    w.key(stability_name(st)).begin_object();
    for (const auto& [name, c] : snap.counters) {
      if (c.stability == st) w.kv(name, c.value);
    }
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_object();
  for (const auto& [name, s] : snap.spans) {
    w.key(name).begin_object();
    w.kv("stability", stability_name(s.stability));
    w.kv("count", s.count);
    w.kv("total_ns", s.total_ns);
    w.kv("min_ns", s.count ? s.min_ns : 0);
    w.kv("max_ns", s.max_ns);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out += '\n';
  return out;
}

std::string trace_to_chrome_json(const Snapshot& snap) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  auto meta = [&](int tid, const char* what, const char* key, auto value) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    if (tid >= 0) w.kv("tid", tid);
    w.kv("name", what);
    w.key("args").begin_object();
    w.kv(key, value);
    w.end_object();
    w.end_object();
  };
  meta(-1, "process_name", "name", "specsyn pipeline");
  int tid = 0;
  for (const auto& lane : snap.lanes) {
    ++tid;
    meta(tid, "thread_name", "name", lane.name.c_str());
    meta(tid, "thread_sort_index", "sort_index", tid);
    for (const auto& ev : lane.events) {
      w.begin_object();
      w.kv("ph", "X");
      w.kv("pid", 1);
      w.kv("tid", tid);
      w.kv("name", ev.name);
      w.key("ts").value(static_cast<double>(ev.start_ns) / 1e3, 3);
      w.key("dur").value(static_cast<double>(ev.dur_ns) / 1e3, 3);
      if (!ev.detail.empty()) {
        w.key("args").begin_object();
        w.kv("detail", ev.detail);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

}  // namespace specsyn::telemetry
