#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/json.h"

namespace perfbench::trace {

namespace {

struct Record {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint32_t round;
  int64_t start_ns;
  int64_t end_ns;
};

/// One recording thread's spans. Written only by its own thread; read by
/// summarize()/chrome_json() after that thread has been joined.
struct Lane {
  uint32_t index = 0;
  std::vector<Record> records;
  std::vector<uint64_t> open;  // ids of the spans open on this thread
  std::map<std::string, double> counts;
};

std::atomic<bool> g_on{false};
std::atomic<uint32_t> g_round{0};
std::atomic<uint64_t> g_next_id{0};

std::mutex g_lanes_mu;
std::vector<std::unique_ptr<Lane>> g_lanes;  // guarded by g_lanes_mu

thread_local Lane* tl_lane = nullptr;

Lane& lane() {
  if (tl_lane == nullptr) {
    std::lock_guard<std::mutex> lock(g_lanes_mu);
    g_lanes.push_back(std::make_unique<Lane>());
    g_lanes.back()->index = static_cast<uint32_t>(g_lanes.size() - 1);
    tl_lane = g_lanes.back().get();
  }
  return *tl_lane;
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void enable(bool on) {
  if (on) (void)lane();
  g_on.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_on.load(std::memory_order_relaxed); }

void set_round(uint32_t round) {
  g_round.store(round, std::memory_order_relaxed);
}

Span::Span(const char* name, uint64_t parent) : name_(name) {
  if (!enabled()) return;
  Lane& l = lane();
  parent_ = parent != 0 || l.open.empty() ? parent : l.open.back();
  id_ = ++g_next_id;
  l.open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = now_ns();
  Lane& l = lane();
  l.open.pop_back();
  l.records.push_back({name_, id_, parent_,
                       g_round.load(std::memory_order_relaxed), start_ns_,
                       end});
}

void count(const char* name, double delta) {
  if (!enabled()) return;
  lane().counts[name] += delta;
}

Summary summarize() {
  std::lock_guard<std::mutex> lock(g_lanes_mu);
  std::unordered_map<uint64_t, uint32_t> lane_of;
  for (const auto& l : g_lanes) {
    for (const Record& r : l->records) lane_of[r.id] = l->index;
  }
  Summary s;
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& l : g_lanes) {
    for (const Record& r : l->records) {
      const auto it = lane_of.find(r.parent);
      if (it != lane_of.end() && it->second == l->index) {
        child_ns[r.parent] += r.end_ns - r.start_ns;
      } else {
        s.root_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      }
    }
  }
  for (const auto& l : g_lanes) {
    for (const Record& r : l->records) {
      SpanTotals& t = s.spans[r.name];
      const int64_t dur = r.end_ns - r.start_ns;
      const auto c = child_ns.find(r.id);
      ++t.spans;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms +=
          static_cast<double>(dur - (c == child_ns.end() ? 0 : c->second)) /
          1e6;
    }
    for (const auto& [name, v] : l->counts) s.counts[name] += v;
  }
  return s;
}

std::string chrome_json() {
  std::lock_guard<std::mutex> lock(g_lanes_mu);
  int64_t origin = INT64_MAX;
  for (const auto& l : g_lanes) {
    for (const Record& r : l->records) origin = std::min(origin, r.start_ns);
  }
  std::string out;
  specsyn::JsonWriter w(&out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  const auto meta = [&](int tid, const char* what, const char* key,
                        const auto& value) {
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
  meta(-1, "process_name", "name", "specsyn perfbench");
  for (const auto& l : g_lanes) {
    const int tid = static_cast<int>(l->index) + 1;
    const std::string lane_name =
        l->index == 0 ? std::string("main")
                      : "worker " + std::to_string(l->index);
    meta(tid, "thread_name", "name", lane_name.c_str());
    meta(tid, "thread_sort_index", "sort_index", tid);
    for (const Record& r : l->records) {
      w.begin_object();
      w.kv("ph", "X");
      w.kv("pid", 1);
      w.kv("tid", tid);
      w.kv("name", r.name);
      w.key("ts").value(static_cast<double>(r.start_ns - origin) / 1e3, 3);
      w.key("dur").value(static_cast<double>(r.end_ns - r.start_ns) / 1e3, 3);
      w.key("args").begin_object();
      w.kv("round", r.round);
      w.kv("id", r.id);
      w.kv("parent", r.parent);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

}  // namespace perfbench::trace
