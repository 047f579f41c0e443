// Chrome trace-event export (Perfetto / chrome://tracing compatible).
//
// TraceExporter is a SlotObserver that records behavior start/end events per
// simulator process; after the run it serializes a JSON object in the Chrome
// trace-event format:
//
//   * pid 1 "behaviors": one track (tid) per simulator process, behavior
//     activations as B/E duration events. Events are emitted in simulation
//     order, which is exactly the properly-nested order B/E requires.
//   * pid 2 "buses" (when a BusTracer is supplied): one track per bus,
//     decoded transactions as async ("b"/"e") events carrying master,
//     address/variable, direction, beat count and grant latency; plus
//     counter ("C") tracks for bus occupancy and the number of masters
//     waiting on the arbiter.
//
// Simulation cycles are mapped to trace microseconds via a nominal clock
// frequency (`clock_hz`), so Perfetto's timeline reads in wall time for the
// modeled hardware.
//
//   TraceExporter exp(spec_clock_hz);
//   BusTracer tracer(spec);
//   sim.add_slot_observer(&tracer);
//   sim.add_slot_observer(&exp);
//   sim.run();
//   const std::string json = exp.to_chrome_json(&tracer);
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

class BusTracer;

class TraceExporter : public SlotObserver {
 public:
  /// One closed behavior activation (for tests; the JSON is emitted from the
  /// raw event stream, not from these).
  struct Span {
    uint32_t behavior = UINT32_MAX;
    uint64_t process = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  explicit TraceExporter(double clock_hz = 100e6);

  // SlotObserver
  void on_bind(const Binding& b) override;
  void on_behavior_start(uint32_t behavior, uint64_t process,
                         uint64_t time) override;
  void on_behavior_end(uint32_t behavior, uint64_t process,
                       uint64_t time) override;
  void on_run_end(uint64_t end_time) override;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] uint64_t end_time() const { return end_time_; }
  [[nodiscard]] double clock_hz() const { return clock_hz_; }

  /// The complete trace JSON. Pass the (finished) BusTracer from the same
  /// run to add bus tracks, or nullptr for behavior tracks only.
  [[nodiscard]] std::string to_chrome_json(const BusTracer* bus) const;

 private:
  struct Event {
    char ph;  // 'B' or 'E'
    uint32_t behavior;
    uint64_t process;
    uint64_t time;
  };

  [[nodiscard]] double us(uint64_t cycles) const {
    return static_cast<double>(cycles) * 1e6 / clock_hz_;
  }

  double clock_hz_;
  /// Behavior id -> name, copied at bind time (the Binding's tables do not
  /// outlive the Simulator; the exporter must).
  std::vector<std::string> behavior_names_;
  std::vector<Event> events_;  // in simulation order
  std::vector<Span> spans_;
  std::map<uint64_t, std::vector<size_t>> open_;  // process -> open span stack
  uint64_t end_time_ = 0;
};

}  // namespace specsyn
