// VCD (Value Change Dump) waveform recording.
//
// Attach a VcdRecorder to a Simulator (any execution tier) to capture every
// signal change (and, optionally, observable-variable writes) as an
// IEEE-1364 VCD file viewable in GTKWave & co. — the natural way to inspect
// the generated handshake protocols of a refined specification.
//
//   Simulator sim(refined);
//   VcdRecorder vcd(refined);
//   sim.add_slot_observer(&vcd);
//   sim.run();
//   std::ofstream("waves.vcd") << vcd.str();
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace specsyn {

struct VcdOptions {
  /// Timescale string written to the header.
  std::string timescale = "1 ns";
  /// Also record writes to `observable` variables as VCD wires.
  bool include_observables = true;
};

class VcdRecorder : public SlotObserver {
 public:
  /// Registers all signals (and observable variables) of `spec`.
  explicit VcdRecorder(const Specification& spec, VcdOptions opts = {});

  void on_bind(const Binding& b) override;
  void on_signal_commit(uint32_t slot, uint64_t time, uint64_t value) override;
  void on_var_write(uint32_t slot, uint32_t behavior, uint64_t time,
                    uint64_t value) override;

  /// Complete VCD document (header + dump). Call after the run.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] size_t change_count() const { return changes_; }

 private:
  struct Wire {
    std::string id;      // short VCD identifier
    uint32_t width = 1;
    uint64_t last = 0;
    bool has_value = false;
  };

  void record(Wire* w, uint64_t time, uint64_t value);
  void emit_time(uint64_t time);
  static std::string make_id(size_t n);

  VcdOptions opts_;
  std::map<std::string, Wire> wires_;
  /// Slot -> wire (null when the slot is not recorded), resolved in on_bind.
  std::vector<Wire*> signal_wires_;
  std::vector<Wire*> var_wires_;
  std::ostringstream header_;
  std::ostringstream body_;
  uint64_t last_time_ = UINT64_MAX;
  size_t changes_ = 0;
};

}  // namespace specsyn
