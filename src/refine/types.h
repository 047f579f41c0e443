// Shared enums and configuration for the refinement passes.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace specsyn {

/// The paper's four implementation models (Section 3).
enum class ImplModel : uint8_t {
  Model1,  // single-port global memory only; 1 shared bus
  Model2,  // local memories + single-port global memory; p+1 buses
  Model3,  // local memories + multi-port global memory; p + p*p buses
  Model4,  // local memories + bus interfaces (message passing); 2p+1 buses
};

[[nodiscard]] const char* to_string(ImplModel m);

/// Bus protocol used by all generated transfers (Section 4.2 notes that the
/// protocol bodies are interchangeable; this is the knob).
enum class ProtocolStyle : uint8_t {
  FullHandshake,  // Fig. 5(d): 4-phase handshake, full-width data bus
  ByteSerial,     // 4-phase handshake on an 8-bit data bus; wide variables
                  // transfer in ceil(width/8) beats (higher transfer count,
                  // narrower/cheaper bus)
};

[[nodiscard]] const char* to_string(ProtocolStyle s);

/// Whether refinement under `p` keeps each variable's sequence of observable
/// writes, so equivalence and inclusion checks may compare write traces.
/// ByteSerial does not: a wide value crosses the bus in 8-bit beats, and
/// each beat commits a partial write, so only final values are comparable.
/// This is the one exemption every check takes; it goes with the Model4 x bs
/// atomicity fix (ROADMAP).
[[nodiscard]] constexpr bool keeps_write_sequences(ProtocolStyle p) {
  return p != ProtocolStyle::ByteSerial;
}

/// Short names, indexed by value: the CLI's `--protocol` spellings and the
/// sweep and fuzz labels.
inline constexpr std::array<const char*, 2> kProtocolNames = {"hs", "bs"};

/// Control-refinement scheme for *leaf* behaviors (Fig. 4(b) vs 4(c)).
/// Non-leaf behaviors always use the wrapper scheme (4(c)), as the paper
/// prescribes.
enum class LeafScheme : uint8_t {
  LoopLeaf,    // Fig. 4(b): inline the body in a wait/set loop (preferred)
  WrapperSeq,  // Fig. 4(c): wrap in a sequential composite with wait/set leaves
};

[[nodiscard]] const char* to_string(LeafScheme s);

/// Short names, indexed by value: the CLI's `--scheme` spellings and the
/// sweep and fuzz labels.
inline constexpr std::array<const char*, 2> kSchemeNames = {"loop",
                                                            "wrapper"};

/// Bus-master identity granularity, which decides where arbiters are needed
/// (a bus with more than one master identity gets one).
///   Component — one identity per component (the paper's model: partitions
///               execute sequentially, so a component is one master; Model3's
///               dedicated buses then never need arbitration). Only sound
///               when the original specification has no concurrency.
///   Thread    — one identity per concurrent execution context (children of
///               Concurrent composites, moved-behavior servers): always
///               sound, more arbiters.
///   Auto      — Component for fully sequential specifications, Thread
///               otherwise (the default).
enum class MasterGranularity : uint8_t { Auto, Component, Thread };

[[nodiscard]] const char* to_string(MasterGranularity g);

struct RefineConfig {
  ImplModel model = ImplModel::Model1;
  ProtocolStyle protocol = ProtocolStyle::FullHandshake;
  LeafScheme leaf_scheme = LeafScheme::LoopLeaf;
  MasterGranularity master_granularity = MasterGranularity::Auto;
  /// Model3 only: cap on global-memory port count ("designers can select
  /// the number of memory ports", Section 3). 0 = one port per accessing
  /// component (the paper's maximum). With fewer ports, accessors share a
  /// port's bus and arbitration is inserted on it.
  size_t max_memory_ports = 0;
  /// Expand the generated MST_* protocol procedures at every access site
  /// (the paper's flow — it is what makes refined specifications 11-19x
  /// larger than the input and Model3 the smallest / Model4 the largest
  /// model). Disable to keep transfers as shared procedure calls.
  bool inline_protocols = true;
};

}  // namespace specsyn
