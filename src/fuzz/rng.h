// Deterministic PRNG for the fuzzer (splitmix64). The standard library's
// distributions are implementation-defined, so every random decision in
// src/fuzz goes through this generator — a seed reproduces the same specs,
// configs and reductions on any platform and standard library.
#pragma once

#include <cstdint>
#include <cstddef>

namespace specsyn::fuzz {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); 0 when n == 0.
  size_t below(size_t n) { return n == 0 ? 0 : next() % n; }

  /// True with the given percent probability.
  bool chance(unsigned percent) { return below(100) < percent; }

  /// Picks one element of a fixed-size array.
  template <typename T, size_t N>
  const T& pick(const T (&items)[N]) {
    return items[below(N)];
  }

 private:
  uint64_t state_;
};

}  // namespace specsyn::fuzz
