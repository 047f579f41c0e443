// Small string builders shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace specsyn {

/// `prefix` followed by `n` in decimal ("v", 3 -> "v3"). It appends, where
/// `"v" + std::to_string(n)` would insert at the front, which g++ 12 at -O3
/// reports as a false -Wrestrict overlap.
[[nodiscard]] inline std::string numbered(std::string_view prefix,
                                          uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace specsyn
