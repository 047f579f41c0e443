#include "sim/sched.h"

#include <cstdint>

namespace specsyn {

namespace {

constexpr const char kPicksPrefix[] = "picks:";

/// Parses a decimal uint64 spanning exactly [begin, end). Returns false on
/// empty input, a non-digit, or overflow.
bool parse_u64(const char* begin, const char* end, uint64_t* out) {
  if (begin == end) return false;
  uint64_t v = 0;
  for (const char* c = begin; c != end; ++c) {
    if (*c < '0' || *c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(*c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace

std::string format_witness(const std::vector<uint32_t>& picks) {
  size_t n = picks.size();
  while (n != 0 && picks[n - 1] == 0) --n;
  std::string out = kPicksPrefix;
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(picks[i]);
  }
  return out;
}

bool apply_witness(const std::string& witness, SimConfig* cfg) {
  const char* data = witness.data();
  const char* end = data + witness.size();
  if (witness.rfind(kPicksPrefix, 0) != 0) return false;
  std::vector<uint32_t> picks;
  const char* cursor = data + sizeof(kPicksPrefix) - 1;
  while (cursor != end) {
    const char* stop = cursor;
    while (stop != end && *stop != ',') ++stop;
    uint64_t pick = 0;
    if (!parse_u64(cursor, stop, &pick) || pick > UINT32_MAX) return false;
    picks.push_back(static_cast<uint32_t>(pick));
    cursor = stop == end ? end : stop + 1;
    // A trailing comma ("picks:1,") is malformed: the loop would exit with
    // cursor == end after consuming it, silently dropping the empty entry.
    if (cursor == end && stop != end) return false;
  }
  cfg->sched_picks = std::move(picks);
  return true;
}

}  // namespace specsyn
