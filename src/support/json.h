// The one JSON emission layer for the whole tool, so every exporter escapes
// strings (control characters included) the same way:
//
//   * json_escape — the canonical string escaper (quotes, backslash,
//     \n \t \r, and \u00xx for every other control byte),
//   * JsonWriter — a small streaming writer with automatic comma placement
//     and optional pretty-printing, used by the telemetry stats/trace
//     exporters and available to every other emitter.
//
// JsonWriter is deliberately not a DOM: emitters in this codebase stream
// large deterministic documents (traces, sweep tables, stats registries) and
// never need to read one back. Output is appended to a caller-owned string,
// so a writer can be pointed at the middle of a larger hand-built document.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace specsyn {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Streaming JSON writer. Scope entry/exit is explicit (begin_object /
/// end_object, begin_array / end_array); commas and newlines are inserted
/// automatically. With indent == 0 the document is emitted on one line.
class JsonWriter {
 public:
  /// Appends to `*out`, which must outlive the writer. `indent` > 0 selects
  /// pretty-printing with that many spaces per nesting level.
  explicit JsonWriter(std::string* out, int indent = 0)
      : out_(out), indent_(indent) {}

  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  /// Emits `"k":` (with separator); must be followed by a value or scope.
  JsonWriter& key(std::string_view k) {
    separate();
    *out_ += '"';
    *out_ += json_escape(std::string(k));
    *out_ += "\":";
    if (indent_ > 0) *out_ += ' ';
    pending_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    separate();
    *out_ += '"';
    *out_ += json_escape(std::string(s));
    *out_ += '"';
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  /// One template covers every integer width without the overload set
  /// colliding on platforms where size_t aliases uint64_t.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& value(T v) {
    if constexpr (std::is_signed_v<T>) {
      return raw(std::to_string(static_cast<long long>(v)));
    } else {
      return raw(std::to_string(static_cast<unsigned long long>(v)));
    }
  }
  /// Doubles print with a fixed precision chosen by the caller (default 3),
  /// keeping documents byte-stable across platforms.
  JsonWriter& value(double v, int precision = 3) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return raw(buf);
  }

  /// Emits pre-rendered JSON verbatim (with separator handling).
  JsonWriter& raw(std::string_view text) {
    separate();
    *out_ += text;
    return *this;
  }

  // key/value in one call, the common case.
  template <typename V>
  JsonWriter& kv(std::string_view k, V v) {
    key(k);
    return value(v);
  }

 private:
  JsonWriter& open(char c) {
    separate();
    *out_ += c;
    stack_.push_back(false);  // no element emitted in this scope yet
    return *this;
  }

  JsonWriter& close(char c) {
    const bool had_elements = !stack_.empty() && stack_.back();
    if (!stack_.empty()) stack_.pop_back();
    if (indent_ > 0 && had_elements) newline();
    *out_ += c;
    return *this;
  }

  /// Emits the comma/newline owed before the next element of the current
  /// scope. A value that directly follows its key emits nothing.
  void separate() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    if (stack_.back()) *out_ += ',';
    stack_.back() = true;
    if (indent_ > 0) newline();
  }

  void newline() {
    *out_ += '\n';
    out_->append(static_cast<size_t>(indent_) * stack_.size(), ' ');
  }

  std::string* out_;
  int indent_;
  std::vector<bool> stack_;
  bool pending_key_ = false;
};

}  // namespace specsyn
