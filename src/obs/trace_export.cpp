#include "obs/trace_export.h"

#include <iomanip>
#include <sstream>

#include "obs/bus_trace.h"
#include "support/json.h"
#include "sim/program.h"
#include "support/diagnostics.h"

namespace specsyn {

namespace {

void emit_ts(std::ostringstream& os, double us) {
  os << std::fixed << std::setprecision(3) << us;
}

}  // namespace

TraceExporter::TraceExporter(double clock_hz) : clock_hz_(clock_hz) {
  if (clock_hz_ <= 0.0) {
    throw SpecError("TraceExporter: clock_hz must be positive");
  }
}

void TraceExporter::on_bind(const Binding& b) {
  // Snapshot behavior names: export usually happens after the Simulator
  // (their owner) has been destroyed.
  behavior_names_ = *b.behavior_names;
}

void TraceExporter::on_behavior_start(uint32_t behavior, uint64_t process,
                                      uint64_t time) {
  events_.push_back({'B', behavior, process, time});
  spans_.push_back({behavior, process, time, time});
  open_[process].push_back(spans_.size() - 1);
}

void TraceExporter::on_behavior_end(uint32_t behavior, uint64_t process,
                                    uint64_t time) {
  events_.push_back({'E', behavior, process, time});
  auto& stack = open_[process];
  if (!stack.empty()) {
    spans_[stack.back()].end = time;
    stack.pop_back();
  }
}

void TraceExporter::on_run_end(uint64_t end_time) {
  end_time_ = end_time;
  // Close dangling activations (server loops never return) so every B has
  // a matching E and Perfetto doesn't render open-ended slices.
  for (auto& [process, stack] : open_) {
    while (!stack.empty()) {
      Span& s = spans_[stack.back()];
      s.end = end_time;
      events_.push_back({'E', s.behavior, process, end_time});
      stack.pop_back();
    }
  }
}

std::string TraceExporter::to_chrome_json(const BusTracer* bus) const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };

  const auto bname = [&](uint32_t id) -> std::string {
    if (id < behavior_names_.size()) return behavior_names_[id];
    return "behavior#" + std::to_string(id);
  };

  // -- pid 1: behavior activations, one track per simulator process --------
  sep();
  os << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"behaviors\"}}";
  std::map<uint64_t, uint32_t> track_root;  // process -> first behavior seen
  for (const Event& e : events_) track_root.emplace(e.process, e.behavior);
  for (const auto& [process, root] : track_root) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << process
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << json_escape("p" + std::to_string(process) + " " + bname(root))
       << "\"}}";
  }
  for (const Event& e : events_) {
    sep();
    os << "{\"ph\":\"" << e.ph << "\",\"pid\":1,\"tid\":" << e.process
       << ",\"ts\":";
    emit_ts(os, us(e.time));
    os << ",\"name\":\"" << json_escape(bname(e.behavior)) << "\"}";
  }

  // -- pid 2: buses -------------------------------------------------------
  if (bus != nullptr) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
          "\"args\":{\"name\":\"buses\"}}";
    for (size_t i = 0; i < bus->buses().size(); ++i) {
      sep();
      os << "{\"ph\":\"M\",\"pid\":2,\"tid\":" << i + 1
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << json_escape(bus->buses()[i].name) << "\"}}";
    }

    const auto& txns = bus->transactions();
    for (size_t i = 0; i < txns.size(); ++i) {
      const BusTransaction& tx = txns[i];
      const BusTracer::Bus& b = bus->buses()[tx.bus];
      std::string name = b.name;
      if (tx.has_addr) {
        name += tx.is_read ? " R " : " W ";
        const std::string& var = bus->var_at(tx.addr);
        name += var.empty() ? "@" + std::to_string(tx.addr) : var;
      }
      std::ostringstream args;
      args << "{\"beats\":" << tx.beats
           << ",\"grant_latency\":" << tx.grant_latency()
           << ",\"transfer_cycles\":" << tx.transfer_cycles
           << ",\"complete\":" << (tx.complete ? "true" : "false");
      if (tx.master >= 0) {
        args << ",\"master\":\""
             << json_escape(b.masters[static_cast<size_t>(tx.master)].name)
             << "\"";
      }
      const std::string behavior = bus->behavior_name(tx.master_behavior);
      if (!behavior.empty()) {
        args << ",\"behavior\":\"" << json_escape(behavior) << "\"";
      }
      args << "}";
      for (const char ph : {'b', 'e'}) {
        sep();
        os << "{\"ph\":\"" << ph << "\",\"pid\":2,\"tid\":" << tx.bus + 1
           << ",\"cat\":\"bus\",\"id\":" << i << ",\"ts\":";
        emit_ts(os, us(ph == 'b' ? tx.request_time : tx.end_time));
        os << ",\"name\":\"" << json_escape(name) << "\"";
        if (ph == 'b') os << ",\"args\":" << args.str();
        os << "}";
      }
    }

    for (size_t i = 0; i < bus->buses().size(); ++i) {
      const std::string& n = bus->buses()[i].name;
      for (const auto& [t, v] : bus->busy_samples(i)) {
        sep();
        os << "{\"ph\":\"C\",\"pid\":2,\"name\":\""
           << json_escape(n + " busy") << "\",\"ts\":";
        emit_ts(os, us(t));
        os << ",\"args\":{\"busy\":" << v << "}}";
      }
      for (const auto& [t, v] : bus->waiting_samples(i)) {
        sep();
        os << "{\"ph\":\"C\",\"pid\":2,\"name\":\""
           << json_escape(n + " waiting") << "\",\"ts\":";
        emit_ts(os, us(t));
        os << ",\"args\":{\"waiting\":" << v << "}}";
      }
    }
  }

  os << "\n]}\n";
  return os.str();
}

}  // namespace specsyn
