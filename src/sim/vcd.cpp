#include "sim/vcd.h"

namespace specsyn {

namespace {

std::string to_binary(uint64_t v, uint32_t width) {
  std::string s;
  for (uint32_t i = width; i-- > 0;) s += ((v >> i) & 1) ? '1' : '0';
  return s;
}

}  // namespace

std::string VcdRecorder::make_id(size_t n) {
  // Printable-ASCII identifiers: ! .. ~ (94 symbols), base-94.
  std::string id;
  do {
    id += static_cast<char>('!' + n % 94);
    n /= 94;
  } while (n != 0);
  return id;
}

VcdRecorder::VcdRecorder(const Specification& spec) {
  header_ << "$date specsyn-refine $end\n"
          << "$version specsyn-refine VCD export $end\n"
          << "$timescale 1 ns $end\n"
          << "$scope module " << spec.name << " $end\n";
  size_t n = 0;
  const auto declare = [&](const std::string& name, Type type, uint64_t init) {
    Wire w;
    w.id = make_id(n++);
    w.width = type.width;
    w.last = init;
    w.has_value = true;
    header_ << "$var wire " << w.width << " " << w.id << " " << name
            << " $end\n";
    wires_.emplace(name, std::move(w));
  };
  for (const SignalDecl* s : spec.all_signals()) {
    declare(s->name, s->type, s->init);
  }
  for (const VarDecl* v : spec.all_vars()) {
    if (v->is_observable) declare(v->name, v->type, v->init);
  }
  header_ << "$upscope $end\n$enddefinitions $end\n";
  // Initial values at t=0.
  body_ << "#0\n$dumpvars\n";
  for (const auto& [name, w] : wires_) {
    (void)name;
    if (w.width == 1) {
      body_ << (w.last & 1) << w.id << "\n";
    } else {
      body_ << "b" << to_binary(w.last, w.width) << " " << w.id << "\n";
    }
  }
  body_ << "$end\n";
  last_time_ = 0;
}

void VcdRecorder::emit_time(uint64_t time) {
  if (time != last_time_) {
    body_ << "#" << time << "\n";
    last_time_ = time;
  }
}

void VcdRecorder::on_bind(const Binding& b) {
  const auto resolve = [&](const auto& table, std::vector<Wire*>& out) {
    out.assign(table.size(), nullptr);
    for (size_t i = 0; i < table.size(); ++i) {
      auto it = wires_.find(table.name_of(i));
      if (it != wires_.end()) out[i] = &it->second;
    }
  };
  resolve(*b.signals, signal_wires_);
  resolve(*b.vars, var_wires_);
}

void VcdRecorder::record(Wire* w, uint64_t time, uint64_t value) {
  if (w == nullptr) return;
  if (w->has_value && w->last == value) return;
  w->last = value;
  w->has_value = true;
  emit_time(time);
  if (w->width == 1) {
    body_ << (value & 1) << w->id << "\n";
  } else {
    body_ << "b" << to_binary(value, w->width) << " " << w->id << "\n";
  }
  ++changes_;
}

void VcdRecorder::on_signal_commit(uint32_t slot, uint64_t time,
                                   uint64_t value) {
  record(signal_wires_[slot], time, value);
}

void VcdRecorder::on_var_write(uint32_t slot, uint32_t, uint64_t time,
                               uint64_t value) {
  record(var_wires_[slot], time, value);
}

std::string VcdRecorder::str() const { return header_.str() + body_.str(); }

}  // namespace specsyn
