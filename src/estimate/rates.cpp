#include "estimate/rates.h"

namespace specsyn {

double BusRateReport::max_rate() const {
  double m = 0.0;
  for (const auto& [bus, r] : bus_mbps) m = std::max(m, r);
  return m;
}

double BusRateReport::total_rate() const {
  double t = 0.0;
  for (const auto& [bus, r] : bus_mbps) t += r;
  return t;
}

double BusRateReport::rate_of(const std::string& bus) const {
  auto it = bus_mbps.find(bus);
  return it == bus_mbps.end() ? 0.0 : it->second;
}

BusRateReport bus_rates(const ProfileResult& profile, const Partition& part,
                        const BusPlan& plan, double clock_hz) {
  BusRateReport report;
  report.model = plan.model();
  // Every bus appears in the report, even at rate 0.
  for (const BusDecl& b : plan.buses()) report.bus_mbps[b.name] = 0.0;

  for (const auto& [key, counts] : profile.accesses) {
    const auto& [behavior, var] = key;
    const VarDecl* decl = part.index().find_var(var);
    if (decl == nullptr) continue;  // tmp of a refined spec profile

    auto bit = profile.behaviors.find(behavior);
    if (bit == profile.behaviors.end()) continue;
    const double lifetime_s = static_cast<double>(bit->second.lifetime()) /
                              clock_hz;

    ChannelRate c;
    c.behavior = behavior;
    c.var = var;
    c.accesses = counts.total();
    c.bits = counts.total() * decl->type.width;
    c.mbits_per_s = static_cast<double>(c.bits) / lifetime_s / 1e6;
    report.channels.push_back(c);

    const size_t comp = part.component_of_behavior(behavior);
    for (const std::string& bus : plan.route(comp, var)) {
      report.bus_mbps[bus] += c.mbits_per_s;
    }
  }
  return report;
}

}  // namespace specsyn
