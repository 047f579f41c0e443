#include "sim/equivalence.h"

#include <algorithm>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "sim/program_cache.h"
#include "telemetry/telemetry.h"

namespace specsyn {

Outcome outcome_of(const SimResult& r, const Specification* original) {
  Outcome o;
  o.status = r.status;
  o.root_completed =
      original != nullptr ? top_completed(*original, r) : r.root_completed;
  if (original == nullptr) {
    o.final_vars = r.final_vars;
  } else {
    for (const VarDecl* v : original->all_vars()) {
      const auto it = r.final_vars.find(v->name);
      if (it != r.final_vars.end()) o.final_vars.insert(*it);
    }
  }
  for (const WriteEvent& w : r.observable_writes) {
    if (o.final_vars.count(w.var) != 0) o.writes[w.var].push_back(w.value);
  }
  return o;
}

std::string Outcome::digest() const {
  std::string out =
      status == SimResult::Status::Quiescent ? "quiescent" : "max-cycles";
  out += root_completed ? " root-done" : " root-incomplete";
  for (const auto& [name, value] : final_vars) {
    out += ' ' + name + '=' + std::to_string(value);
  }
  for (const auto& [name, seq] : writes) {
    out += ' ' + name + ":[";
    for (size_t i = 0; i < seq.size(); ++i) {
      out += (i != 0 ? "," : "") + std::to_string(seq[i]);
    }
    out += ']';
  }
  return out;
}

std::vector<std::string> describe_differences(const Specification& spec,
                                              const Outcome& a,
                                              const Outcome& b,
                                              std::string_view a_name,
                                              std::string_view b_name) {
  std::vector<std::string> out;
  if (a == b) return out;
  const std::string an(a_name);
  const std::string bn(b_name);
  if (a.status != b.status) {
    out.push_back((a.status == SimResult::Status::Quiescent ? bn : an) +
                  " simulation did not quiesce");
  }
  if (a.root_completed != b.root_completed) {
    const std::string top =
        "the original top behavior '" + (spec.top ? spec.top->name : "") + "'";
    out.push_back(a.root_completed
                      ? bn + " spec never completed " + top +
                            " (deadlock or starvation in inserted interfaces)"
                      : an + " spec never completed " + top + ", the " + bn +
                            " spec did");
  }
  for (const VarDecl* v : spec.all_vars()) {
    const auto ia = a.final_vars.find(v->name);
    const auto ib = b.final_vars.find(v->name);
    const bool in_a = ia != a.final_vars.end();
    const bool in_b = ib != b.final_vars.end();
    if (in_a != in_b) {
      out.push_back("variable '" + v->name + "' missing from " +
                    (in_a ? bn : an) + " spec");
    } else if (in_a && ia->second != ib->second) {
      out.push_back("variable '" + v->name + "': " + an + " final value " +
                    std::to_string(ia->second) + ", " + bn + " " +
                    std::to_string(ib->second));
    }
  }
  static const std::vector<uint64_t> kNoWrites;
  for (const auto& [name, seq_a] : a.writes) {
    const auto it = b.writes.find(name);
    const auto& seq_b = it == b.writes.end() ? kNoWrites : it->second;
    if (seq_a == seq_b) continue;
    const auto [diff, _] = std::mismatch(seq_a.begin(), seq_a.end(),
                                         seq_b.begin(), seq_b.end());
    out.push_back("observable '" + name + "': write sequence differs (" +
                  std::to_string(seq_a.size()) + " vs " +
                  std::to_string(seq_b.size()) +
                  " writes; first divergence at index " +
                  std::to_string(diff - seq_a.begin()) + ")");
  }
  for (const auto& [name, seq] : b.writes) {
    if (a.writes.count(name) == 0) {
      out.push_back("observable '" + name + "' written only in " + bn +
                    " spec");
    }
  }
  return out;
}

std::string EquivalenceReport::summary() const {
  if (equivalent) return "equivalent";
  std::ostringstream os;
  os << mismatches.size() << " mismatch(es):\n";
  for (const auto& m : mismatches) os << "  - " << m << '\n';
  return os.str();
}

EquivalenceReport check_equivalence(const Specification& original,
                                    const Specification& refined,
                                    const EquivalenceOptions& opts) {
  telemetry::Span tm_span("equivalence", telemetry::Stability::Stable);
  SimResult original_result;
  SimResult refined_result;

  const auto run_one = [&opts](const Specification& s) {
    Simulator sim(s, opts.config, opts.programs);
    return sim.run();
  };
  if (opts.parallel) {
    // The spawned thread simulates the original; the caller simulates the
    // refined (usually the bigger job). Both results land in fixed fields,
    // so the merged report cannot depend on which finishes first.
    std::exception_ptr original_err;
    std::thread t([&] {
      try {
        original_result = run_one(original);
      } catch (...) {
        original_err = std::current_exception();
      }
    });
    try {
      refined_result = run_one(refined);
    } catch (...) {
      t.join();
      throw;
    }
    t.join();
    if (original_err) std::rethrow_exception(original_err);
  } else {
    original_result = run_one(original);
    refined_result = run_one(refined);
  }

  EquivalenceReport report =
      compare_results(original, outcome_of(original_result), refined_result,
                      opts.compare_write_traces);
  report.original_result = std::move(original_result);
  report.refined_result = std::move(refined_result);
  return report;
}

bool top_completed(const Specification& original, const SimResult& r) {
  if (r.root_completed || original.top == nullptr) return r.root_completed;
  const auto it = r.behavior_completions.find(original.top->name);
  return it != r.behavior_completions.end() && it->second > 0;
}

EquivalenceReport compare_results(const Specification& original,
                                  const Outcome& original_outcome,
                                  const SimResult& refined_result,
                                  bool compare_write_traces) {
  EquivalenceReport report;
  const Outcome& a = original_outcome;
  Outcome b = outcome_of(refined_result, &original);
  // Without write traces the refined side takes the original's, so only the
  // rest of the outcome can differ.
  if (!compare_write_traces) b.writes = a.writes;
  // Both runs must quiesce. When only one does, the status difference names
  // it; when neither does, the outcomes may still agree, so name both.
  if (a.status != SimResult::Status::Quiescent &&
      b.status != SimResult::Status::Quiescent) {
    report.mismatches = {"original simulation did not quiesce",
                         "refined simulation did not quiesce"};
  }
  for (std::string& m : describe_differences(original, a, b)) {
    report.mismatches.push_back(std::move(m));
  }
  report.equivalent = report.mismatches.empty();
  return report;
}

}  // namespace specsyn
