#include "sim/equivalence.h"

#include <exception>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "sim/program_cache.h"
#include "telemetry/telemetry.h"

namespace specsyn {

namespace {

// Splits a chronological write trace into per-variable value sequences.
std::map<std::string, std::vector<uint64_t>> per_var(
    const std::vector<WriteEvent>& writes) {
  std::map<std::string, std::vector<uint64_t>> out;
  for (const auto& w : writes) out[w.var].push_back(w.value);
  return out;
}

}  // namespace

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

  EquivalenceReport report = compare_results(
      original, original_result, refined_result, opts.compare_write_traces);
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
                                  const SimResult& a, const SimResult& b,
                                  bool compare_write_traces) {
  EquivalenceReport report;
  if (a.status != SimResult::Status::Quiescent) {
    report.mismatches.push_back("original simulation did not quiesce");
  }
  if (b.status != SimResult::Status::Quiescent) {
    report.mismatches.push_back("refined simulation did not quiesce");
  }
  if (a.root_completed && !top_completed(original, b)) {
    const std::string top_name = original.top ? original.top->name : "";
    report.mismatches.push_back(
        "refined spec never completed the original top behavior '" +
        top_name + "' (deadlock or starvation in inserted interfaces)");
  }

  // (1) Final values of every original variable.
  for (const VarDecl* v : original.all_vars()) {
    auto ita = a.final_vars.find(v->name);
    auto itb = b.final_vars.find(v->name);
    if (itb == b.final_vars.end()) {
      report.mismatches.push_back("variable '" + v->name +
                                  "' missing from refined spec");
      continue;
    }
    if (ita->second != itb->second) {
      std::ostringstream os;
      os << "variable '" << v->name << "': original final value "
         << ita->second << ", refined " << itb->second;
      report.mismatches.push_back(os.str());
    }
  }

  // (2) Observable write traces, per variable.
  if (compare_write_traces) {
    auto ta = per_var(a.observable_writes);
    auto tb = per_var(b.observable_writes);
    for (const auto& [var, seq_a] : ta) {
      auto it = tb.find(var);
      const std::vector<uint64_t> empty;
      const std::vector<uint64_t>& seq_b = it == tb.end() ? empty : it->second;
      if (seq_a != seq_b) {
        std::ostringstream os;
        os << "observable '" << var << "': write sequence differs ("
           << seq_a.size() << " vs " << seq_b.size() << " writes";
        size_t i = 0;
        while (i < seq_a.size() && i < seq_b.size() && seq_a[i] == seq_b[i]) ++i;
        if (i < seq_a.size() || i < seq_b.size()) {
          os << "; first divergence at index " << i;
        }
        os << ")";
        report.mismatches.push_back(os.str());
      }
    }
    for (const auto& [var, seq_b] : tb) {
      if (ta.count(var) == 0) {
        report.mismatches.push_back("observable '" + var +
                                    "' written only in refined spec");
      }
    }
  }

  report.equivalent = report.mismatches.empty();
  return report;
}

}  // namespace specsyn
