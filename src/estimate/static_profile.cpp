#include "estimate/static_profile.h"

#include <cmath>
#include <map>

#include "spec/index.h"

namespace specsyn {

namespace {

struct Activity {
  double cycles = 0;
  // (behavior, var) -> expected reads/writes
  std::map<std::pair<std::string, std::string>, double> reads;
  std::map<std::pair<std::string, std::string>, double> writes;

  void scale(double f) {
    cycles *= f;
    for (auto& [k, v] : reads) v *= f;
    for (auto& [k, v] : writes) v *= f;
  }
  void add(const Activity& o) {
    cycles += o.cycles;
    for (const auto& [k, v] : o.reads) reads[k] += v;
    for (const auto& [k, v] : o.writes) writes[k] += v;
  }
};

class Analyzer {
 public:
  explicit Analyzer(const Specification& spec) : spec_(spec), index_(spec) {}

  ProfileResult run() {
    ProfileResult out;
    if (spec_.top) {
      Activity total = analyze_behavior(*spec_.top, 1.0);
      out.sim.end_time = static_cast<uint64_t>(std::llround(total.cycles));
      for (const auto& [key, v] : total.reads) {
        out.accesses[key].reads += to_count(v);
      }
      for (const auto& [key, v] : total.writes) {
        out.accesses[key].writes += to_count(v);
      }
      // Drop all-zero channels so channel_count() mirrors dynamic profiles.
      for (auto it = out.accesses.begin(); it != out.accesses.end();) {
        it = it->second.total() == 0 ? out.accesses.erase(it) : std::next(it);
      }
      out.behaviors = std::move(behaviors_);
    }
    out.sim.status = SimResult::Status::Quiescent;
    out.sim.root_completed = true;
    return out;
  }

 private:
  static uint64_t to_count(double v) {
    return v <= 0 ? 0 : std::max<uint64_t>(1, static_cast<uint64_t>(
                                                  std::llround(v)));
  }

  [[nodiscard]] bool is_var(const std::string& name) const {
    return index_.find_var(name) != nullptr;
  }

  void note_reads(const Expr& e, const std::string& behavior, Activity& a,
                  double weight) const {
    std::vector<std::string> names;
    e.collect_names(names);
    for (const auto& n : names) {
      if (is_var(n)) a.reads[{behavior, n}] += weight;
    }
  }

  /// Records behavior profile info: expected activations and duration.
  Activity analyze_behavior(const Behavior& b, double activations) {
    Activity a;
    switch (b.kind) {
      case BehaviorKind::Leaf:
        a = analyze_block(b.body, b.name);
        break;
      case BehaviorKind::Sequential: {
        // Back arcs (to the same or an earlier child) iterate; every child
        // targeted by a back arc runs kStaticLoopIters times per
        // activation of the composite.
        std::map<std::string, double> repeat;
        for (const auto& c : b.children) repeat[c->name] = 1.0;
        for (const Transition& t : b.transitions) {
          if (t.completes()) continue;
          const size_t from = b.child_index(t.from);
          const size_t to = b.child_index(t.to);
          if (to <= from) {
            // Loop body: every child in [to, from] re-executes.
            for (size_t i = to; i <= from && i < b.children.size(); ++i) {
              repeat[b.children[i]->name] = std::max(
                  repeat[b.children[i]->name],
                  static_cast<double>(kStaticLoopIters));
            }
          }
        }
        for (const auto& c : b.children) {
          Activity child = analyze_behavior(*c, activations * repeat[c->name]);
          child.scale(repeat[c->name]);
          a.add(child);
        }
        // Guard evaluations, once per completing child execution.
        for (const Transition& t : b.transitions) {
          if (!t.guard) continue;
          const double times = repeat.count(t.from) ? repeat.at(t.from) : 1.0;
          Activity g;
          note_reads(*t.guard, b.name, g, times);
          g.cycles = times;
          a.add(g);
        }
        break;
      }
      case BehaviorKind::Concurrent: {
        double longest = 0;
        for (const auto& c : b.children) {
          Activity child = analyze_behavior(*c, activations);
          longest = std::max(longest, child.cycles);
          child.cycles = 0;  // overlapped; duration accounted via `longest`
          a.add(child);
        }
        a.cycles += longest;
        break;
      }
    }
    a.cycles += 2;  // enter/complete overhead

    BehaviorProfile& p = behaviors_[b.name];
    p.activations = to_count(activations);
    p.first_start = 0;
    p.last_end = static_cast<uint64_t>(std::llround(
        std::max(1.0, a.cycles * std::max(activations, 1.0))));
    return a;
  }

  Activity analyze_block(const StmtList& stmts, const std::string& behavior) {
    Activity a;
    for (const auto& s : stmts) a.add(analyze_stmt(*s, behavior));
    return a;
  }

  Activity analyze_stmt(const Stmt& s, const std::string& behavior) {
    Activity a;
    switch (s.kind) {
      case Stmt::Kind::Assign:
        a.cycles = 1;
        if (is_var(s.target)) a.writes[{behavior, s.target}] += 1;
        note_reads(*s.expr, behavior, a, 1.0);
        break;
      case Stmt::Kind::SignalAssign:
        a.cycles = 1;
        note_reads(*s.expr, behavior, a, 1.0);
        break;
      case Stmt::Kind::If: {
        a.cycles = 1;
        note_reads(*s.expr, behavior, a, 1.0);
        Activity then_a = analyze_block(s.then_block, behavior);
        then_a.scale(kStaticBranchProbability);
        Activity else_a = analyze_block(s.else_block, behavior);
        else_a.scale(1.0 - kStaticBranchProbability);
        a.add(then_a);
        a.add(else_a);
        break;
      }
      case Stmt::Kind::While: {
        const double iters = static_cast<double>(loop_bound(s));
        Activity body = analyze_block(s.then_block, behavior);
        body.scale(iters);
        a.add(body);
        // Condition evaluated iters + 1 times.
        note_reads(*s.expr, behavior, a, iters + 1);
        a.cycles += iters + 1;
        break;
      }
      case Stmt::Kind::Loop: {
        const double iters =
            static_cast<double>(kStaticLoopIters);
        Activity body = analyze_block(s.then_block, behavior);
        body.scale(iters);
        a.add(body);
        a.cycles += iters;
        break;
      }
      case Stmt::Kind::Wait:
        note_reads(*s.expr, behavior, a, 1.0);
        a.cycles = static_cast<double>(kStaticWaitLatency);
        break;
      case Stmt::Kind::Delay:
        a.cycles = static_cast<double>(std::max<uint64_t>(s.delay, 1));
        break;
      case Stmt::Kind::Call: {
        a.cycles = 1;
        const Procedure* p = spec_.find_procedure(s.callee);
        for (size_t i = 0; i < s.args.size(); ++i) {
          const bool is_out =
              p != nullptr && i < p->params.size() && p->params[i].is_out;
          if (is_out) {
            if (is_var(s.args[i]->name)) {
              a.writes[{behavior, s.args[i]->name}] += 1;
            }
          } else {
            note_reads(*s.args[i], behavior, a, 1.0);
          }
        }
        if (p != nullptr) {
          // Procedure-internal latency; accesses inside procedures touch
          // only params/locals (spec variables flow through arguments).
          Activity body = analyze_block(p->body, behavior);
          a.cycles += body.cycles;
        }
        break;
      }
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        a.cycles = 1;
        break;
    }
    return a;
  }

  /// Pattern: `while (i < N)` with literal N and a body statement
  /// `i := i + K` (literal K>0) — bound = ceil(N/K). Anything else falls
  /// back to the heuristic.
  uint64_t loop_bound(const Stmt& w) const {
    const Expr& cond = *w.expr;
    if (cond.kind == Expr::Kind::Binary &&
        (cond.bin_op == BinOp::Lt || cond.bin_op == BinOp::Le) &&
        cond.args[0]->kind == Expr::Kind::NameRef &&
        cond.args[1]->kind == Expr::Kind::IntLit) {
      const std::string& ivar = cond.args[0]->name;
      const uint64_t bound = cond.args[1]->int_value +
                             (cond.bin_op == BinOp::Le ? 1 : 0);
      for (const auto& s : w.then_block) {
        if (s->kind != Stmt::Kind::Assign || s->target != ivar) continue;
        const Expr& e = *s->expr;
        if (e.kind == Expr::Kind::Binary && e.bin_op == BinOp::Add &&
            e.args[0]->kind == Expr::Kind::NameRef &&
            e.args[0]->name == ivar &&
            e.args[1]->kind == Expr::Kind::IntLit &&
            e.args[1]->int_value > 0) {
          const uint64_t step = e.args[1]->int_value;
          return (bound + step - 1) / step;
        }
      }
    }
    return kStaticLoopIters;
  }

  const Specification& spec_;
  const SpecIndex index_;
  std::map<std::string, BehaviorProfile> behaviors_;
};

}  // namespace

ProfileResult static_profile(const Specification& spec) {
  validate_or_throw(spec);
  return Analyzer(spec).run();
}

}  // namespace specsyn
