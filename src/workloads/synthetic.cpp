#include "workloads/synthetic.h"

#include <random>

#include "spec/builder.h"
#include "support/text.h"

namespace specsyn {

using namespace build;

namespace {

class Generator {
 public:
  explicit Generator(const SyntheticOptions& opts)
      : opts_(opts), rng_(opts.seed) {}

  Specification run() {
    Specification s;
    s.name = "Synth" + std::to_string(opts_.seed);
    const size_t nvars = std::max<size_t>(opts_.variables, 2);
    for (size_t i = 0; i < nvars; ++i) {
      const uint32_t widths[] = {8, 16, 32};
      s.vars.push_back(var(numbered("v", i),
                           Type::of_width(widths[i % 3]), i % 7,
                           /*observable=*/i % 4 == 0));
    }
    std::vector<size_t> pool(nvars);
    for (size_t i = 0; i < nvars; ++i) pool[i] = i;
    const size_t leaves = std::max<size_t>(opts_.leaf_behaviors, 1);
    s.top = make_group(leaves, pool, 0);
    return s;
  }

 private:
  size_t rand_below(size_t n) {
    return n == 0 ? 0 : std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  bool chance(unsigned percent) { return rand_below(100) < percent; }

  std::string fresh_name(const char* base) {
    return std::string(base) + std::to_string(counter_++);
  }

  /// Builds a subtree containing `leaves` leaf behaviors drawing on `pool`.
  BehaviorPtr make_group(size_t leaves, const std::vector<size_t>& pool,
                         size_t depth) {
    if (leaves == 1 || depth >= opts_.max_depth) {
      return make_leaf_behavior(pool);
    }
    const size_t k = 2 + rand_below(std::min<size_t>(leaves - 1, 3));
    // Split `leaves` into k positive parts.
    std::vector<size_t> parts(k, 1);
    for (size_t extra = leaves - k; extra > 0; --extra) {
      ++parts[rand_below(k)];
    }

    const bool conc = pool.size() >= 2 * k && chance(opts_.conc_percent);
    std::vector<BehaviorPtr> children;
    if (conc) {
      // Disjoint pools keep concurrent branches race-free.
      std::vector<size_t> shuffled = pool;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rand_below(i)]);
      }
      const size_t share = shuffled.size() / k;
      for (size_t i = 0; i < k; ++i) {
        std::vector<size_t> sub(
            shuffled.begin() + static_cast<ptrdiff_t>(i * share),
            shuffled.begin() + static_cast<ptrdiff_t>(
                                   i + 1 == k ? shuffled.size()
                                              : (i + 1) * share));
        children.push_back(make_group(parts[i], sub, depth + 1));
      }
      return conc_behavior(std::move(children));
    }
    for (size_t i = 0; i < k; ++i) {
      children.push_back(make_group(parts[i], pool, depth + 1));
    }
    return seq_behavior(std::move(children), pool);
  }

  BehaviorPtr conc_behavior(std::vector<BehaviorPtr> children) {
    return conc(fresh_name("C"), std::move(children));
  }

  BehaviorPtr seq_behavior(std::vector<BehaviorPtr> children,
                           const std::vector<size_t>& pool) {
    std::vector<Transition> ts;
    if (opts_.guards && children.size() >= 2) {
      // Forward-only guarded arcs (termination is structural).
      for (size_t i = 0; i + 1 < children.size(); ++i) {
        if (!chance(40)) continue;
        const size_t target =
            i + 1 + rand_below(children.size() - i - 1);
        ts.push_back(on(children[i]->name,
                        gt(rand_operand(pool), rand_operand(pool)),
                        children[target]->name));
      }
    }
    return seq(fresh_name("S"), std::move(children), std::move(ts));
  }

  ExprPtr rand_operand(const std::vector<size_t>& pool) {
    if (chance(40) || pool.empty()) return lit(rand_below(64));
    return ref(numbered("v", pool[rand_below(pool.size())]));
  }

  ExprPtr rand_expr(const std::vector<size_t>& pool, int depth = 0) {
    if (depth >= 2 || chance(35)) return rand_operand(pool);
    const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                         BinOp::Or, BinOp::Xor, BinOp::Mod};
    return Expr::binary(ops[rand_below(7)], rand_expr(pool, depth + 1),
                        rand_expr(pool, depth + 1));
  }

  StmtPtr rand_stmt(const std::vector<size_t>& pool, const std::string& leaf,
                    size_t& loop_counter) {
    const size_t pick = rand_below(10);
    if (pick < 5) {
      return assign(var_name(pool), rand_expr(pool));
    }
    if (pick < 7) {
      return if_(gt(rand_operand(pool), rand_operand(pool)),
                 block(assign(var_name(pool), rand_expr(pool))),
                 block(assign(var_name(pool), rand_expr(pool))));
    }
    if (pick < 9) {
      // Bounded loop over a dedicated counter variable.
      const std::string cnt = leaf + "_i" + std::to_string(loop_counter++);
      pending_counters_.push_back(cnt);
      StmtList body = block(assign(var_name(pool), rand_expr(pool)),
                            assign(cnt, add(ref(cnt), lit(1))));
      StmtList out = block(assign(cnt, lit(0)),
                           while_(lt(ref(cnt), lit(opts_.loop_iters)),
                                  std::move(body)));
      // Package as a single statement list under an always-true if (keeps
      // rand_stmt's single-statement signature simple).
      return if_(lit(1, Type::bit()), std::move(out));
    }
    return Stmt::delay_for(1 + rand_below(3));
  }

  std::string var_name(const std::vector<size_t>& pool) {
    if (pool.empty()) return "v0";
    return numbered("v", pool[rand_below(pool.size())]);
  }

  BehaviorPtr make_leaf_behavior(const std::vector<size_t>& pool) {
    const std::string name = fresh_name("L");
    StmtList body;
    size_t loops = 0;
    pending_counters_.clear();
    for (size_t i = 0; i < opts_.stmts_per_leaf; ++i) {
      body.push_back(rand_stmt(pool, name, loops));
    }
    auto b = leaf(name, std::move(body));
    for (const std::string& cnt : pending_counters_) {
      b->vars.push_back(var(cnt, Type::u8()));
    }
    pending_counters_.clear();
    return b;
  }

  const SyntheticOptions& opts_;
  std::mt19937_64 rng_;
  size_t counter_ = 0;
  std::vector<std::string> pending_counters_;
};

}  // namespace

Specification make_synthetic_spec(const SyntheticOptions& opts) {
  return Generator(opts).run();
}

}  // namespace specsyn
