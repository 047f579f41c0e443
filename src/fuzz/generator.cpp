#include "fuzz/generator.h"

#include <algorithm>
#include <vector>

#include "fuzz/rng.h"
#include "spec/builder.h"
#include "support/text.h"

namespace specsyn::fuzz {

using namespace build;

namespace {

// Widths chosen to stress every transfer shape: single-bit flags, sub-byte
// and non-power-of-two vectors (1..3 byte-serial beats), and full words.
constexpr uint32_t kWidths[] = {1, 3, 8, 13, 16, 24, 32, 48, 64};

class Gen {
 public:
  explicit Gen(const GenOptions& opts)
      : opts_(opts), rng_(opts.seed), budget_(std::max<size_t>(opts.stmt_budget, 8)) {}

  Specification run() {
    Specification s;
    s.name = "Fuzz" + std::to_string(opts_.seed);

    max_depth_ = 2 + rng_.below(3);           // 2..4
    conc_pct_ = static_cast<unsigned>(rng_.below(55));  // 0..54
    guard_pct_ = 25 + static_cast<unsigned>(rng_.below(55));

    const size_t nvars =
        std::clamp<size_t>(3 + budget_ / 12 + rng_.below(4), 4, 16);
    for (size_t i = 0; i < nvars; ++i) {
      const Type t = Type::of_width(rng_.pick(kWidths));
      s.vars.push_back(var(numbered("v", i), t, t.wrap(rng_.next()),
                           /*observable=*/i % 3 == 0));
    }

    make_procedures(s);

    std::vector<size_t> pool(nvars);
    for (size_t i = 0; i < nvars; ++i) pool[i] = i;
    used_.assign(nvars, false);
    const size_t leaves = std::clamp<size_t>(budget_ / 6, 2, 24);
    s.top = make_group(leaves, pool, 0);

    // Every declared variable must be accessed somewhere: storage nobody
    // touches refines into bus addresses no master ever drives, which the
    // static-verifier oracle rightly flags. Touch stragglers with a
    // self-referential update in a leaf whose pool owns them, so concurrent
    // branches stay disjoint.
    for (size_t i = 0; i < nvars; ++i) {
      if (used_[i]) continue;
      for (auto& [lf, lp] : leaf_pools_) {
        if (std::find(lp.begin(), lp.end(), i) == lp.end()) continue;
        const std::string v = numbered("v", i);
        lf->body.push_back(
            assign(v, add(ref(v), lit(1 + rng_.below(7)))));
        break;
      }
    }
    return s;
  }

 private:
  std::string fresh(const char* base) {
    return std::string(base) + std::to_string(counter_++);
  }

  void spend(size_t n) { budget_ = budget_ > n ? budget_ - n : 0; }

  // -- procedures -------------------------------------------------------------
  // Pure compute procedures: bodies touch only parameters and locals (the
  // refiner's documented precondition for original procedures).
  void make_procedures(Specification& s) {
    const size_t nprocs = budget_ >= 24 ? rng_.below(3) : 0;
    for (size_t i = 0; i < nprocs; ++i) {
      Procedure p;
      p.name = fresh("P");
      p.params.push_back(in_param("a", Type::of_width(rng_.pick(kWidths))));
      p.params.push_back(in_param("b", Type::of_width(rng_.pick(kWidths))));
      p.params.push_back(out_param("r", Type::of_width(rng_.pick(kWidths))));
      p.locals.emplace_back("t", Type::u16());
      const BinOp ops[] = {BinOp::Add, BinOp::Xor, BinOp::Mul, BinOp::Or};
      p.body = block(
          assign("t", Expr::binary(rng_.pick(ops), ref("a"), ref("b"))),
          if_(gt(ref("t"), ref("b")),
              block(assign("r", add(ref("t"), lit(rng_.below(9))))),
              block(assign("r", Expr::binary(rng_.pick(ops), ref("a"),
                                             lit(1 + rng_.below(7)))))));
      spend(4);
      proc_names_.push_back(p.name);
      s.procedures.push_back(std::move(p));
    }
  }

  // -- hierarchy --------------------------------------------------------------
  BehaviorPtr make_group(size_t leaves, const std::vector<size_t>& pool,
                         size_t depth) {
    if (leaves == 1 || depth >= max_depth_) return make_leaf(pool);
    const size_t k = 2 + rng_.below(std::min<size_t>(leaves - 1, 3));
    std::vector<size_t> parts(k, 1);
    for (size_t extra = leaves - k; extra > 0; --extra) ++parts[rng_.below(k)];

    // Concurrent composites get pairwise disjoint variable pools so the
    // generated spec is race-free and scheduling-invariant.
    if (pool.size() >= 2 * k && rng_.chance(conc_pct_)) {
      std::vector<size_t> shuffled = pool;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng_.below(i)]);
      }
      const size_t share = shuffled.size() / k;
      std::vector<BehaviorPtr> children;
      for (size_t i = 0; i < k; ++i) {
        std::vector<size_t> sub(
            shuffled.begin() + static_cast<ptrdiff_t>(i * share),
            shuffled.begin() +
                static_cast<ptrdiff_t>(i + 1 == k ? shuffled.size()
                                                  : (i + 1) * share));
        children.push_back(make_group(parts[i], sub, depth + 1));
      }
      return conc(fresh("C"), std::move(children));
    }

    std::vector<BehaviorPtr> children;
    for (size_t i = 0; i < k; ++i) {
      children.push_back(make_group(parts[i], pool, depth + 1));
    }
    // Guard-heavy, forward-only transition structure: skips ahead and
    // guarded early completion, so termination is structural.
    std::vector<Transition> ts;
    for (size_t i = 0; i + 1 < children.size(); ++i) {
      if (!rng_.chance(guard_pct_)) continue;
      if (rng_.chance(20)) {
        ts.push_back(done(children[i]->name, cmp_expr(pool)));
      } else {
        const size_t target = i + 1 + rng_.below(children.size() - i - 1);
        ts.push_back(on(children[i]->name, cmp_expr(pool),
                        children[target]->name));
      }
    }
    return seq(fresh("S"), std::move(children), std::move(ts));
  }

  // -- expressions ------------------------------------------------------------
  ExprPtr operand(const std::vector<size_t>& pool) {
    if (pool.empty() || rng_.chance(35)) return lit(rng_.below(128));
    const size_t idx = pool[rng_.below(pool.size())];
    used_[idx] = true;
    return ref(numbered("v", idx));
  }

  ExprPtr cmp_expr(const std::vector<size_t>& pool) {
    const BinOp ops[] = {BinOp::Gt, BinOp::Lt, BinOp::Ge, BinOp::Eq,
                         BinOp::Ne, BinOp::Le};
    return Expr::binary(rng_.pick(ops), operand(pool), operand(pool));
  }

  ExprPtr rand_expr(const std::vector<size_t>& pool, int depth = 0) {
    if (depth >= 3 || rng_.chance(35)) return operand(pool);
    if (rng_.chance(12)) {
      const UnOp ops[] = {UnOp::BitNot, UnOp::Neg, UnOp::LogicalNot};
      return Expr::unary(rng_.pick(ops), rand_expr(pool, depth + 1));
    }
    const BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                         BinOp::Or,  BinOp::Xor, BinOp::Mod, BinOp::Shl,
                         BinOp::Shr, BinOp::Div};
    return Expr::binary(rng_.pick(ops), rand_expr(pool, depth + 1),
                        rand_expr(pool, depth + 1));
  }

  std::string pool_var(const std::vector<size_t>& pool) {
    if (pool.empty()) {
      used_[0] = true;
      return "v0";
    }
    const size_t idx = pool[rng_.below(pool.size())];
    used_[idx] = true;
    return numbered("v", idx);
  }

  // -- leaf bodies ------------------------------------------------------------
  StmtPtr rand_stmt(const std::vector<size_t>& pool, const std::string& leaf,
                    size_t& loop_counter) {
    const size_t pick = rng_.below(20);
    spend(1);
    if (pick < 9) return assign(pool_var(pool), rand_expr(pool));
    if (pick < 12) {
      spend(2);
      StmtList else_b;
      if (rng_.chance(60)) {
        else_b = block(assign(pool_var(pool), rand_expr(pool)));
      }
      return if_(cmp_expr(pool),
                 block(assign(pool_var(pool), rand_expr(pool))),
                 std::move(else_b));
    }
    if (pick < 14) {
      // Bounded while over a dedicated behavior-scoped counter.
      const std::string cnt = leaf + "_i" + std::to_string(loop_counter++);
      pending_counters_.push_back(cnt);
      spend(3);
      return if_(lit(1, Type::bit()),
                 block(assign(cnt, lit(0)),
                       while_(lt(ref(cnt), lit(1 + rng_.below(4))),
                              block(assign(pool_var(pool), rand_expr(pool)),
                                    assign(cnt, add(ref(cnt), lit(1)))))));
    }
    if (pick < 15) {
      // loop / break over a dedicated counter: exercises the Break paths of
      // every interpreter and the refiner's loop handling.
      const std::string cnt = leaf + "_i" + std::to_string(loop_counter++);
      pending_counters_.push_back(cnt);
      spend(4);
      return if_(lit(1, Type::bit()),
                 block(assign(cnt, lit(0)),
                       loop(block(assign(pool_var(pool), rand_expr(pool)),
                                  assign(cnt, add(ref(cnt), lit(1))),
                                  if_(ge(ref(cnt), lit(1 + rng_.below(3))),
                                      block(break_()))))));
    }
    if (pick < 17 && !proc_names_.empty()) {
      spend(1);
      return call(proc_names_[rng_.below(proc_names_.size())],
                  args(rand_expr(pool), rand_expr(pool), ref(pool_var(pool))));
    }
    if (pick < 18) return nop();
    return delay(1 + rng_.below(3));
  }

  BehaviorPtr make_leaf(const std::vector<size_t>& pool) {
    const std::string name = fresh("L");
    const size_t n = 1 + rng_.below(5);
    StmtList body;
    size_t loops = 0;
    pending_counters_.clear();
    for (size_t i = 0; i < n; ++i) {
      body.push_back(rand_stmt(pool, name, loops));
      if (budget_ == 0 && !body.empty()) break;
    }
    auto b = leaf(name, std::move(body));
    for (const std::string& cnt : pending_counters_) {
      b->vars.push_back(var(cnt, Type::u8()));
    }
    pending_counters_.clear();
    leaf_pools_.emplace_back(b.get(), pool);
    return b;
  }

  const GenOptions& opts_;
  Rng rng_;
  size_t budget_;
  size_t max_depth_ = 3;
  unsigned conc_pct_ = 25;
  unsigned guard_pct_ = 50;
  size_t counter_ = 0;
  std::vector<std::string> proc_names_;
  std::vector<std::string> pending_counters_;
  std::vector<bool> used_;
  std::vector<std::pair<Behavior*, std::vector<size_t>>> leaf_pools_;
};

}  // namespace

Specification generate_spec(const GenOptions& opts) {
  return Gen(opts).run();
}

}  // namespace specsyn::fuzz
