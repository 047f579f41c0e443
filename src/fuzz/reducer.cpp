#include "fuzz/reducer.h"

#include <algorithm>

#include "printer/printer.h"
#include "spec/builder.h"
#include "spec/mutate.h"

namespace specsyn::fuzz {

namespace {

class Reducer {
 public:
  Reducer(const Specification& failing, const FailPredicate& still_fails,
          ReduceStats& stats)
      : current_(failing.clone()), still_fails_(still_fails), stats_(stats) {}

  Specification run() {
    stats_.initial_lines = count_lines(current_);
    bool progress = true;
    while (progress && stats_.rounds < kMaxRounds) {
      ++stats_.rounds;
      progress = false;
      progress |= pass_promote_subtree();
      progress |= pass_delete_children();
      progress |= pass_delete_statements();
      progress |= pass_hoist_compounds();
      progress |= pass_delete_transitions();
      progress |= pass_erase_guards();
      progress |= pass_simplify_exprs();
      progress |= pass_drop_unused_decls();
    }
    stats_.final_lines = count_lines(current_);
    return std::move(current_);
  }

 private:
  static constexpr size_t kMaxRounds = 40;

  bool accept(Specification&& cand) {
    ++stats_.candidates_tried;
    DiagnosticSink diags;
    if (!validate(cand, diags)) return false;
    if (!still_fails_(cand)) return false;
    current_ = std::move(cand);
    ++stats_.candidates_kept;
    return true;
  }

  // -- pass 1: replace the top behavior with one of its descendants ----------
  bool pass_promote_subtree() {
    bool any = false;
    for (size_t i = 1;; ++i) {
      std::vector<Behavior*> all = current_.top->all_behaviors();
      if (i >= all.size()) break;
      Specification cand = current_.clone();
      cand.top = cand.top->all_behaviors()[i]->clone();
      if (accept(std::move(cand))) {
        any = true;
        i = 0;  // the hierarchy changed wholesale; restart the scan
      }
    }
    return any;
  }

  // -- pass 2: delete composite children -------------------------------------
  bool pass_delete_children() {
    bool any = false;
    for (size_t bi = 0;; ++bi) {
      std::vector<Behavior*> all = current_.top->all_behaviors();
      if (bi >= all.size()) break;
      if (all[bi]->is_leaf() || all[bi]->children.size() < 2) continue;
      for (size_t ci = 0; ci < all[bi]->children.size();) {
        Specification cand = current_.clone();
        Behavior* parent = cand.top->all_behaviors()[bi];
        const std::string name = parent->children[ci]->name;
        auto& ts = parent->transitions;
        ts.erase(std::remove_if(ts.begin(), ts.end(),
                                [&](const Transition& t) {
                                  return t.from == name || t.to == name;
                                }),
                 ts.end());
        parent->children.erase(parent->children.begin() +
                               static_cast<ptrdiff_t>(ci));
        if (parent->children.size() == 1) {
          (void)flatten_trivial_composites(cand);
        }
        if (accept(std::move(cand))) {
          any = true;
          break;  // this parent may be gone entirely; re-enumerate
        }
        ++ci;
      }
    }
    return any;
  }

  // -- pass 3: delete statements, largest chunks first -----------------------
  // nth_block addresses blocks by their for_each_block visit order, which is
  // identical on a clone of the same spec.
  static StmtList* nth_block(Specification& spec, size_t n) {
    StmtList* found = nullptr;
    size_t i = 0;
    for_each_block(spec, [&](StmtList& list) {
      if (i++ == n) found = &list;
    });
    return found;
  }

  bool pass_delete_statements() {
    bool any = false;
    for (size_t bi = 0;; ++bi) {
      StmtList* block = nth_block(current_, bi);
      if (block == nullptr) break;
      // ddmin-style: whole block, then halves, then single statements.
      for (size_t chunk = std::max<size_t>(block->size(), 1); chunk >= 1;
           chunk /= 2) {
        bool shrunk = true;
        while (shrunk) {
          shrunk = false;
          block = nth_block(current_, bi);
          if (block == nullptr || block->empty()) break;
          const size_t n = block->size();
          for (size_t start = 0; start + chunk <= n; start += chunk) {
            Specification cand = current_.clone();
            StmtList* cb = nth_block(cand, bi);
            cb->erase(cb->begin() + static_cast<ptrdiff_t>(start),
                      cb->begin() + static_cast<ptrdiff_t>(start + chunk));
            if (accept(std::move(cand))) {
              any = true;
              shrunk = true;
              break;
            }
          }
        }
        if (chunk == 1) break;
      }
    }
    return any;
  }

  // -- pass 4: replace if/while/loop with their bodies -----------------------
  bool pass_hoist_compounds() {
    bool any = false;
    for (size_t bi = 0;; ++bi) {
      StmtList* block = nth_block(current_, bi);
      if (block == nullptr) break;
      for (size_t si = 0; si < block->size(); ++si) {
        const Stmt& s = *(*block)[si];
        if (s.kind != Stmt::Kind::If && s.kind != Stmt::Kind::While &&
            s.kind != Stmt::Kind::Loop) {
          continue;
        }
        Specification cand = current_.clone();
        StmtList* cb = nth_block(cand, bi);
        StmtPtr victim = std::move((*cb)[si]);
        cb->erase(cb->begin() + static_cast<ptrdiff_t>(si));
        StmtList hoisted = std::move(victim->then_block);
        for (auto& e : victim->else_block) hoisted.push_back(std::move(e));
        cb->insert(cb->begin() + static_cast<ptrdiff_t>(si),
                   std::make_move_iterator(hoisted.begin()),
                   std::make_move_iterator(hoisted.end()));
        if (accept(std::move(cand))) any = true;
        block = nth_block(current_, bi);
        if (block == nullptr) break;
      }
    }
    return any;
  }

  // -- pass 5/6: transition surgery ------------------------------------------
  bool pass_delete_transitions() {
    bool any = false;
    for (size_t bi = 0;; ++bi) {
      std::vector<Behavior*> all = current_.top->all_behaviors();
      if (bi >= all.size()) break;
      for (size_t ti = 0; ti < all[bi]->transitions.size();) {
        Specification cand = current_.clone();
        Behavior* b = cand.top->all_behaviors()[bi];
        b->transitions.erase(b->transitions.begin() +
                             static_cast<ptrdiff_t>(ti));
        if (accept(std::move(cand))) {
          any = true;
          all = current_.top->all_behaviors();  // accept() freed the old tree
          continue;  // same index now names the next arc
        }
        ++ti;
      }
    }
    return any;
  }

  bool pass_erase_guards() {
    bool any = false;
    for (size_t bi = 0;; ++bi) {
      std::vector<Behavior*> all = current_.top->all_behaviors();
      if (bi >= all.size()) break;
      for (size_t ti = 0; ti < all[bi]->transitions.size(); ++ti) {
        if (all[bi]->transitions[ti].guard == nullptr) continue;
        Specification cand = current_.clone();
        cand.top->all_behaviors()[bi]->transitions[ti].guard = nullptr;
        if (accept(std::move(cand))) {
          any = true;
          all = current_.top->all_behaviors();  // accept() freed the old tree
        }
      }
    }
    return any;
  }

  // -- pass 7: shrink expressions --------------------------------------------
  // Expression slots are enumerated in a deterministic order: statement
  // expressions and call arguments (pre-order), then transition guards.
  static ExprPtr* nth_expr_slot(Specification& spec, size_t n) {
    ExprPtr* found = nullptr;
    size_t i = 0;
    for_each_stmt(spec, [&](Stmt& s) {
      if (s.expr && i++ == n) found = &s.expr;
      for (auto& a : s.args) {
        if (i++ == n) found = &a;
      }
    });
    spec.top->for_each([&](Behavior& b) {
      for (auto& t : b.transitions) {
        if (t.guard && i++ == n) found = &t.guard;
      }
    });
    return found;
  }

  bool pass_simplify_exprs() {
    bool any = false;
    for (size_t ei = 0;; ++ei) {
      ExprPtr* slot = nth_expr_slot(current_, ei);
      if (slot == nullptr) break;
      const Expr& e = **slot;
      if (e.kind == Expr::Kind::IntLit) continue;
      std::vector<ExprPtr> variants;
      for (const auto& a : e.args) variants.push_back(a->clone());
      variants.push_back(Expr::lit(0));
      variants.push_back(Expr::lit(1));
      for (auto& v : variants) {
        Specification cand = current_.clone();
        *nth_expr_slot(cand, ei) = std::move(v);
        if (accept(std::move(cand))) {
          any = true;
          break;
        }
      }
    }
    return any;
  }

  // -- pass 8: dead declarations ---------------------------------------------
  bool pass_drop_unused_decls() {
    Specification cand = current_.clone();
    if (remove_unused_decls(cand) == 0) return false;
    return accept(std::move(cand));
  }

  Specification current_;
  const FailPredicate& still_fails_;
  ReduceStats& stats_;
};

}  // namespace

Specification reduce_spec(const Specification& failing,
                          const FailPredicate& still_fails,
                          ReduceStats* stats) {
  validate_or_throw(failing);
  if (!still_fails(failing)) {
    throw SpecError("reduce_spec: input does not satisfy the failure predicate");
  }
  ReduceStats local;
  ReduceStats& s = stats != nullptr ? *stats : local;
  return Reducer(failing, still_fails, s).run();
}

}  // namespace specsyn::fuzz
