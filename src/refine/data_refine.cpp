#include "refine/data_refine.h"

#include "spec/builder.h"

namespace specsyn {

using namespace build;

void MasterUse::note(const std::string& bus, const std::string& master) {
  auto& v = bus_masters[bus];
  for (const auto& m : v) {
    if (m == master) return;
  }
  v.push_back(master);
}

bool MasterUse::used(const std::string& bus, const std::string& master) const {
  auto it = bus_masters.find(bus);
  if (it == bus_masters.end()) return false;
  for (const auto& m : it->second) {
    if (m == master) return true;
  }
  return false;
}

namespace {

class DataRefiner {
 public:
  DataRefiner(size_t component, const SpecIndex& orig, const BusPlan& plan,
              const AddressMap& amap, MasterUse& use, bool per_thread_masters)
      : component_(component), orig_(orig), plan_(plan), amap_(amap),
        use_(use), per_thread_masters_(per_thread_masters) {}

  void refine(Behavior& b, const std::string& thread) {
    switch (b.kind) {
      case BehaviorKind::Leaf: {
        Ctx ctx{&b, thread, {}};
        b.body = rewrite_block(std::move(b.body), ctx);
        break;
      }
      case BehaviorKind::Sequential: {
        refine_guards(b, thread);
        for (auto& c : b.children) refine(*c, thread);
        break;
      }
      case BehaviorKind::Concurrent: {
        // Each child of a concurrent composite is its own thread; under
        // component-granular master identities the enclosing identity is
        // kept (sound only without real concurrency, which the refiner
        // guarantees before selecting that mode).
        for (auto& c : b.children) {
          refine(*c, per_thread_masters_ ? c->name : thread);
        }
        break;
      }
    }
  }

 private:
  struct Ctx {
    Behavior* holder;                       // declares the tmps
    std::string thread;                     // master identity
    std::map<std::string, std::string> tmp; // original var -> tmp name
  };

  [[nodiscard]] bool is_mapped(const std::string& name) const {
    return plan_.module_of(name) != nullptr;
  }

  const std::string& tmp_for(Ctx& ctx, const std::string& var) {
    auto it = ctx.tmp.find(var);
    if (it != ctx.tmp.end()) return it->second;
    const VarDecl* decl = orig_.find_var(var);
    std::string name = ctx.holder->name + "_t_" + var;
    ctx.holder->vars.push_back(build::var(name, decl->type));
    return ctx.tmp.emplace(var, std::move(name)).first->second;
  }

  StmtPtr fetch_call(Ctx& ctx, const std::string& var) {
    const std::string bus = plan_.access_bus(component_, var);
    use_.note(bus, ctx.thread);
    return call(ProtocolGen::read_proc_name(bus, ctx.thread),
                args(lit(amap_.addr_of(var), amap_.addr_type()),
                     lit(amap_.beats_of(var), Type::u8()),
                     ref(tmp_for(ctx, var))));
  }

  StmtPtr store_call(Ctx& ctx, const std::string& var) {
    const std::string bus = plan_.access_bus(component_, var);
    use_.note(bus, ctx.thread);
    return call(ProtocolGen::write_proc_name(bus, ctx.thread),
                args(lit(amap_.addr_of(var), amap_.addr_type()),
                     lit(amap_.beats_of(var), Type::u8()),
                     ref(tmp_for(ctx, var))));
  }

  /// Rewrites `e` in place: mapped variable refs become tmp refs; one fetch
  /// per distinct variable is appended to `prologue` (deduplicated via
  /// `fetched`, which is per-statement).
  void rewrite_expr(Expr& e, Ctx& ctx, StmtList& prologue,
                    std::set<std::string>& fetched) {
    if (e.kind == Expr::Kind::NameRef && is_mapped(e.name)) {
      if (fetched.insert(e.name).second) {
        prologue.push_back(fetch_call(ctx, e.name));
      }
      e.name = tmp_for(ctx, e.name);
      return;
    }
    for (auto& a : e.args) rewrite_expr(*a, ctx, prologue, fetched);
  }

  StmtList rewrite_block(StmtList stmts, Ctx& ctx) {
    StmtList out;
    for (auto& s : stmts) {
      StmtList repl = rewrite_stmt(std::move(s), ctx);
      for (auto& r : repl) out.push_back(std::move(r));
    }
    return out;
  }

  StmtList rewrite_stmt(StmtPtr s, Ctx& ctx) {
    StmtList out;
    std::set<std::string> fetched;
    switch (s->kind) {
      case Stmt::Kind::Assign: {
        rewrite_expr(*s->expr, ctx, out, fetched);
        if (is_mapped(s->target)) {
          // Figure 5(c): tmp := e'; MST_send(addr, tmp).
          const std::string orig_target = s->target;
          s->target = tmp_for(ctx, orig_target);
          out.push_back(std::move(s));
          out.push_back(store_call(ctx, orig_target));
        } else {
          out.push_back(std::move(s));
        }
        break;
      }
      case Stmt::Kind::SignalAssign:
        rewrite_expr(*s->expr, ctx, out, fetched);
        out.push_back(std::move(s));
        break;
      case Stmt::Kind::If: {
        rewrite_expr(*s->expr, ctx, out, fetched);
        s->then_block = rewrite_block(std::move(s->then_block), ctx);
        s->else_block = rewrite_block(std::move(s->else_block), ctx);
        out.push_back(std::move(s));
        break;
      }
      case Stmt::Kind::While: {
        // Fetch before entry, re-fetch at the end of each iteration.
        rewrite_expr(*s->expr, ctx, out, fetched);
        StmtList refetch;
        for (const auto& f : out) refetch.push_back(f->clone());
        s->then_block = rewrite_block(std::move(s->then_block), ctx);
        for (auto& f : refetch) s->then_block.push_back(std::move(f));
        out.push_back(std::move(s));
        break;
      }
      case Stmt::Kind::Loop:
        s->then_block = rewrite_block(std::move(s->then_block), ctx);
        out.push_back(std::move(s));
        break;
      case Stmt::Kind::Wait:
        rewrite_expr(*s->expr, ctx, out, fetched);
        out.push_back(std::move(s));
        break;
      case Stmt::Kind::Call: {
        const Procedure* p = orig_.spec().find_procedure(s->callee);
        std::vector<std::string> post_stores;
        for (size_t i = 0; i < s->args.size(); ++i) {
          const bool is_out =
              p != nullptr && i < p->params.size() && p->params[i].is_out;
          if (is_out) {
            if (s->args[i]->kind == Expr::Kind::NameRef &&
                is_mapped(s->args[i]->name)) {
              const std::string var = s->args[i]->name;
              s->args[i] = ref(tmp_for(ctx, var));
              post_stores.push_back(var);
            }
          } else {
            rewrite_expr(*s->args[i], ctx, out, fetched);
          }
        }
        out.push_back(std::move(s));
        for (const auto& var : post_stores) {
          out.push_back(store_call(ctx, var));
        }
        break;
      }
      case Stmt::Kind::Delay:
      case Stmt::Kind::Break:
      case Stmt::Kind::Nop:
        out.push_back(std::move(s));
        break;
    }
    return out;
  }

  // -- Figure 6: transition-guard refinement ---------------------------------

  /// True if any guard on arcs leaving `child` references a mapped variable.
  bool child_needs_fetch(const Behavior& b, const std::string& child) const {
    for (const Transition& t : b.transitions) {
      if (t.from != child || !t.guard) continue;
      std::vector<std::string> names;
      t.guard->collect_names(names);
      for (const auto& n : names) {
        if (is_mapped(n)) return true;
      }
    }
    return false;
  }

  /// Adds explicit terminal arcs so that appending fetch children cannot
  /// change any child's fall-through successor.
  void normalize_fallthrough(Behavior& b) {
    const size_t n = b.children.size();
    for (size_t i = 0; i < n; ++i) {
      const std::string& name = b.children[i]->name;
      bool has_unconditional = false;
      for (const Transition& t : b.transitions) {
        if (t.from == name && !t.guard) has_unconditional = true;
      }
      if (has_unconditional) continue;
      Transition t;
      t.from = name;
      t.to = (i + 1 < n) ? b.children[i + 1]->name : "";
      b.transitions.push_back(std::move(t));
    }
  }

  void refine_guards(Behavior& b, const std::string& thread) {
    std::vector<std::string> need_fetch;
    for (const auto& c : b.children) {
      if (child_needs_fetch(b, c->name)) need_fetch.push_back(c->name);
    }
    if (need_fetch.empty()) return;

    normalize_fallthrough(b);
    Ctx ctx{&b, thread, {}};

    for (const std::string& child : need_fetch) {
      // Distinct mapped vars across all of this child's guards.
      std::vector<std::string> vars;
      for (const Transition& t : b.transitions) {
        if (t.from != child || !t.guard) continue;
        std::vector<std::string> names;
        t.guard->collect_names(names);
        for (const auto& n : names) {
          if (is_mapped(n) &&
              std::find(vars.begin(), vars.end(), n) == vars.end()) {
            vars.push_back(n);
          }
        }
      }

      StmtList fetch_body;
      for (const auto& v : vars) fetch_body.push_back(fetch_call(ctx, v));
      const std::string fetch_name = child + "_fetch";
      b.children.push_back(leaf(fetch_name, std::move(fetch_body)));

      std::vector<Transition> rebuilt;
      std::vector<Transition> moved;
      for (Transition& t : b.transitions) {
        if (t.from != child) {
          rebuilt.push_back(std::move(t));
          continue;
        }
        if (t.guard) replace_mapped_refs(*t.guard, ctx);
        t.from = fetch_name;
        moved.push_back(std::move(t));
      }
      Transition to_fetch;
      to_fetch.from = child;
      to_fetch.to = fetch_name;
      rebuilt.push_back(std::move(to_fetch));
      for (auto& t : moved) rebuilt.push_back(std::move(t));
      b.transitions = std::move(rebuilt);
    }
  }

  void replace_mapped_refs(Expr& e, Ctx& ctx) {
    if (e.kind == Expr::Kind::NameRef && is_mapped(e.name)) {
      e.name = tmp_for(ctx, e.name);
      return;
    }
    for (auto& a : e.args) replace_mapped_refs(*a, ctx);
  }

  size_t component_;
  const SpecIndex& orig_;
  const BusPlan& plan_;
  const AddressMap& amap_;
  MasterUse& use_;
  bool per_thread_masters_;
};

}  // namespace

void data_refine_tree(Behavior& root, size_t component,
                      const std::string& thread, const SpecIndex& orig,
                      const BusPlan& plan, const AddressMap& amap,
                      MasterUse& use, bool per_thread_masters) {
  DataRefiner(component, orig, plan, amap, use, per_thread_masters)
      .refine(root, thread);
}

}  // namespace specsyn
